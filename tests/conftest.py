import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.detect import Cascade, Stage, Tree
from camvitals.dsp import estimate_rate
from camvitals.geometry import Rect
from camvitals.ingest import VideoClip, write_physio_csv
from camvitals.synth import SynthConfig, synth_clip
from camvitals.vitals import mean_gray_trace, pulse_trace


def make_toy_cascade(threshold=40.0):
    """Single Haar feature: 4x the center 4x4 sum minus the whole 8x8
    window. Zero on flat patches, strongly positive on a bright centered
    blob (about 110 when perfectly aligned, under 40 when off by 2 px)."""
    tree = Tree(rects=((Rect(0, 0, 8, 8), -1.0), (Rect(2, 2, 4, 4), 4.0)),
                threshold=threshold, pass_value=1.0, fail_value=0.0)
    return Cascade(window_w=8, window_h=8, stages=(Stage(0.5, (tree,)),))


def blob_frame(width, height, blob, bright=220, dark=20):
    img = np.full((height, width), dark, dtype=np.uint8)
    img[blob.y:blob.bottom, blob.x:blob.right] = bright
    return img


def blob_clip(width, height, blobs, fps=30.0):
    """Grayscale blob scenes replicated into RGB, one blob spec (or None)
    per frame."""
    frames = np.stack([
        np.repeat(blob_frame(width, height, b)[:, :, None], 3, axis=2)
        if b is not None else np.full((height, width, 3), 20, dtype=np.uint8)
        for b in blobs])
    return VideoClip(frames, fps)


@pytest.fixture
def toy_cascade():
    return make_toy_cascade()


def quick_clip(hr=72.0, rr=15.0, duration=20.0, seed=0, **kw):
    cfg = SynthConfig(hr_bpm=hr, rr_brpm=rr, duration=duration, seed=seed, **kw)
    return synth_clip(cfg)


def write_physio(path, record):
    """Write `record` as a whole physio.csv, header included, at `path`."""
    with open(path, "w", newline="", encoding="ascii") as f:
        write_physio_csv(f, record, 0)


def hr_estimate(clip, rois, cfg=PipelineConfig()):
    """(bpm, flags) of a face ROI sequence, as `camvitals estimate` computes it."""
    return estimate_rate(pulse_trace(clip, rois), cfg.hr_bandpass, cfg.video_stft)


def rr_estimate(clip, rois, cfg=PipelineConfig()):
    """(brpm, flags) of a chest ROI sequence, as `camvitals estimate` computes it."""
    return estimate_rate(mean_gray_trace(clip, rois), cfg.rr_bandpass, cfg.video_stft)
