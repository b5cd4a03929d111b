"""Differential tests: the ROI traces, computed over blocks of frames that
share one box, against per-frame reference loops.

The references below are the per-frame formulations the block versions
replace. Results must be bit-identical, not merely close: est.csv is
compared byte for byte across versions. A mean direction's norm is taken
as sqrt((x*x + y*y) + z*z), the fixed order `_unit_means` uses, not with
np.linalg.norm, whose BLAS dot rounds by the CPU's kernel.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from camvitals import ingest
from camvitals.evaluation import skin_tone_gray
from camvitals.geometry import Rect
from camvitals.ingest import VideoClip, _roi_blocks, to_grayscale
from camvitals.vitals import _unit_means, hr_roi, mean_gray_trace, pulse_trace, rr_roi

from conftest import quick_clip


def _pixels(clip, rois, t):
    r = rois[t]
    return clip.frames[t, r.y:r.y + r.h, r.x:r.x + r.w, :].reshape(-1, 3).astype(np.float64)


def ref_unit_means(clip, rois):
    means = np.empty((clip.n_frames, 3))
    for t in range(clip.n_frames):
        px = _pixels(clip, rois, t)
        norms = np.linalg.norm(px, axis=1)
        keep = norms > 0
        if not np.any(keep):
            raise ValueError(f"ROI entirely black in frame {t}")
        m = (px[keep] / norms[keep, None]).mean(axis=0)
        x, y, z = m.tolist()
        means[t] = m / math.sqrt((x * x + y * y) + z * z)
    return means


def ref_mean_gray(clip, rois):
    out = np.empty(clip.n_frames)
    for t in range(clip.n_frames):
        px = _pixels(clip, rois, t)
        gray = np.clip(np.rint(0.299 * px[:, 0] + 0.587 * px[:, 1] + 0.114 * px[:, 2]), 0, 255)
        out[t] = gray.mean()
    return out


def ref_skin_tone_gray(clip, rois):
    total, count = 0.0, 0
    for t, roi in enumerate(rois):
        gray = to_grayscale(clip.frames[t, roi.y:roi.bottom, roi.x:roi.right])
        total += float(gray.sum())
        count += gray.size
    return total / count


def hold_last(face, n, changes):
    """Per-frame boxes of a tracked face: `face` shifted by (dx, dy) from
    each frame listed in `changes` on, as hold-last tracking produces."""
    boxes, shift = [], (0, 0)
    for t in range(n):
        shift = changes.get(t, shift)
        boxes.append(Rect(face.x + shift[0], face.y + shift[1], face.w, face.h))
    return boxes


def assert_traces_match(clip, faces):
    hr = [hr_roi(f) for f in faces]
    rr = [rr_roi(f, clip.height, clip.width) for f in faces]
    # the scalar of pulse_trace is a function of _unit_means alone
    assert np.array_equal(_unit_means(clip, hr), ref_unit_means(clip, hr))
    assert np.array_equal(mean_gray_trace(clip, rr).samples, ref_mean_gray(clip, rr))
    assert skin_tone_gray(clip, faces) == ref_skin_tone_gray(clip, faces)


def test_constant_manual_box():
    clip, truth = quick_clip(duration=5.0, noise_sigma=1.0, seed=2)
    assert_traces_match(clip, [truth.face_box] * clip.n_frames)


@pytest.mark.parametrize("changes", [
    {64: (1, 0)},                          # on a block boundary
    {63: (1, 1), 64: (0, 0), 65: (-1, 0)},  # one-frame runs around it
    {30: (2, 1), 100: (-2, 0), 129: (1, -1), 190: (0, 0)},
])
def test_hold_last_boxes_that_change_mid_clip(changes):
    clip, truth = quick_clip(duration=200 / 30.0, noise_sigma=2.0, seed=5)
    assert clip.n_frames == 200
    assert_traces_match(clip, hold_last(truth.face_box, clip.n_frames, changes))


@pytest.mark.parametrize("budget", [1, 5000, 40000])
def test_blocks_cut_by_their_bytes(budget, monkeypatch):
    # budgets of one frame a block, and of blocks of a few frames that the
    # box changes cut again
    monkeypatch.setattr(ingest, "_ROI_BLOCK_BYTES", budget)
    clip, truth = quick_clip(duration=200 / 30.0, noise_sigma=2.0, seed=5)
    assert_traces_match(clip, hold_last(truth.face_box, clip.n_frames,
                                        {30: (2, 1), 100: (-2, 0), 101: (0, 0)}))


@pytest.mark.parametrize("budget,lengths", [
    (0, [1] * 200),                   # never below one frame
    (2400 * 5 - 1, [4] * 50),         # a float64 copy is 2,400 bytes a frame
    (2400 * 5, [5] * 40),
    (2400 * 64, [64, 64, 64, 8]),
    (1 << 40, [64, 64, 64, 8]),       # the frame cap
])
def test_roi_blocks_end_at_the_byte_budget_or_the_frame_cap(budget, lengths, monkeypatch):
    monkeypatch.setattr(ingest, "_ROI_BLOCK_BYTES", budget)
    clip = VideoClip(np.zeros((200, 16, 16, 3), dtype=np.uint8), 30.0)
    blocks = list(_roi_blocks(clip, [Rect(3, 2, 10, 10)] * 200))
    assert [len(block) for _, block in blocks] == lengths
    assert [t0 for t0, _ in blocks] == list(np.cumsum([0] + lengths[:-1]))


def test_rois_with_some_black_pixels():
    clip, truth = quick_clip(duration=200 / 30.0, noise_sigma=1.0, seed=7)
    frames = clip.frames.copy()
    rng = np.random.default_rng(8)
    face = truth.face_box
    for t in rng.choice(clip.n_frames, size=40, replace=False):
        ys = rng.integers(face.y, face.bottom + 6, size=12)
        xs = rng.integers(face.x, face.right, size=12)
        frames[t, ys, xs] = 0
    clip = VideoClip(frames, clip.fps)
    assert_traces_match(clip, hold_last(face, clip.n_frames, {64: (1, 0), 150: (0, 1)}))


@pytest.mark.parametrize("trace", [pytest.param(pulse_trace, id="spherical_mean_trace")])
def test_all_black_roi_in_a_later_block_names_its_frame(trace):
    frames = np.full((200, 8, 8, 3), 120, dtype=np.uint8)
    frames[150, 2:6, 2:6] = 0
    clip = VideoClip(frames, 30.0)
    rois = [Rect(2, 2, 4, 4)] * 200
    with pytest.raises(ValueError, match="frame 150$"):
        trace(clip, rois)


@pytest.mark.parametrize("rois,message", [
    ([Rect(2, 2, 4, 4)] * 199, "^199 ROIs for 200 frames$"),
    ([Rect(2, 2, 4, 4)] * 100 + [Rect(5, 2, 4, 4)] * 100,
     r"^ROI of frame 100 Rect\(x=5, y=2, w=4, h=4\) outside 8x8 frame$"),
    ([Rect(2, 2, 4, 4)] * 70 + [Rect(2, 2, 0, 4)] * 130,
     r"^ROI of frame 70 has non-positive size: Rect\(x=2, y=2, w=0, h=4\)$"),
], ids=["count", "outside", "empty"])
@pytest.mark.parametrize("function", [pulse_trace, mean_gray_trace, skin_tone_gray],
                         ids=["spherical_mean_trace", "mean_gray_trace", "skin_tone_gray"])
def test_every_roi_function_checks_its_rois(function, rois, message):
    clip = VideoClip(np.full((200, 8, 8, 3), 120, dtype=np.uint8), 30.0)
    with pytest.raises(ValueError, match=message):
        function(clip, rois)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_unit_means_renormalise_as_the_per_frame_loop_on_random_frames(dtype):
    # random colours and black pixels spread the frames' mean directions,
    # and so their squared norms, far wider than a face clip does
    rng = np.random.default_rng(41)
    frames = rng.integers(1, 256, size=(3000, 3, 3, 3)).astype(dtype)
    if dtype != np.uint8:
        frames -= rng.uniform(0.0, 1.0, size=frames.shape)
    frames[rng.random(frames.shape[:3]) < 0.3] = 0
    frames[:, 1, 1] = rng.integers(1, 256, size=(3000, 3))
    # a VideoClip holds uint8 frames only; float frames go in as the
    # attributes the block walk reads
    clip = (VideoClip(frames, 30.0) if dtype == np.uint8 else
            SimpleNamespace(frames=frames, n_frames=3000, height=3, width=3))
    rois = [Rect(0, 0, 3, 3)] * clip.n_frames
    assert np.array_equal(_unit_means(clip, rois), ref_unit_means(clip, rois))
