import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.detect import Cascade, Stage, Tree
from camvitals.dsp import estimate_rate
from camvitals.geometry import Rect
from camvitals.ingest import VideoClip, in_order, write_physio_csv
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


# ------------------------- worker processes -------------------------
# A function that runs in a worker process of ingest.in_order leaves its
# traces in files: its memory ends with the worker.

@pytest.fixture
def cpus(monkeypatch):
    """pin(n): make the test's process, and so ingest.in_order, see n CPUs.
    With one, every call runs in the test process."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return pin


def log_line(path, *fields):
    """Append one line of `fields` to `path`."""
    with open(path, "a") as f:
        f.write(" ".join(map(str, fields)) + "\n")


def logged(path):
    """The lines log_line appended to `path`, each split into its fields."""
    return [line.split() for line in path.read_text().splitlines()] if path.exists() else []


def wait_for_lines(path, n, why):
    """Wait up to 10 s until `path` holds at least n lines."""
    deadline = time.monotonic() + 10.0
    while len(logged(path)) < n:
        assert time.monotonic() < deadline, why
        time.sleep(0.005)


def assert_ended(pids):
    """Every one of `pids` has ended and been reaped: none is left running
    or as a zombie."""
    assert pids and os.getpid() not in pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def run_cli_calls(script, argvs, tmp_path):
    """[exit code, stdout, stderr] of each argument list of `argvs`, run
    through cli.main by `script`, which reads the lists from the JSON file
    named by its argument and prints the results as JSON. The lists are
    split between two runs of the script, one per worker process of
    ingest.in_order: the calls are independent, so this only changes how
    long a test takes."""
    children = 2
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(entry):
        job_file = tmp_path / f"jobs{entry.trial_id}.json"
        job_file.write_text(json.dumps(argvs[entry.trial_id - 1::children]))
        done = subprocess.run([sys.executable, str(script), str(job_file)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    parts = list(in_order(run, [SimpleNamespace(trial_id=k) for k in range(1, children + 1)]))
    # part k holds calls k, k + children, ...
    results = [None] * len(argvs)
    for k, part in enumerate(parts):
        results[k::children] = part
    return results
