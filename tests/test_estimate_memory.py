"""Memory guards for estimate's pixel stage: the ROI traces work on blocks
whose float64 temporaries are bounded in bytes, not only in frames, and a
trial's frames are freed before its signal stage starts.

The trace runs in a child process, whose peak RSS is its own. Run as a
script, this file is that child: `python tests/test_estimate_memory.py`
prints a JSON object with the clip's frame bytes, the growth of peak RSS
over mean_gray_trace in bytes, and the trace's first sample.
"""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from conftest import log_line, logged

SRC = Path(__file__).resolve().parents[1] / "src"

# 64 frames of 320x240, one block of the frame cap: 14.7 MB of uint8
# frames, and 39 MB of float64 gray temporaries when the block is
# converted at once
WIDTH, HEIGHT, FRAMES = 320, 240, 64
# a face whose full-width chest box is the lower half of the frame
FACE = (120, 40, 80, 80)
ROI = "manual:12,5,8,10"   # the synthetic face box at 32x32


def test_mean_gray_trace_peak_rss_grows_by_less_than_half_the_frames():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    # rows 120..239 hold the levels 120..239 in every channel
    assert result["first"] == 179.5
    assert result["growth"] < result["frame_bytes"] / 2, result


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "forked"])
def test_no_frames_of_a_trial_outlive_its_pixel_stage(cpus, tmp_path, monkeypatch):
    from camvitals import cli, dsp
    from camvitals.synth import SynthConfig, TrialPlan, synth_dataset

    data = tmp_path / "ds"
    synth_dataset([TrialPlan(1, "respiration", 1, 9.0), TrialPlan(2, "gaze", 3, 9.0)],
                  SynthConfig(width=32, height=32), data, seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    # in each process that runs trials: a weak reference to each clip read
    # and to the buffer of its frames; every bandpass call logs how many
    # are still alive
    refs = []
    log = tmp_path / "alive.log"
    read_frame_range, bandpass = cli.read_frame_range, dsp.bandpass

    def reading(*args):
        clip = read_frame_range(*args)
        assert clip.frames.base is not None
        refs.extend([weakref.ref(clip), weakref.ref(clip.frames.base)])
        return clip

    def checking(*args):
        log_line(log, os.getpid(), len(refs), sum(ref() is not None for ref in refs))
        return bandpass(*args)

    monkeypatch.setattr(cli, "read_frame_range", reading)
    monkeypatch.setattr(dsp, "bandpass", checking)
    assert cli.main(["estimate", "--data", str(data), "--out", str(tmp_path / "est.csv"),
                     "--roi", ROI, "--crop", "0,0,0,0"]) == 0
    lines = logged(log)
    # two bandpass calls a trial, each after a trial's clip was read
    assert len(lines) == 4 and all(int(read) > 0 for _, read, _ in lines)
    assert [alive for _, _, alive in lines] == ["0"] * 4
    assert len({pid for pid, _, _ in lines}) == cpus
    assert (os.getpid() == int(lines[0][0])) == (cpus == 1)


def _child():
    import resource

    import numpy as np

    from camvitals.geometry import Rect
    from camvitals.ingest import VideoClip
    from camvitals.vitals import mean_gray_trace, rr_roi

    # every pixel written, by a broadcast that builds no large temporary
    frames = np.empty((FRAMES, HEIGHT, WIDTH, 3), dtype=np.uint8)
    frames[...] = np.arange(HEIGHT, dtype=np.uint8)[None, :, None, None]
    chest = rr_roi(Rect(*FACE), HEIGHT, WIDTH)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = mean_gray_trace(VideoClip(frames, 30.0), [chest] * FRAMES)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux
    print(json.dumps({"frame_bytes": frames.nbytes, "growth": (after - before) * 1024,
                      "first": float(trace.samples[0])}))


if __name__ == "__main__":
    _child()
