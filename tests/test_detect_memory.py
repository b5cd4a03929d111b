"""Memory guard for the detection pass: detect_trials reads a trial in
blocks of frames and converts each frame to gray as it scans it, so its
peak RSS grows by about one block's records and one frame's gray and
integral images, not by the trial's frames, nor by the 17 bytes per pixel
of float64 and uint8 temporaries that converting a whole clip at once
takes.

The pass runs in a child process on one CPU, whose peak RSS is its own.
Run as a script, this file is that child: `python
tests/test_detect_memory.py DATASET` prints a JSON object with the
trial's frame bytes, the growth of peak RSS over detect_trials in bytes,
and the first box.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from camvitals.ingest import (FRAMES_FILE, MANIFEST_FILE, TrialEntry, TrialManifest,
                              write_manifest, write_ppm)

SRC = Path(__file__).resolve().parents[1] / "src"

# 1,000 frames of 64x64: 12 MiB of uint8 frames, 68 MiB of temporaries
# when the whole clip is converted at once
WIDTH, HEIGHT, FRAMES = 64, 64, 1000


def test_track_roi_peak_rss_grows_by_less_than_half_the_frames(tmp_path):
    frames = np.full((FRAMES, HEIGHT, WIDTH, 3), 20, dtype=np.uint8)
    frames[:, HEIGHT // 4:3 * HEIGHT // 4, WIDTH // 4:3 * WIDTH // 4] = 220
    write_ppm(tmp_path / FRAMES_FILE, frames)
    write_manifest(tmp_path / MANIFEST_FILE, TrialManifest(
        30.0, WIDTH, HEIGHT, [TrialEntry(1, "gaze", 3, 0, FRAMES, 1)]))
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["box"] == [0, 0, WIDTH, HEIGHT]
    assert result["frame_bytes"] == frames.nbytes
    # whole-clip conversion grew it by 68 MiB, frame by frame by 0.5 MiB
    assert result["growth"] < result["frame_bytes"] / 2, result


def _child(data):
    import resource

    from camvitals.detect import Cascade, Stage, Tree, detect_trials, track_roi
    from camvitals.geometry import Rect
    from camvitals.ingest import parse_manifest

    # one CPU: the whole pass runs in this process
    os.sched_getaffinity = lambda pid: {0}
    manifest = parse_manifest(Path(data) / MANIFEST_FILE)
    # a base window of the whole frame, and a tree that always passes: one
    # window and one hit per frame, so the scan costs little
    tree = Tree(rects=((Rect(0, 0, WIDTH, HEIGHT), 1.0),), threshold=0.0,
                pass_value=1.0, fail_value=1.0)
    cascade = Cascade(window_w=WIDTH, window_h=HEIGHT, stages=(Stage(0.5, (tree,)),))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = detect_trials(data, manifest, (0, 0, 0, 0), cascade, 1.25, 0, 0)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    boxes = track_roi(raw[1])
    # ru_maxrss is in KiB on Linux
    print(json.dumps({"frame_bytes": FRAMES * HEIGHT * WIDTH * 3,
                      "growth": (after - before) * 1024, "box": list(boxes[0])}))


if __name__ == "__main__":
    _child(sys.argv[1])
