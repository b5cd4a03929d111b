"""Memory guard for the detection pass: track_roi converts each frame to
gray as it scans it, so its peak RSS grows by about one frame's gray and
integral images, not by the 17 bytes per pixel of float64 and uint8
temporaries that converting the whole clip at once takes.

The pass runs in a child process, whose peak RSS is its own. Run as a
script, this file is that child: `python tests/test_detect_memory.py`
prints a JSON object with the clip's frame bytes, the growth of peak RSS
over track_roi in bytes, and the first box.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# 1,000 frames of 64x64: 12 MiB of uint8 frames, 68 MiB of temporaries
# when the whole clip is converted at once
WIDTH, HEIGHT, FRAMES = 64, 64, 1000


def test_track_roi_peak_rss_grows_by_less_than_half_the_frames():
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["box"] == [0, 0, WIDTH, HEIGHT]
    # whole-clip conversion grew it by 68 MiB, frame by frame by 0.5 MiB
    assert result["growth"] < result["frame_bytes"] / 2, result


def _child():
    import resource

    import numpy as np

    from camvitals.detect import Cascade, Stage, Tree, track_roi
    from camvitals.geometry import Rect
    from camvitals.ingest import VideoClip

    frames = np.full((FRAMES, HEIGHT, WIDTH, 3), 20, dtype=np.uint8)
    frames[:, HEIGHT // 4:3 * HEIGHT // 4, WIDTH // 4:3 * WIDTH // 4] = 220
    # a base window of the whole frame, and a tree that always passes: one
    # window and one hit per frame, so the scan costs little
    tree = Tree(rects=((Rect(0, 0, WIDTH, HEIGHT), 1.0),), threshold=0.0,
                pass_value=1.0, fail_value=1.0)
    cascade = Cascade(window_w=WIDTH, window_h=HEIGHT, stages=(Stage(0.5, (tree,)),))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    boxes = track_roi(VideoClip(frames, 30.0), cascade, 1.25, 0, 0)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux
    print(json.dumps({"frame_bytes": frames.nbytes, "growth": (after - before) * 1024,
                      "box": list(boxes[0])}))


if __name__ == "__main__":
    _child()
