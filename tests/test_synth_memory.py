"""Memory guard for the renderer: synth_clip renders a clip in float64
blocks of a bounded size, so a clip whose float64 frames alone would pass
the address-space limit still renders, and `synth` sizes that cannot be
allocated at all end in one error line that names the frame count and
leave no file in --out.

The checks run in one child process under an address-space limit, so
that a renderer that allocates the whole clip as float64 fails the test
instead of filling the machine. Run as a script, this file is that child:
`python tests/test_synth_memory.py OUT_DIR` prints a JSON object with the
rendered clip's shape and dtype and, for each `synth` call of SYNTH_CALLS,
[exit code, stderr, files in --out].
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_AS_BYTES = 1 << 30

# a noise-free 128x128 clip of 4,000 frames: 1.57 GB as float64, 197 MB as
# uint8
BIG_CLIP = dict(width=128, height=128, fps=30.0, duration=4000 / 30.0)

# `synth` arguments past --out, and the error line each must print
SYNTH_CALLS = [
    (["--width", "100000", "--height", "100000", "--duration", "1"],
     r"error: 1 s at 30 fps is 30 frames of 100000x100000, more than fit in memory"),
    (["--duration", "1e12"],
     r"error: 1e\+12 s at 30 fps is 3e\+13 frames of 64x64, more than fit in memory"),
    (["--fps", "1e308", "--duration", "1"],
     r"error: 1 s at 1e\+308 fps is 1e\+308 frames of 64x64, more than fit in memory"),
    (["--fps", "inf", "--duration", "1"],
     r"error: fps must be positive and duration non-negative, both finite"),
    (["--duration", "nan"],
     r"error: fps must be positive and duration non-negative, both finite"),
    (["--hr", "500"], r"error: hr_bpm 500.0 outside \[30, 220\]"),
]


def test_renderer_stays_inside_an_address_space_limit(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["clip"] == [[4000, 128, 128, 3], "uint8", True]
    for (args, want), (rc, err, files) in zip(SYNTH_CALLS, result["synth"], strict=True):
        assert rc == 1, (args, err)
        assert re.fullmatch(want + "\n", err), (args, err)
        assert files == [], (args, files)


def _child(out_dir):
    import contextlib
    import io
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
    import numpy as np

    from camvitals.cli import main
    from camvitals.synth import SynthConfig, synth_clip

    frames = synth_clip(SynthConfig(**BIG_CLIP))[0].frames
    # noise-free, so the first 2 s equal a 2 s clip of the same scene
    head = synth_clip(SynthConfig(**dict(BIG_CLIP, duration=2.0)))[0].frames
    clip = [list(frames.shape), str(frames.dtype), bool(np.array_equal(frames[:60], head))]
    del frames

    calls = []
    out = Path(out_dir) / "ds"
    for args in SYNTH_CALLS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["synth", "--out", str(out), *args[0]])
        calls.append([rc, err.getvalue(), sorted(os.listdir(out)) if out.exists() else []])
    print(json.dumps({"clip": clip, "synth": calls}))


if __name__ == "__main__":
    _child(sys.argv[1])
