"""Settings fuzz: every PipelineConfig key at the extreme values of its
type and at each README bound plus and minus one step, through `estimate
--roi` and `groundtruth`, and the detection keys also through `estimate
--cascade`, on a seeded 2-trial dataset whose trials reach every stage.

Each call must exit 0 or 1 with no traceback. A failing call must name
the config file before any trial line, unless its outcome is one of the
per-trial ones in PER_TRIAL_OUTCOMES, each listed with the README
sentence that documents it.

The calls run in one child process under an address-space limit and a
per-call alarm, so that a missed check fails the test instead of filling
the machine or hanging. Run as a script, this file is that child:
`python tests/test_settings_fuzz.py JOBS.json` reads a JSON list of
argument lists and prints a JSON list of [exit code, stdout, stderr].
"""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"
ROI = "manual:12,5,8,10"   # the synthetic face box at 32x32
CHILD_AS_BYTES = 1 << 30
CALL_SECONDS = 5.0
DETECTION_KEYS = ("scale_factor", "min_neighbors", "min_size")

# README bounds of each key: the test tries each bound and one step to
# either side (the next float, or the next int)
BOUNDS = {
    "scale_factor": [1.0],
    "ecg_percentile": [0.0, 100.0],
    "ecg_refractory_s": [0.0],
    "ecg_threshold_factor": [0.0],
    "min_neighbors": [0],
    "min_size": [0],
    "filter_order": [1, 100],
    "video_fft": [65536],
    "physio_fft": [65536],
}

# the documented outcomes that belong to the trials, not to a setting:
# the last stderr line, and the README sentence that documents it
PER_TRIAL_OUTCOMES = {
    r"error: trial \d+: need >= 3 peaks, got \d": (
        "the refractory span keeps only the segment's largest peak candidate, "
        "which is too few peaks for a rate"),
    r"error: trial \d+: no ECG peaks found": (
        "An `ecg_threshold_factor` so large that no slope of a trial's detrended "
        "ECG exceeds the threshold finds no peak"),
    r"error: (no trial gave an estimate|no trial gave a reference rate"
    r"|face detection failed on every trial)": (
        "They exit 1 only when no trial gives a result."),
}


def _values(key, kind):
    """The strings the fuzz writes for a key of type kind."""
    smallest = "5e-324" if kind is float else "1"
    out = ["0", smallest, "1.000000001", "1e300", str(2 ** 63)]
    for bound in BOUNDS.get(key, []):
        if kind is float:
            steps = [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
        else:
            steps = [bound - 1, bound, bound + 1]
        out += [repr(v) for v in steps]
    return list(dict.fromkeys(out))


def _jobs(data, cascade, tmp_path):
    """(description, argv, config path) of every fuzz call."""
    from camvitals.config import PipelineConfig
    jobs = []
    for f in fields(PipelineConfig):
        for value in _values(f.name, f.type):
            cfg = tmp_path / f"{f.name}-{len(jobs)}.cfg"
            # zero crop margins, so that the 32x32 frames keep every pixel
            cfg.write_text("crop_left = 0\ncrop_right = 0\ncrop_top = 0\ncrop_bottom = 0\n"
                           f"{f.name} = {value}\n")
            out = str(tmp_path / "out.csv")
            common = ["--data", str(data), "--out", out, "--config", str(cfg)]
            runs = [("estimate --roi", ["estimate", *common, "--roi", ROI]),
                    ("groundtruth", ["groundtruth", *common])]
            if f.name in DETECTION_KEYS:
                runs.append(("estimate --cascade", ["estimate", *common, "--cascade", cascade]))
            jobs += [(f"{command}: {f.name} = {value}", argv, cfg) for command, argv in runs]
    return jobs


def test_every_setting_runs_or_fails_before_trial_1(tmp_path):
    from camvitals.detect import Cascade, Stage, Tree, save_cascade
    from camvitals.geometry import Rect
    from camvitals.synth import SynthConfig, TrialPlan, synth_dataset

    # 9 s trials: 270 frames and 1152 physio samples, past both windows
    data = tmp_path / "ds"
    synth_dataset([TrialPlan(1, "respiration", 1, 9.0), TrialPlan(2, "gaze", 3, 9.0)],
                  SynthConfig(width=32, height=32), data, seed=19,
                  rates={1: (72.0, 15.0), 2: (84.0, 18.0)})
    # a 28x28 window that every window passes: 29 windows a frame
    tree = Tree(rects=((Rect(0, 0, 28, 28), 1.0),), threshold=0.0,
                pass_value=1.0, fail_value=0.0)
    cascade = tmp_path / "cascade.json"
    save_cascade(cascade, Cascade(window_w=28, window_h=28, stages=(Stage(0.5, (tree,)),)))

    jobs = _jobs(data, str(cascade), tmp_path)
    job_file = tmp_path / "jobs.json"
    job_file.write_text(json.dumps([argv for _, argv, _ in jobs]))
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, str(job_file)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)

    failures = []
    for (what, _, cfg), (rc, out, err) in zip(jobs, results, strict=True):
        lines = err.splitlines()
        if rc == 0:
            ok = err == ""
        elif rc == 1 and len(lines) == 1:
            ok = (lines[0].startswith(f"error: {cfg}:") and out == "") or any(
                re.fullmatch(p, lines[0]) for p in PER_TRIAL_OUTCOMES)
        else:
            ok = False
        if not ok:
            failures.append(f"{what}: exit {rc}\n{out}{err}")
    assert not failures, "\n".join(failures)
    readme = " ".join(README.read_text().split())
    for sentence in PER_TRIAL_OUTCOMES.values():
        assert sentence in readme


def _run_calls(job_file):
    """Run each argument list of job_file through cli.main in this process;
    print [exit code, stdout, stderr] of each, as JSON. A call that raises
    gets the code "traceback", one that runs past CALL_SECONDS "timeout"."""
    import contextlib
    import io
    import resource
    import signal
    import traceback
    import warnings

    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
    from camvitals.cli import main

    class Timeout(BaseException):
        pass

    def alarm(*_):
        raise Timeout

    signal.signal(signal.SIGALRM, alarm)
    warnings.simplefilter("always")
    results = []
    for argv in json.loads(Path(job_file).read_text()):
        out, err = io.StringIO(), io.StringIO()
        try:
            signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Timeout:
            rc = "timeout"
        except BaseException:
            rc = "traceback"
            err.write(traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append([rc, out.getvalue(), err.getvalue()])
    print(json.dumps(results))


if __name__ == "__main__":
    _run_calls(sys.argv[1])
