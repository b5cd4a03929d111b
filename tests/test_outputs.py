"""The pipeline's output bytes, frozen, and the same on every CPU setting.

One small dataset is rendered once: four paper-protocol trials at 32x32,
and one 24x24 trial with a cascade matched to its face. Then `estimate
--roi --plots`, `estimate --cascade`, `groundtruth` and `evaluate` run in
child processes under each setting of `cpu_settings`, which choose
OpenBLAS's kernel and numpy's SIMD loops for the process. Every output
file and the commands' stdout must be byte-identical across the settings,
and equal to the outputs frozen below: the CSVs and stdout as text, so
that a mismatch names its first differing row and column, the SVGs by
SHA-256.

The dataset is rendered in the test process, and its physio.csv depends
on numpy's `exp`, whose AVX-512 and AVX2 loops round differently: 31 of
its rows differ between the two, though gt.csv does not, so the frozen
bytes also held with numpy's AVX-512 dispatch turned off (README,
"Outputs and the CPU"). Run as a script, this file is one child: `python
tests/test_outputs.py PAPER CASCADE` runs the four commands from the
working directory.
"""

import csv
import hashlib
import os
import platform
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROI = "manual:12,5,8,10"   # the synthetic face box at 32x32
NOCROP = "0,0,0,0"
# numpy's AVX-512 dispatch targets; disabled, numpy takes its AVX2 loops
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def cpu_settings():
    """{name: environment variables} of the settings this CPU can run."""
    from numpy._core._multiarray_umath import __cpu_features__ as has

    settings = {"default": {}}
    if platform.machine() in ("x86_64", "AMD64"):
        if has.get("AVX2") and has.get("FMA3"):
            settings["haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
        settings["prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}
        avx512 = [t for t in AVX512_TARGETS if has.get(t)]
        if avx512:
            settings["no-avx512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    return settings


def commands(paper, cascade):
    """The argument lists one child runs, output paths relative to its
    working directory."""
    return [
        ["estimate", "--data", paper, "--out", "est.csv", "--roi", ROI, "--crop", NOCROP,
         "--plots", "plots"],
        ["estimate", "--data", cascade, "--out", "est_cascade.csv", "--crop", NOCROP,
         "--cascade", f"{cascade}/cascade.json"],
        ["groundtruth", "--data", paper, "--out", "gt.csv"],
        ["evaluate", "--estimates", "est.csv", "--groundtruth", "gt.csv", "--out", "report"],
    ]


# the default setting's outputs; the CSVs and stdout as text
FROZEN_TEXT = {
    "est.csv": """\
trial_id,condition,task,hr_est,rr_est,skin_gray,flags
1,respiration,1,66.55944933854246,17.75646410488356,162.66097222222223,
2,respiration,2,77.3465069661456,21.819207798551485,162.66861111111112,hold_breath_excluded
3,workout,3,128.1960999855747,18.928640803052975,162.6562962962963,
4,gaze,4,63.08460909736783,16.09568194890847,162.66856481481483,
""",
    "est_cascade.csv": """\
trial_id,condition,task,hr_est,rr_est,skin_gray,flags
1,respiration,1,72.21763049664844,15.73556203617479,113.90222222222222,
""",
    "gt.csv": """\
trial_id,condition,task,hr_gt,rr_gt,flags
1,respiration,1,66.29629931174657,17.23526946061716,
2,respiration,2,75.32882606090992,,hold_breath_excluded
3,workout,3,128.03354805095694,19.208250257803705,
4,gaze,4,62.60396634695256,16.40331180391063,
""",
    "report/summary.csv": """\
kind,signal,condition,n,rmse,median,q1,q3,whisker_lo,whisker_hi,n_outliers,slope,intercept,ci95_slope,ci95_intercept
condition_stats,hr,respiration,2,1.438798834437141,1.1404154660157886,0.7017827464058435,1.5790481856257337,0.2631500267958984,2.017680905235679,0,,,,
condition_stats,hr,workout,1,0.16255193461776685,0.16255193461776685,0.16255193461776685,0.16255193461776685,0.16255193461776685,0.16255193461776685,0,,,,
condition_stats,hr,gaze,1,0.4806427504152708,0.4806427504152708,0.4806427504152708,0.4806427504152708,0.4806427504152708,0.4806427504152708,0,,,,
condition_stats,rr,respiration,1,0.5211946442663979,0.5211946442663979,0.5211946442663979,0.5211946442663979,0.5211946442663979,0.5211946442663979,0,,,,
condition_stats,rr,workout,1,0.2796094547507302,0.2796094547507302,0.2796094547507302,0.2796094547507302,0.2796094547507302,0.2796094547507302,0,,,,
condition_stats,rr,gaze,1,0.30762985500215834,0.30762985500215834,0.30762985500215834,0.30762985500215834,0.30762985500215834,0.30762985500215834,0,,,,
skin_regression,hr,all,4,,,,,,,,96.22725295230127,-15651.941446119385,323.21802112348684,52575.81051945781
""",
    "report/trials.csv": """\
trial_id,condition,task,hr_est,hr_gt,rr_est,rr_gt,skin_gray,flags
1,respiration,1,66.55944933854246,66.29629931174657,17.75646410488356,17.23526946061716,162.66097222222223,
2,respiration,2,77.3465069661456,75.32882606090992,21.819207798551485,,162.66861111111112,hold_breath_excluded
3,workout,3,128.1960999855747,128.03354805095694,18.928640803052975,19.208250257803705,162.6562962962963,
4,gaze,4,63.08460909736783,62.60396634695256,16.09568194890847,16.40331180391063,162.66856481481483,
""",
    "stdout": """\
trial 1: hr=66.56 rr=17.76 flags=
trial 2: hr=77.35 rr=21.82 flags=hold_breath_excluded
trial 3: hr=128.20 rr=18.93 flags=
trial 4: hr=63.08 rr=16.10 flags=
estimated 4/4 trials -> est.csv
trial 1: hr=72.22 rr=15.74 flags=
estimated 1/1 trials -> est_cascade.csv
trial 1: hr_gt=66.30 rr_gt=17.24
trial 2: hr_gt=75.33 rr_gt=excluded
trial 3: hr_gt=128.03 rr_gt=19.21
trial 4: hr_gt=62.60 rr_gt=16.40
ground truth for 4 trials -> gt.csv
hr respiration: n=2 rmse=1.439 median_abs_err=1.140
hr workout: n=1 rmse=0.163 median_abs_err=0.163
hr gaze: n=1 rmse=0.481 median_abs_err=0.481
rr respiration: n=1 rmse=0.521 median_abs_err=0.521
rr workout: n=1 rmse=0.280 median_abs_err=0.280
rr gaze: n=1 rmse=0.308 median_abs_err=0.308
skin regression: slope=96.22725 +- 323.21802 intercept=-15651.941
report written to report
""",
}

FROZEN_SHA256 = {
    "plots/signals_trial_001.svg": "4cf4c81056927e0d5cced4b7ddf0a38ddfaae15566bb8534b6dcc83515b221f7",
    "plots/signals_trial_002.svg": "370be423e4451ba3cf4bbbac1773754959bfd198f4524bc1b12957e8a6dcbc5d",
    "plots/signals_trial_003.svg": "4347dccb58e11eb412118c69483a2a6bd5441b7d2a64567fe3ae8a886717de40",
    "plots/signals_trial_004.svg": "ec0b841c287ff3f43b85ad0e78142fa54ca2d8457a930fe2cba17839145debf7",
    "report/hr_boxplot.svg": "2babad39af29ed63725faae6b883270c065be691d5aab0adc6fdb486b7d4952c",
    "report/rr_boxplot.svg": "39ada608390537714350d720022ecf36a808edb3dfe61c00bd2db3444bcad4a5",
    "report/skin_scatter.svg": "4a75194403fad4d789eb1ca8b3b772708b75518931f5e2ca5a98c8bc63253f6a",
}


def face_cascade(width, height):
    """A two-stage cascade that finds the rendered face, widened by a
    one-pixel ring, in noise-free 24x24 frames: a template (face interior
    brighter than the ring), then an off-centre patch that rejects the
    windows around it."""
    from camvitals.detect import Cascade, Stage, Tree
    from camvitals.geometry import Rect
    from camvitals.scene import scene_geometry

    face, _ = scene_geometry(width, height)
    win = Rect(0, 0, face.w + 2, face.h + 2)
    template = Tree(rects=((win, -1.0), (Rect(1, 1, face.w, face.h), 1.0)),
                    threshold=21.4, pass_value=1.0, fail_value=0.0)
    patch = Tree(rects=((win, 1.0), (Rect(2, 3, 3, 4), -1.0)),
                 threshold=-10.6, pass_value=1.0, fail_value=0.0)
    return Cascade(window_w=win.w, window_h=win.h,
                   stages=(Stage(0.5, (template,)), Stage(0.5, (patch,))))


def run_settings(root):
    """{setting: {relative path: bytes}} of every output of every setting,
    the datasets rendered under the directory root."""
    from camvitals.detect import save_cascade
    from camvitals.synth import SynthConfig, TrialPlan, synth_dataset

    synth_dataset([TrialPlan(1, "respiration", 1, 9.0), TrialPlan(2, "respiration", 2, 9.0),
                   TrialPlan(3, "workout", 3, 9.0), TrialPlan(4, "gaze", 4, 9.0)],
                  SynthConfig(width=32, height=32, noise_sigma=1.0), root / "paper", seed=7)
    synth_dataset([TrialPlan(1, "respiration", 1, 9.0)],
                  SynthConfig(width=24, height=24, noise_sigma=0.0), root / "cascade", seed=7,
                  rates={1: (72.0, 15.0)})
    save_cascade(root / "cascade" / "cascade.json", face_cascade(24, 24))

    children = {}
    for name, extra in cpu_settings().items():
        cwd = root / "out" / name
        cwd.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", **extra)
        children[name] = (cwd, subprocess.Popen(
            [sys.executable, __file__, "../../paper", "../../cascade"], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    out = {}
    for name, (cwd, child) in children.items():
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, f"{name}: exit {child.returncode}\n{stderr.decode()}"
        files = {"stdout": stdout}
        files.update({str(p.relative_to(cwd)): p.read_bytes()
                      for p in sorted(cwd.rglob("*")) if p.is_file()})
        out[name] = files
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_settings(tmp_path_factory.mktemp("outputs"))


def first_difference(path, got, want):
    """Where the text `got` of the output `path` first differs from `want`:
    for a CSV, "row R (trial_id T), column C: got G, want W"."""
    if not path.endswith(".csv"):
        lines = enumerate(zip_longest(got.splitlines(), want.splitlines()), 1)
        return next((f"line {i}: got {g!r}, want {w!r}" for i, (g, w) in lines if g != w),
                    "the same lines, other line ends")
    got_rows, want_rows = (list(csv.reader(t.splitlines())) for t in (got, want))
    header = want_rows[0]
    for r, (g, w) in enumerate(zip_longest(got_rows, want_rows, fillvalue=[])):
        for c, (gc, wc) in enumerate(zip_longest(g, w)):
            if gc != wc:
                column = header[c] if c < len(header) else c + 1
                key = f"{header[0]} {w[0]}" if w else "not frozen"
                return f"row {r} ({key}), column {column}: got {gc!r}, want {wc!r}"
    return "the same cells, other bytes"


def test_outputs_do_not_depend_on_the_cpu(outputs):
    default = outputs["default"]
    for name, files in outputs.items():
        assert sorted(files) == sorted(default), name
        differ = [path for path in default if files[path] != default[path]]
        assert not differ, f"{name} differs from default in {differ}"


def test_outputs_are_the_frozen_bytes(outputs):
    files = outputs["default"]
    assert set(files) == set(FROZEN_TEXT) | set(FROZEN_SHA256)
    problems = []
    for path, want in FROZEN_TEXT.items():
        got = files[path].decode("ascii")
        if got != want:
            problems.append(f"{path}: {first_difference(path, got, want)}")
    for path, want in FROZEN_SHA256.items():
        got = hashlib.sha256(files[path]).hexdigest()
        if got != want:
            problems.append(f"{path}: sha256 {got}, want {want}")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    from camvitals.cli import main

    for argv in commands(*sys.argv[1:3]):
        if main(argv) != 0:
            sys.exit(f"{' '.join(argv)} failed")
