"""Start-up cost: `import camvitals.cli` loads no numpy or scipy module,
`estimate` and `groundtruth` load only scipy's top level and its compiled
sosfilt loop, and only in the processes that filter (the parent of forked
trial workers loads no scipy module; a process that filters loads the loop
once), and `evaluate` loads none of the slow scipy subpackages and,
for a report of the paper protocol's size, no numpy or scipy at all; the
modules import numpy and scipy inside the functions that use them. None
of the three loads the XML parser, which only `convert-cascade` needs.
Each subcommand loads only the package modules it runs, and none loads
numpy.ma or statistics. Each case runs in a fresh interpreter, since this
process has long since imported numpy and scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from camvitals.cli import main
from camvitals.evaluation import EST_HEADER, GT_HEADER
from camvitals.ingest import write_csv
from camvitals.synth import SynthConfig, TrialPlan, synth_dataset

SRC = Path(__file__).resolve().parents[1] / "src"
# scipy subpackages whose imports cost up to seconds
SLOW_SUBPACKAGES = ("scipy.signal", "scipy.interpolate", "scipy.linalg", "scipy.special",
                    "scipy.stats", "scipy.fft", "scipy.ndimage")


def fresh_python(code):
    """Run `code` in a new interpreter that imports camvitals from SRC;
    return the JSON its last stdout line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    loaded = fresh_python(
        "import json, sys\n"
        "import camvitals.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n")
    assert loaded == []


def test_importing_the_cli_loads_no_numpy():
    loaded = fresh_python(
        "import json, sys\n"
        "import camvitals.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'numpy' or m.startswith('numpy.'))))\n")
    assert loaded == []


def estimate_and_groundtruth_args(tmp_path, trials=1):
    """`estimate` and `groundtruth` arguments over a synth dataset of 10 s
    trials in tmp_path, writing est.csv and gt.csv there."""
    data = tmp_path / "data"
    synth_dataset([TrialPlan(i, "respiration", 1, 10.0) for i in range(1, trials + 1)],
                  SynthConfig(width=32, height=32), data, seed=2,
                  rates={i: (72.0, 15.0) for i in range(1, trials + 1)})
    estimate = ["estimate", "--data", str(data), "--out", str(tmp_path / "est.csv"),
                "--roi", "manual:12,5,8,10", "--crop", "0,0,0,0"]
    groundtruth = ["groundtruth", "--data", str(data), "--out", str(tmp_path / "gt.csv")]
    return estimate, groundtruth


def test_estimate_and_groundtruth_load_no_scipy_subpackage(tmp_path):
    estimate, groundtruth = estimate_and_groundtruth_args(tmp_path)
    rcs, loaded = fresh_python(
        "import json, sys\n"
        "from camvitals import cli\n"
        f"rcs = [cli.main({estimate!r}), cli.main({groundtruth!r})]\n"
        "print(json.dumps([rcs, sorted(m for m in sys.modules\n"
        "                              if m == 'scipy' or m.startswith('scipy.'))]))\n")
    # what `import scipy` and the filter loop's own load bring in anyway
    floor = fresh_python(
        "import json, sys\n"
        "import scipy\n"
        "from camvitals import dsp\n"
        "dsp._sosfilt_kernel()\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n")
    assert rcs == [0, 0]
    assert [m for m in loaded
            if (m + ".").startswith(tuple(p + "." for p in SLOW_SUBPACKAGES))] == []
    assert set(loaded) <= set(floor)


def scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter after `code`, then
    the JSON of the name `result` that code binds."""
    return fresh_python(
        "import json, sys\n"
        f"{code}"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "                  result]))\n")


def test_check_bandpass_loads_no_scipy():
    loaded, result = scipy_modules_after(
        "from camvitals import dsp\n"
        "result = dsp.check_bandpass(dsp.BandpassSpec(0.7, 2.5), 30.0)\n")
    assert (loaded, result) == ([], None)


@pytest.fixture(scope="module")
def two_trials(tmp_path_factory):
    """{command: its arguments} over a dataset of two trials, enough for
    two trial workers."""
    return dict(zip(("estimate", "groundtruth"),
                    estimate_and_groundtruth_args(tmp_path_factory.mktemp("two"), trials=2)))


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_the_parent_of_forked_trials_loads_no_scipy(command, two_trials):
    loaded, (rc, workers, filtered) = scipy_modules_after(
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from camvitals import cli\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        f"rc = cli.main({two_trials[command]!r})\n"
        f"rows = open({two_trials[command][4]!r}).read().splitlines()[1:]\n"
        "result = [rc, len(forks), [row.split(',')[3] != '' for row in rows]]\n")
    assert (rc, workers, filtered) == (0, 2, [True, True])
    assert loaded == []


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_an_inline_run_loads_the_filter_loop_once(command, two_trials):
    _, (rc, loads, filter_calls) = scipy_modules_after(
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from camvitals import cli, dsp\n"
        "loads, calls = [], []\n"
        "load, bandpass = dsp._load_extension, dsp.bandpass\n"
        "dsp._load_extension = lambda *a: loads.append(a) or load(*a)\n"
        "dsp.bandpass = lambda *a: calls.append(a) or bandpass(*a)\n"
        f"rc = cli.main({two_trials[command]!r})\n"
        "result = [rc, len(loads), len(calls)]\n")
    assert (rc, loads) == (0, 1)
    assert filter_calls == 4   # two bands in each of two trials


def test_estimate_groundtruth_and_evaluate_load_no_xml_parser(tmp_path):
    estimate, groundtruth = estimate_and_groundtruth_args(tmp_path)
    evaluate = ["evaluate", "--estimates", str(tmp_path / "est.csv"),
                "--groundtruth", str(tmp_path / "gt.csv"), "--out", str(tmp_path / "report")]
    rcs, loaded = fresh_python(
        "import json, sys\n"
        "from camvitals import cli\n"
        f"rcs = [cli.main(args) for args in ({estimate!r}, {groundtruth!r}, {evaluate!r})]\n"
        "print(json.dumps([rcs, sorted(m for m in sys.modules\n"
        "                              if m == 'xml.etree' or m.startswith('xml.etree.'))]))\n")
    assert rcs == [0, 0, 0]
    assert loaded == []


def test_evaluate_loads_no_signal_stats_or_interpolate(tmp_path):
    est, gt = tmp_path / "est.csv", tmp_path / "gt.csv"
    # four scored trials with distinct skin gray, so the skin regression runs
    write_csv(est, EST_HEADER, [(i, "gaze", 3, 70.0 + i, 15.0, 100.0 + 10 * i, "")
                                for i in range(1, 5)])
    write_csv(gt, GT_HEADER, [(i, "gaze", 3, 71.0, 15.5 + i, "") for i in range(1, 5)])
    rc, loaded = fresh_python(
        "import json, sys\n"
        "from camvitals import cli\n"
        f"rc = cli.main(['evaluate', '--estimates', {str(est)!r},\n"
        f"               '--groundtruth', {str(gt)!r}, '--out', {str(tmp_path / 'report')!r}])\n"
        "print(json.dumps([rc, [m for m in ('scipy.signal', 'scipy.stats', 'scipy.interpolate')\n"
        "                       if m in sys.modules]]))\n")
    assert rc == 0
    assert loaded == []
    assert (tmp_path / "report" / "summary.csv").read_text().count("skin_regression") == 1


def evaluate_of_the_paper_protocol_size(tmp_path, package):
    """(exit code, loaded modules of `package`) of a fresh interpreter's
    `evaluate` of 80 scored trials with distinct skin gray: a 78-df t
    quantile."""
    est, gt = tmp_path / "est.csv", tmp_path / "gt.csv"
    write_csv(est, EST_HEADER, [(i, "gaze", 3, 70.0 + (i % 7), 15.0, 40.0 + 2 * i, "")
                                for i in range(1, 81)])
    write_csv(gt, GT_HEADER, [(i, "gaze", 3, 71.0, 15.5, "") for i in range(1, 81)])
    rc, loaded = fresh_python(
        "import json, sys\n"
        "from camvitals import cli\n"
        f"rc = cli.main(['evaluate', '--estimates', {str(est)!r},\n"
        f"               '--groundtruth', {str(gt)!r}, '--out', {str(tmp_path / 'report')!r}])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules\n"
        f"                             if m.split('.')[0] == {package!r})]))\n")
    assert (tmp_path / "report" / "summary.csv").read_text().count("skin_regression") == 1
    return rc, loaded


def test_evaluate_of_the_paper_protocol_size_loads_no_scipy(tmp_path):
    assert evaluate_of_the_paper_protocol_size(tmp_path, "scipy") == (0, [])


def test_evaluate_of_the_paper_protocol_size_loads_no_numpy(tmp_path):
    assert evaluate_of_the_paper_protocol_size(tmp_path, "numpy") == (0, [])


# package modules that a subcommand does not run, and so must not load
NOT_RUN = {
    "synth": ("detect", "dsp", "config", "vitals", "evaluation", "groundtruth"),
    "estimate": ("detect", "synth", "groundtruth"),   # with a manual ROI
    "groundtruth": ("detect", "synth", "vitals"),
    "evaluate": ("detect", "dsp", "config", "synth", "vitals", "groundtruth"),
}


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """{subcommand: its arguments} over a one-trial synth dataset, with the
    est.csv and gt.csv that `evaluate` reads already written."""
    tmp = tmp_path_factory.mktemp("trip")
    estimate, groundtruth = estimate_and_groundtruth_args(tmp)
    assert main(estimate) == main(groundtruth) == 0
    return {"synth": ["synth", "--out", str(tmp / "synth"), "--duration", "2",
                      "--width", "32", "--height", "32"],
            "estimate": estimate, "groundtruth": groundtruth,
            "evaluate": ["evaluate", "--estimates", str(tmp / "est.csv"),
                         "--groundtruth", str(tmp / "gt.csv"), "--out", str(tmp / "report")]}


@pytest.mark.parametrize("command", sorted(NOT_RUN))
def test_each_subcommand_loads_only_what_it_runs(command, round_trip):
    rc, loaded = fresh_python(
        "import json, sys\n"
        "from camvitals import cli\n"
        f"rc = cli.main({round_trip[command]!r})\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n")
    assert rc == 0
    assert [m for m in NOT_RUN[command] if f"camvitals.{m}" in loaded] == []
    # the first np.median or np.percentile call imports numpy.ma, and
    # statistics imports fractions and decimal; camvitals.series stands in
    assert [m for m in ("numpy.ma", "statistics") if m in loaded] == []
