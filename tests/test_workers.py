"""Trials in worker processes: ingest.in_order and the commands that run
their trials through it. The outputs must not depend on the number of
workers, a worker that dies must end its command with one error line,
and no worker may outlive the call that forked it."""

import os
import pickle
import shutil
import signal

import numpy as np
import pytest
from conftest import assert_ended, log_line, logged, make_toy_cascade, wait_for_lines

from camvitals import cli, synth
from camvitals.cli import main
from camvitals.detect import save_cascade
from camvitals.ingest import MANIFEST_FILE, TrialEntry, _frames_file, in_order, parse_manifest
from camvitals.synth import SynthConfig, TrialPlan, synth_clip, synth_dataset

ROI = "manual:12,5,8,10"   # the synthetic face box at 32x32
NOCROP = "0,0,0,0"
ENTRIES = [TrialEntry(i, "gaze", 3, 10 * i, 10, i) for i in range(1, 7)]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# ------------------------- in_order -------------------------

@pytest.mark.parametrize("how", ["end", "failing trial", "closed part-way"])
def test_no_worker_outlives_in_order(how, tmp_path, monkeypatch):
    _cpus(monkeypatch, 4)
    log = tmp_path / "pids"

    def square(entry):
        log_line(log, os.getpid())
        # every worker has begun before trial 1 returns
        wait_for_lines(log, 4, "four workers did not start")
        if how == "failing trial" and entry.trial_id == 3:
            raise ValueError("trial 3 fails")
        return entry.trial_id ** 2

    results = in_order(square, ENTRIES)
    if how == "end":
        assert list(results) == [1, 4, 9, 16, 25, 36]
    elif how == "failing trial":
        assert [next(results), next(results)] == [1, 4]
        with pytest.raises(ValueError, match="^trial 3 fails$"):
            next(results)
    else:
        assert next(results) == 1
        results.close()
    pids = {int(pid) for pid, in logged(log)}
    assert len(pids) == 4
    assert_ended(pids)


@pytest.mark.parametrize("cpus", [1, None], ids=["one CPU", "no sched_getaffinity"])
def test_in_order_runs_inline_without_a_second_cpu(cpus, tmp_path, monkeypatch):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        _cpus(monkeypatch, cpus)
    log = tmp_path / "pids"

    def trial_id(entry):
        log_line(log, os.getpid())
        return entry.trial_id

    assert list(in_order(trial_id, ENTRIES)) == [1, 2, 3, 4, 5, 6]
    assert {int(pid) for pid, in logged(log)} == {os.getpid()}


@pytest.mark.parametrize("end, reason", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
    (lambda: os._exit(3), "exit status 3"),
], ids=["killed", "exited"])
def test_a_worker_that_ends_early_names_its_trial(end, reason, monkeypatch):
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def ending_at_trial_4(entry):
        if entry.trial_id == 4:
            assert os.getpid() != parent, "trial 4 ran in the test process"
            end()
        return entry.trial_id

    results = in_order(ending_at_trial_4, ENTRIES)
    assert [next(results), next(results), next(results)] == [1, 2, 3]
    with pytest.raises(ChildProcessError,
                       match=f"^trial 4: worker process ended without its result \\({reason}\\)$"):
        next(results)


def test_a_worker_that_ends_part_way_through_a_result_names_its_trial(monkeypatch):
    """Trial 2's worker writes half of its result's pickle, then dies in
    trial 4: the pipe ends inside the pickle."""
    _cpus(monkeypatch, 2)
    parent = os.getpid()
    dumps = pickle.dumps

    def half_of_trial_2(outcome, protocol):
        message = dumps(outcome, protocol)
        if os.getpid() != parent and outcome == (True, [2] * 50):
            return message[:len(message) // 2]
        return message

    def killed_at_trial_4(entry):
        if entry.trial_id == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        return [entry.trial_id] * 50

    monkeypatch.setattr(pickle, "dumps", half_of_trial_2)
    results = in_order(killed_at_trial_4, ENTRIES)
    assert next(results) == [1] * 50
    with pytest.raises(ChildProcessError,
                       match="^trial 2: worker process ended without its result \\(signal 9\\)$"):
        next(results)


def test_a_result_that_does_not_pickle_is_raised_at_its_trial(monkeypatch):
    _cpus(monkeypatch, 2)
    results = in_order(lambda entry: entry.trial_id if entry.trial_id != 2 else (lambda: 2),
                       ENTRIES)
    assert next(results) == 1
    with pytest.raises(Exception, match="pickle"):
        next(results)


# ------------------------- a worker killed mid-command -------------------------

def _killing(fn, when, log):
    """fn, except that a call for which when(*args) holds kills its worker
    process; each call logs its pid to `log`."""
    parent = os.getpid()

    def wrapper(*args, **kwargs):
        log_line(log, os.getpid())
        if when(*args, **kwargs):
            assert os.getpid() != parent, "the trial ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)
    return wrapper


FOUR_TRIALS = [TrialPlan(i, "gaze", 3, 1.0) for i in range(1, 5)]
KILLED = "error: trial 2: worker process ended without its result (signal 9)\n"


def test_estimate_with_a_killed_worker_prints_one_error_line(tmp_path, monkeypatch, capsys):
    data = tmp_path / "ds"
    manifest, _ = synth_dataset(FOUR_TRIALS, SynthConfig(width=32, height=32), data, seed=3)
    log = tmp_path / "pids"
    monkeypatch.setattr(cli, "read_frame_range", _killing(
        cli.read_frame_range, lambda d, m, start, n: start == manifest.entries[1].start_frame,
        log))
    _cpus(monkeypatch, 2)
    capsys.readouterr()
    assert main(["estimate", "--data", str(data), "--out", str(tmp_path / "est.csv"),
                 "--roi", ROI, "--crop", NOCROP]) == 1
    captured = capsys.readouterr()
    assert captured.out == "trial 1: signal of 30 samples too short for padding of 21 (too_short)\n"
    assert captured.err == KILLED
    assert not (tmp_path / "est.csv").exists()
    assert_ended({int(pid) for pid, in logged(log)})


def test_synth_with_a_killed_worker_prints_one_error_line(tmp_path, monkeypatch, capsys):
    log = tmp_path / "pids"
    monkeypatch.setattr(synth, "paper_protocol", lambda seed: FOUR_TRIALS)
    monkeypatch.setattr(synth, "synth_clip",
                        _killing(synth_clip, lambda cfg: cfg.seed == 7 + 2, log))
    _cpus(monkeypatch, 2)
    out = tmp_path / "ds"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--protocol", "paper", "--seed", "7",
                 "--width", "32", "--height", "32"]) == 1
    assert capsys.readouterr() == ("", KILLED)
    assert list(out.iterdir()) == []
    assert_ended({int(pid) for pid, in logged(log)})


# ------------------------- outputs at 1, 2 and 4 workers -------------------------

@pytest.fixture(scope="module")
def mixed_dataset(tmp_path_factory):
    """Seven trials of mixed lengths: trial 3 too short for either window,
    and trial 5 flat gray, so the toy cascade finds no face in it."""
    out = tmp_path_factory.mktemp("mixed")
    data = out / "ds"
    plans = [TrialPlan(1, "respiration", 1, 9.0), TrialPlan(2, "respiration", 2, 10.0),
             TrialPlan(3, "workout", 7, 3.0), TrialPlan(4, "gaze", 3, 9.5),
             TrialPlan(5, "gaze", 4, 9.0), TrialPlan(6, "gaze", 5, 11.0),
             TrialPlan(7, "gaze", 6, 9.0)]
    manifest, _ = synth_dataset(plans, SynthConfig(width=32, height=32, noise_sigma=1.0),
                                data, seed=8)
    path, header, record = _frames_file(data, manifest)
    flat = manifest.entries[4]
    frames = np.memmap(path, dtype=np.uint8, mode="r+").reshape(-1, record)
    frames[flat.start_frame:flat.start_frame + flat.frame_count, len(header):] = 100
    frames.flush()
    del frames
    save_cascade(out / "cascade.json", make_toy_cascade())
    (out / "scan.cfg").write_text("scale_factor = 2.0\nmin_size = 16\n")
    return data


def _outputs(data, out, capsys):
    """{name: bytes} of estimate --roi, estimate --cascade and groundtruth
    on `data`: each command's exit code, stdout and stderr, and every file
    it wrote into `out`."""
    common = ["--data", str(data), "--crop", NOCROP]
    runs = {"roi": ["estimate", *common, "--roi", ROI, "--plots", str(out / "roi_plots")],
            # a sparse scan that still finds the face: 82 windows a frame
            "cascade": ["estimate", *common, "--cascade", str(data.parent / "cascade.json"),
                        "--config", str(data.parent / "scan.cfg"),
                        "--plots", str(out / "cascade_plots")],
            "gt": ["groundtruth", "--data", str(data)]}
    got = {}
    for name, argv in runs.items():
        capsys.readouterr()
        rc = main(argv + ["--out", str(out / f"{name}.csv")])
        captured = capsys.readouterr()
        got[name] = f"{rc}\n{captured.out}{captured.err}".replace(str(out), "OUT")
    got.update({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()})
    return got


def test_outputs_do_not_depend_on_the_worker_count(mixed_dataset, tmp_path, monkeypatch,
                                                   capsys):
    outputs = {}
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        (tmp_path / str(cpus)).mkdir()
        outputs[cpus] = _outputs(mixed_dataset, tmp_path / str(cpus), capsys)
    assert outputs[2] == outputs[1]
    assert outputs[4] == outputs[1]
    # the dataset reaches every outcome the commands print
    lines = outputs[1]["cascade"].splitlines()
    assert lines[3] == "trial 3: signal of 90 samples shorter than window 256 (too_short)"
    assert lines[5] == "trial 5: no face found (roi_failure)"
    assert lines[-1] == "estimated 5/7 trials -> OUT/cascade.csv"
    assert outputs[1]["gt"].splitlines()[3].endswith("(too_short)")
    # a plot for each trial with a trace: trial 3 has none, nor trial 5 by cascade
    assert len([p for p in outputs[1] if p.endswith(".svg")]) == 6 + 5


def test_a_bad_record_in_trial_3_stops_every_worker_count_alike(mixed_dataset, tmp_path,
                                                                 monkeypatch, capsys):
    data = tmp_path / "ds"
    shutil.copytree(mixed_dataset, data)
    manifest = parse_manifest(data / MANIFEST_FILE)
    path, _, record = _frames_file(data, manifest)
    with open(path, "r+b") as f:
        f.seek((manifest.entries[2].start_frame + 7) * record)
        f.write(b"P6\n33")
    seen = set()
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        capsys.readouterr()
        assert main(["estimate", "--data", str(data), "--out", str(tmp_path / "est.csv"),
                     "--roi", ROI, "--crop", NOCROP]) == 1
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["trial 1",
                                                                               "trial 2"]
        assert captured.err.startswith(f"error: trial 3: {path}: frame ")
        seen.add((captured.out, captured.err))
    assert len(seen) == 1
