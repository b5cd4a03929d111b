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

from camvitals import cli, detect, groundtruth, synth
from camvitals.cli import main
from camvitals.detect import detect_trials, save_cascade
from camvitals.ingest import (MANIFEST_FILE, TrialEntry, _frames_file, in_order, parse_manifest,
                              write_manifest)
from camvitals.synth import SynthConfig, TrialPlan, synth_clip, synth_dataset

ROI = "manual:12,5,8,10"   # the synthetic face box at 32x32
NOCROP = "0,0,0,0"
ENTRIES = [TrialEntry(i, "gaze", 3, 10 * i, 10, i) for i in range(1, 7)]


# ------------------------- in_order -------------------------

@pytest.mark.parametrize("how", ["end", "failing trial", "closed part-way"])
def test_no_worker_outlives_in_order(how, tmp_path, monkeypatch, cpus):
    cpus(4)
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


@pytest.mark.parametrize("n", [1, None], ids=["one CPU", "no sched_getaffinity"])
def test_in_order_runs_inline_without_a_second_cpu(n, tmp_path, monkeypatch, cpus):
    if n is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        cpus(n)
    log = tmp_path / "pids"

    def trial_id(entry):
        log_line(log, os.getpid())
        return entry.trial_id

    assert list(in_order(trial_id, ENTRIES)) == [1, 2, 3, 4, 5, 6]
    assert {int(pid) for pid, in logged(log)} == {os.getpid()}


@pytest.mark.parametrize("fails", [False, True], ids=["end", "failing trial"])
def test_in_order_computes_its_own_share_here(fails, tmp_path, cpus):
    cpus(4)
    log = tmp_path / "pids"
    parent = os.getpid()

    def square(entry):
        log_line(log, entry.trial_id, os.getpid())
        if fails and entry.trial_id == 5:
            assert os.getpid() == parent
            raise ValueError("trial 5 fails")
        return entry.trial_id ** 2

    results = in_order(square, ENTRIES, own_share=True)
    if fails:
        assert [next(results) for _ in range(4)] == [1, 4, 9, 16]
        with pytest.raises(ValueError, match="^trial 5 fails$"):
            next(results)
    else:
        assert list(results) == [1, 4, 9, 16, 25, 36]
    pids = {int(trial): int(pid) for trial, pid in logged(log)}
    # entries 0 and 4 here, each other share in a worker of its own (the
    # failing trial's may be killed before it reaches trial 6)
    assert pids[1] == pids[5] == parent
    assert len({pids[2], pids[3], pids[4], parent}) == 4
    assert pids.get(6, pids[2]) == pids[2]
    assert_ended(set(pids.values()) - {parent})


def test_in_order_forks_for_one_entry_where_it_has_a_second_cpu(tmp_path, cpus):
    cpus(2)
    log = tmp_path / "pids"

    def trial_id(entry):
        log_line(log, os.getpid())
        return entry.trial_id

    assert list(in_order(trial_id, ENTRIES[:1])) == [1]
    assert list(in_order(trial_id, ENTRIES[:1], own_share=True)) == [1]
    (worker,), (here,) = logged(log)
    assert int(here) == os.getpid() != int(worker)
    assert_ended({int(worker)})


@pytest.mark.parametrize("end, reason", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
    (lambda: os._exit(3), "exit status 3"),
], ids=["killed", "exited"])
def test_a_worker_that_ends_early_names_its_trial(end, reason, monkeypatch, cpus):
    cpus(2)
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


def test_a_worker_that_ends_part_way_through_a_result_names_its_trial(monkeypatch, cpus):
    """Trial 2's worker writes half of its result's pickle, then dies in
    trial 4: the pipe ends inside the pickle."""
    cpus(2)
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


def test_a_result_that_does_not_pickle_is_raised_at_its_trial(monkeypatch, cpus):
    cpus(2)
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


def test_estimate_with_a_killed_worker_prints_one_error_line(tmp_path, monkeypatch, capsys,
                                                             cpus):
    data = tmp_path / "ds"
    manifest, _ = synth_dataset(FOUR_TRIALS, SynthConfig(width=32, height=32), data, seed=3)
    log = tmp_path / "pids"
    monkeypatch.setattr(cli, "read_frame_range", _killing(
        cli.read_frame_range, lambda d, m, start, n: start == manifest.entries[1].start_frame,
        log))
    cpus(2)
    capsys.readouterr()
    assert main(["estimate", "--data", str(data), "--out", str(tmp_path / "est.csv"),
                 "--roi", ROI, "--crop", NOCROP]) == 1
    captured = capsys.readouterr()
    assert captured.out == "trial 1: signal of 30 samples too short for padding of 21 (too_short)\n"
    assert captured.err == KILLED
    assert not (tmp_path / "est.csv").exists()
    assert_ended({int(pid) for pid, in logged(log)})


def test_synth_with_a_killed_worker_prints_one_error_line(tmp_path, monkeypatch, capsys,
                                                          cpus):
    log = tmp_path / "pids"
    monkeypatch.setattr(synth, "paper_protocol", lambda seed: FOUR_TRIALS)
    monkeypatch.setattr(synth, "synth_clip",
                        _killing(synth_clip, lambda cfg: cfg.seed == 7 + 2, log))
    cpus(2)
    out = tmp_path / "ds"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--protocol", "paper", "--seed", "7",
                 "--width", "32", "--height", "32"]) == 1
    assert capsys.readouterr() == ("", KILLED)
    assert list(out.iterdir()) == []
    assert_ended({int(pid) for pid, in logged(log)})


@pytest.fixture(scope="module")
def one_trial(tmp_path_factory):
    """One 2 s trial at 32x32, four blocks of the detection pass, beside
    the toy cascade and a sparse scan that finds the face."""
    out = tmp_path_factory.mktemp("one")
    synth_dataset([TrialPlan(1, "gaze", 3, 2.0)], SynthConfig(width=32, height=32),
                  out / "ds", seed=3)
    save_cascade(out / "cascade.json", make_toy_cascade())
    (out / "scan.cfg").write_text("scale_factor = 2.0\nmin_size = 16\n")
    return out / "ds"


@pytest.mark.parametrize("command, module, function, when", [
    # the second block of the detection pass: the worker's share
    ("cascade", detect, "read_frame_range",
     lambda d, m, start, n: start == detect._DETECT_BLOCK_FRAMES),
    ("cascade", cli, "read_frame_range", lambda *args: True),
    ("roi", cli, "read_frame_range", lambda *args: True),
    ("groundtruth", groundtruth, "gt_hr_flagged", lambda *args: True),
], ids=["cascade detection worker", "cascade trial worker", "roi", "groundtruth"])
def test_a_killed_worker_of_a_one_trial_run_names_the_trial(command, module, function, when,
                                                            one_trial, tmp_path, monkeypatch,
                                                            capsys, cpus):
    out = tmp_path / "out.csv"
    argv = {"cascade": ["estimate", "--cascade", str(one_trial.parent / "cascade.json"),
                        "--config", str(one_trial.parent / "scan.cfg"), "--crop", NOCROP],
            "roi": ["estimate", "--roi", ROI, "--crop", NOCROP],
            "groundtruth": ["groundtruth"]}[command]
    log = tmp_path / "pids"
    monkeypatch.setattr(module, function, _killing(getattr(module, function), when, log))
    cpus(2)
    capsys.readouterr()
    assert main(argv + ["--data", str(one_trial), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: trial 1: worker process ended without its result (signal 9)\n")
    assert not out.exists()
    # the detection pass reads its first block in this process
    assert_ended({int(pid) for pid, in logged(log)} - {os.getpid()})


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


def test_outputs_do_not_depend_on_the_worker_count(mixed_dataset, tmp_path, capsys, cpus):
    outputs = {}
    for n in (1, 2, 4):
        cpus(n)
        (tmp_path / str(n)).mkdir()
        outputs[n] = _outputs(mixed_dataset, tmp_path / str(n), capsys)
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


def first_trials(data, k):
    """Cut the manifest of the dataset `data` to its first k trials."""
    manifest = parse_manifest(data / MANIFEST_FILE)
    manifest.entries[k:] = []
    write_manifest(data / MANIFEST_FILE, manifest)


@pytest.mark.parametrize("trials, passes", [(1, [2, 4]), (2, [4]), (3, [4]), (4, [])])
def test_the_detection_pass_runs_with_fewer_trials_than_workers(
        trials, passes, mixed_dataset, tmp_path, monkeypatch, capsys, cpus):
    """estimate --cascade runs detect_trials only where the trials are
    fewer than the workers it may fork, and gives the bytes of the
    per-trial scan either way."""
    data = tmp_path / "ds"
    shutil.copytree(mixed_dataset, data)
    first_trials(data, trials)
    for name in ("cascade.json", "scan.cfg"):
        shutil.copy(mixed_dataset.parent / name, tmp_path)
    calls = []
    monkeypatch.setattr(detect, "detect_trials",
                        lambda *args: calls.append(n) or detect_trials(*args))
    outputs = {}
    for n in (1, 2, 4):
        cpus(n)
        (tmp_path / str(n)).mkdir()
        outputs[n] = _outputs(data, tmp_path / str(n), capsys)
    assert calls == passes
    assert outputs[2] == outputs[1]
    assert outputs[4] == outputs[1]
    assert outputs[1]["cascade"].endswith(f"/{trials} trials -> OUT/cascade.csv\n")


@pytest.fixture
def bad_record_in_trial_3(mixed_dataset, tmp_path):
    """(dataset, its frames.ppm, the global index of the bad frame): a copy
    of mixed_dataset whose trial 3 has a bad header in its 8th record."""
    data = tmp_path / "ds"
    shutil.copytree(mixed_dataset, data)
    manifest = parse_manifest(data / MANIFEST_FILE)
    path, _, record = _frames_file(data, manifest)
    frame = manifest.entries[2].start_frame + 7
    with open(path, "r+b") as f:
        f.seek(frame * record)
        f.write(b"P6\n33")
    return data, path, frame


def _stops_every_worker_count_alike(bad_record_in_trial_3, how, tmp_path, capsys, cpus):
    """estimate with the arguments `how` prints the lines of trials 1 and 2,
    then trial 3's error, the same bytes at 1, 2 and 4 CPUs."""
    data, path, frame = bad_record_in_trial_3
    seen = set()
    for n in (1, 2, 4):
        cpus(n)
        capsys.readouterr()
        assert main(["estimate", "--data", str(data), "--out", str(tmp_path / "est.csv"),
                     "--crop", NOCROP, *how]) == 1
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["trial 1",
                                                                               "trial 2"]
        assert captured.err.startswith(f"error: trial 3: {path}: frame {frame} (byte ")
        assert captured.err.count("\n") == 1
        seen.add((captured.out, captured.err))
    assert len(seen) == 1


def test_a_bad_record_in_trial_3_stops_every_worker_count_alike(bad_record_in_trial_3,
                                                                 tmp_path, capsys, cpus):
    _stops_every_worker_count_alike(bad_record_in_trial_3, ["--roi", ROI], tmp_path, capsys,
                                    cpus)


def test_a_bad_record_in_trial_3_stops_every_cascade_worker_count_alike(
        bad_record_in_trial_3, mixed_dataset, tmp_path, capsys, cpus):
    """With three trials, the detection pass runs at 4 CPUs only: it reads
    trial 3's bad record before the trial loop starts, and its error waits
    for trial 3's place. At 1 and 2 CPUs, trial 3 scans its own frames."""
    first_trials(bad_record_in_trial_3[0], 3)
    _stops_every_worker_count_alike(
        bad_record_in_trial_3, ["--cascade", str(mixed_dataset.parent / "cascade.json"),
                                "--config", str(mixed_dataset.parent / "scan.cfg")],
        tmp_path, capsys, cpus)
