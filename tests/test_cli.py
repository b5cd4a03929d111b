import csv
import dataclasses
import importlib.machinery
import os
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy
from conftest import make_toy_cascade, write_physio

from camvitals import dsp, vitals
from camvitals.cli import build_parser, main
from camvitals.config import PipelineConfig
from camvitals.detect import Cascade, Stage, Tree, load_cascade, save_cascade
from camvitals.dsp import TimeSeries, bandpass
from camvitals.evaluation import EST_HEADER, render_signals
from camvitals.geometry import Rect
from camvitals.ingest import (FRAMES_FILE, TrialEntry, TrialManifest, load_physio_csv,
                              parse_manifest, read_frame_range, write_manifest, write_ppm)
from camvitals.synth import SynthConfig, TrialPlan, synth_dataset
from test_detect import OPENCV_XML

SRC = Path(__file__).resolve().parents[1] / "src"
ROI = "manual:12,5,8,10"   # the synthetic face box at 32x32
NOCROP = "0,0,0,0"


def read_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    rc = main(["synth", "--out", str(out), "--duration", "10",
               "--width", "32", "--height", "32", "--hr", "72", "--rr", "15",
               "--seed", "4"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def estimates_csv(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("est") / "est.csv"
    rc = main(["estimate", "--data", str(dataset), "--out", str(out),
               "--roi", ROI, "--crop", NOCROP])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def groundtruth_csv(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("gt") / "gt.csv"
    rc = main(["groundtruth", "--data", str(dataset), "--out", str(out)])
    assert rc == 0
    return out


# ------------------------- full pipeline -------------------------

def test_estimates_match_dataset_truth(estimates_csv, groundtruth_csv):
    est = read_rows(estimates_csv)
    gt = read_rows(groundtruth_csv)
    assert len(est) == len(gt) == 1
    assert est[0]["trial_id"] == gt[0]["trial_id"] == "1"
    assert abs(float(est[0]["hr_est"]) - 72.0) < 1.0
    assert abs(float(est[0]["rr_est"]) - 15.0) < 1.0
    assert abs(float(gt[0]["hr_gt"]) - 72.0) < 1.0
    assert abs(float(gt[0]["rr_gt"]) - 15.0) < 1.0
    assert est[0]["flags"] == ""
    assert 100.0 < float(est[0]["skin_gray"]) < 200.0


def test_evaluate_writes_report(estimates_csv, groundtruth_csv, tmp_path,
                                capsys):
    out = tmp_path / "report"
    rc = main(["evaluate", "--estimates", str(estimates_csv),
               "--groundtruth", str(groundtruth_csv), "--out", str(out)])
    assert rc == 0
    for name in ("trials.csv", "summary.csv", "hr_boxplot.svg",
                 "rr_boxplot.svg", "skin_scatter.svg"):
        assert (out / name).exists()
    trials = read_rows(out / "trials.csv")
    assert trials[0]["condition"] == "respiration"
    captured = capsys.readouterr()
    assert "hr respiration" in captured.out
    assert "report written" in captured.out


def test_estimate_is_deterministic(dataset, estimates_csv, tmp_path):
    again = tmp_path / "est2.csv"
    rc = main(["estimate", "--data", str(dataset), "--out", str(again),
               "--roi", ROI, "--crop", NOCROP])
    assert rc == 0
    assert again.read_bytes() == estimates_csv.read_bytes()


def test_synth_is_deterministic(dataset, tmp_path):
    twin = tmp_path / "twin"
    rc = main(["synth", "--out", str(twin), "--duration", "10",
               "--width", "32", "--height", "32", "--hr", "72", "--rr", "15",
               "--seed", "4"])
    assert rc == 0
    for name in ("truth.csv", "manifest.txt", "physio.csv", FRAMES_FILE):
        assert (twin / name).read_bytes() == (dataset / name).read_bytes()


def test_synth_physio_spans_the_frames_at_a_fractional_fps(tmp_path, capsys):
    # 300 frames of 29.97 fps are 10.01 s: the record holds 1281 samples
    # after the trigger, as groundtruth segments it, not 10 s worth
    ds, gt = tmp_path / "ds", tmp_path / "gt.csv"
    assert main(["synth", "--out", str(ds), "--fps", "29.97", "--duration", "10",
                 "--width", "32", "--height", "32"]) == 0
    capsys.readouterr()
    assert main(["groundtruth", "--data", str(ds), "--out", str(gt)]) == 0
    assert capsys.readouterr().err == ""
    assert [row["trial_id"] for row in read_rows(gt)] == ["1"]


def test_synth_leaves_exactly_the_dataset_files(dataset):
    assert sorted(os.listdir(dataset)) == [FRAMES_FILE, "manifest.txt", "physio.csv",
                                           "truth.csv"]


def test_estimate_honors_config_file(dataset, tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("hr_low = 0.8\nhr_high = 3.0\n# comment line\n")
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--data", str(dataset), "--out", str(out),
               "--roi", ROI, "--crop", NOCROP, "--config", str(cfg)])
    assert rc == 0
    assert abs(float(read_rows(out)[0]["hr_est"]) - 72.0) < 1.0


def test_estimate_writes_signal_plots(dataset, tmp_path):
    out = tmp_path / "est.csv"
    plots = tmp_path / "plots"
    rc = main(["estimate", "--data", str(dataset), "--out", str(out),
               "--roi", ROI, "--crop", NOCROP, "--plots", str(plots)])
    assert rc == 0
    svg = plots / "signals_trial_001.svg"
    assert svg.exists()
    assert ET.fromstring(svg.read_text()).tag.endswith("svg")


def test_plots_reuse_each_trace_and_leave_estimates_alone(dataset, tmp_path, monkeypatch,
                                                          cpus):
    cpus(1)   # the calls are counted in this process
    calls = {"pulse_trace": 0, "mean_gray_trace": 0}
    originals = {name: getattr(vitals, name) for name in calls}

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(vitals, name, counting(name))
    plain, plotted, plots = tmp_path / "plain.csv", tmp_path / "plotted.csv", tmp_path / "plots"
    base = ["estimate", "--data", str(dataset), "--roi", ROI, "--crop", NOCROP]
    assert main(base + ["--out", str(plain)]) == 0
    calls.update(pulse_trace=0, mean_gray_trace=0)
    assert main(base + ["--out", str(plotted), "--plots", str(plots)]) == 0
    assert calls == {"pulse_trace": 1, "mean_gray_trace": 1}   # one trial
    assert plotted.read_bytes() == plain.read_bytes()

    # the figure each trace's own computation draws
    manifest = parse_manifest(dataset / "manifest.txt")
    clip = read_frame_range(dataset, manifest, 0, manifest.entries[0].frame_count)
    cfg = PipelineConfig()
    faces = [Rect(12, 5, 8, 10)] * clip.n_frames
    raw_pulse = originals["pulse_trace"](clip, [vitals.hr_roi(f) for f in faces])
    raw_chest = originals["mean_gray_trace"](
        clip, [vitals.rr_roi(f, clip.height, clip.width) for f in faces])
    want = render_signals(
        [("pulse scalar (raw)", raw_pulse),
         ("pulse scalar (bandpassed)", bandpass(raw_pulse, cfg.hr_bandpass)),
         ("chest mean gray (raw)", raw_chest),
         ("chest mean gray (bandpassed)", bandpass(raw_chest, cfg.rr_bandpass))],
        "trial 1 signals")
    assert (plots / "signals_trial_001.svg").read_text() == want


def test_plots_filter_each_trace_once(dataset, tmp_path, monkeypatch, cpus):
    cpus(1)   # the calls are counted in this process
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return bandpass(*args, **kwargs)

    monkeypatch.setattr(dsp, "bandpass", counting)
    plain, plotted = tmp_path / "plain.csv", tmp_path / "plotted.csv"
    base = ["estimate", "--data", str(dataset), "--roi", ROI, "--crop", NOCROP]
    assert main(base + ["--out", str(plain)]) == 0
    assert len(calls) == 2
    calls.clear()
    assert main(base + ["--out", str(plotted), "--plots", str(tmp_path / "plots")]) == 0
    cfg = PipelineConfig()
    assert calls == [cfg.hr_bandpass, cfg.rr_bandpass]   # one trial, one call per trace
    assert plotted.read_bytes() == plain.read_bytes()


# ------------------------- hold-breath handling -------------------------

def test_hold_breath_trial_is_flagged(tmp_path):
    ds = tmp_path / "ds"
    rc = main(["synth", "--out", str(ds), "--duration", "10", "--width", "32",
               "--height", "32", "--task", "2", "--seed", "1"])
    assert rc == 0
    est_csv, gt_csv = tmp_path / "est.csv", tmp_path / "gt.csv"
    assert main(["estimate", "--data", str(ds), "--out", str(est_csv),
                 "--roi", ROI, "--crop", NOCROP]) == 0
    assert main(["groundtruth", "--data", str(ds), "--out", str(gt_csv)]) == 0
    est = read_rows(est_csv)[0]
    gt = read_rows(gt_csv)[0]
    assert "hold_breath_excluded" in est["flags"].split(";")
    assert "hold_breath_excluded" in gt["flags"].split(";")
    assert gt["rr_gt"] == ""
    assert gt["hr_gt"] != ""


# ------------------------- exit codes -------------------------

def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["synth"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["synth", "estimate", "groundtruth",
                                     "evaluate", "convert-cascade"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


# the SynthConfig field each `synth` option sets; the other options are
# the plan's, not the scene's
SYNTH_OPTION_FIELDS = {"seed": "seed", "width": "width", "height": "height", "fps": "fps",
                       "tone": "tone", "pulse_amp": "pulse_amp", "chest_amp": "chest_amp",
                       "noise_sigma": "noise_sigma", "blur": "blur_radius", "hr": "hr_bpm",
                       "rr": "rr_brpm", "duration": "duration"}


def test_synth_option_defaults_are_synth_config_defaults():
    args = vars(build_parser().parse_args(["synth", "--out", "ds"]))
    plan_options = {"command", "func", "out", "protocol", "task", "condition"}
    assert set(args) - plan_options == set(SYNTH_OPTION_FIELDS)
    defaults = SynthConfig()
    assert {option: args[option] for option in SYNTH_OPTION_FIELDS} == {
        option: getattr(defaults, field) for option, field in SYNTH_OPTION_FIELDS.items()}


@pytest.mark.parametrize("args, message", [
    (["--hr", "500"], "hr_bpm 500.0 outside [30, 220]"),
    (["--width", "16", "--height", "4"], "face Rect(x=7, y=0, w=2, h=1) does not fit a 16x4 frame"),
    (["--task", "9"], "trial 1: task_id 9 outside 1..7"),
    (["--duration", "0"], "trial 1: 0 s holds no physio sample at 128 Hz for its trigger"),
    (["--fps", "1000", "--duration", "0.001"],
     "trial 1: 0.001 s holds no physio sample at 128 Hz for its trigger"),
], ids=["rate", "geometry", "task", "no-duration", "no-physio"])
def test_synth_writes_nothing_on_a_bad_plan(args, message, tmp_path, capsys):
    out = tmp_path / "ds"
    out.mkdir()
    assert main(["synth", "--out", str(out), *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_estimate_requires_exactly_one_roi_source(dataset, tmp_path, capsys):
    out = str(tmp_path / "est.csv")
    cascade_json = tmp_path / "cascade.json"
    save_cascade(cascade_json, make_toy_cascade())
    neither = main(["estimate", "--data", str(dataset), "--out", out])
    both = main(["estimate", "--data", str(dataset), "--out", out,
                 "--roi", ROI, "--cascade", str(cascade_json)])
    assert neither == 2 and both == 2
    assert "exactly one of" in capsys.readouterr().err


# one 32x32 record of frames.ppm: its header and 3,072 bytes of pixels
RECORD_32 = len(b"P6\n32 32\n255\n") + 32 * 32 * 3


def estimate_on_damaged_stream(tmp_path, capsys, damage):
    """(exit code, stderr, path of frames.ppm) of estimate on a one-second
    synth dataset whose frames.ppm `damage` has rewritten."""
    ds = tmp_path / "ds"
    assert main(["synth", "--out", str(ds), "--duration", "1", "--width", "32",
                 "--height", "32"]) == 0
    stream = ds / FRAMES_FILE
    damage(stream)
    capsys.readouterr()
    rc = main(["estimate", "--data", str(ds), "--out", str(tmp_path / "e.csv"),
               "--roi", ROI, "--crop", NOCROP])
    return rc, capsys.readouterr().err, stream


def test_corrupt_frame_exits_one(tmp_path, capsys):
    rc, err, stream = estimate_on_damaged_stream(
        tmp_path, capsys, lambda p: p.write_bytes(p.read_bytes()[:5 * RECORD_32 + 40]))
    assert rc == 1
    assert err == (f"error: {stream}: frame 5 (byte {5 * RECORD_32}): "
                   f"truncated record, 40 of {RECORD_32} bytes\n")


def test_missing_frame_exits_one(tmp_path, capsys):
    rc, err, stream = estimate_on_damaged_stream(
        tmp_path, capsys, lambda p: p.write_bytes(p.read_bytes()[:5 * RECORD_32]))
    assert rc == 1
    assert err == (f"error: {stream}: frame 5 (byte {5 * RECORD_32}): "
                   f"past the end of the file, expected a {RECORD_32}-byte record\n")


def test_missing_stream_exits_one(tmp_path, capsys):
    rc, err, stream = estimate_on_damaged_stream(tmp_path, capsys, Path.unlink)
    assert rc == 1
    assert err == (f"error: {stream}: frame 0 (byte 0): "
                   "cannot read (No such file or directory)\n")


def test_record_cut_from_the_middle_stops_before_trial_one(tmp_path, capsys):
    ds = tmp_path / "ds"
    synth_dataset([TrialPlan(1, "gaze", 3, 1.0), TrialPlan(2, "gaze", 4, 1.0)],
                  SynthConfig(width=32, height=32), ds)
    stream = ds / FRAMES_FILE
    raw = stream.read_bytes()
    stream.write_bytes(raw[:10 * RECORD_32] + raw[11 * RECORD_32:])
    rc = main(["estimate", "--data", str(ds), "--out", str(tmp_path / "e.csv"),
               "--roi", ROI, "--crop", NOCROP])
    assert rc == 1
    out, err = capsys.readouterr()
    assert "trial" not in out
    assert err == (f"error: {stream}: frame 59 (byte {59 * RECORD_32}): "
                   f"past the end of the file, expected a {RECORD_32}-byte record\n")


def test_oversized_manifest_is_one_error_line(tmp_path, capsys):
    ds = tmp_path / "ds"
    synth_dataset([TrialPlan(1, "gaze", 3, 1.0)], SynthConfig(width=32, height=32), ds)
    manifest = ds / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("width=32", "width=1000000")
                        .replace("height=32", "height=1000000"))
    capsys.readouterr()
    rc = main(["estimate", "--data", str(ds), "--out", str(tmp_path / "e.csv"),
               "--roi", ROI, "--crop", NOCROP])
    assert rc == 1
    record = len(b"P6\n1000000 1000000\n255\n") + 3 * 10 ** 12
    assert capsys.readouterr().err == (
        f"error: {ds / FRAMES_FILE}: frame 0 (byte 0): "
        f"truncated record, {30 * RECORD_32} of {record} bytes\n")


def test_bad_record_header_names_its_trial(tmp_path, capsys):
    ds = tmp_path / "ds"
    synth_dataset([TrialPlan(1, "gaze", 3, 1.0), TrialPlan(2, "gaze", 4, 1.0)],
                  SynthConfig(width=32, height=32), ds)
    stream = ds / FRAMES_FILE
    raw = bytearray(stream.read_bytes())
    raw[40 * RECORD_32 + 11] = ord("4")   # maxval 254
    stream.write_bytes(bytes(raw))
    rc = main(["estimate", "--data", str(ds), "--out", str(tmp_path / "e.csv"),
               "--roi", ROI, "--crop", NOCROP])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out.startswith("trial 1: ")
    assert err == (f"error: trial 2: {stream}: frame 40 (byte {40 * RECORD_32}): "
                   "record header b'P6\\n32 32\\n254\\n', expected "
                   "b'P6\\n32 32\\n255\\n' for the manifest's 32x32\n")


@pytest.fixture(scope="module")
def short_and_long(tmp_path_factory):
    """Trial 1 lasts 6 s: 180 frames, under the 256-frame video window, and
    768 physio samples, under the 1024-sample physio window. Trial 2 lasts
    20 s."""
    out = tmp_path_factory.mktemp("short_long")
    synth_dataset([TrialPlan(1, "respiration", 1, 6.0), TrialPlan(2, "respiration", 1, 20.0)],
                  SynthConfig(width=32, height=32), out, seed=3,
                  rates={1: (72.0, 15.0), 2: (72.0, 15.0)})
    return out


def _analysis_args(command, data, out):
    args = [command, "--data", str(data), "--out", str(out)]
    return args + ["--roi", ROI, "--crop", NOCROP] if command == "estimate" else args


@pytest.fixture(scope="module")
def few_beats_and_long(tmp_path_factory):
    """Trial 1 lasts 2.2 s at 30 bpm: 66 frames and 282 physio samples,
    with too few ECG beats to rebuild a pulse from. Trial 2 lasts 20 s."""
    out = tmp_path_factory.mktemp("few_beats_long")
    synth_dataset([TrialPlan(1, "respiration", 1, 2.2), TrialPlan(2, "respiration", 1, 20.0)],
                  SynthConfig(width=32, height=32), out, seed=3,
                  rates={1: (30.0, 15.0), 2: (72.0, 15.0)})
    return out


RATE_COLUMNS = {"estimate": ("hr_est", "rr_est"), "groundtruth": ("hr_gt", "rr_gt")}


def _check_short_trial_flagged(command, data, n, window, out, capsys):
    """`command` exits 0, names trial 1 as too short for its window, gives
    it the too_short flag and empty rates, and rates trial 2."""
    capsys.readouterr()
    assert main(_analysis_args(command, data, out)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (f"trial 1: signal of {n} samples shorter than window {window} (too_short)"
            in captured.out.splitlines())
    short, long = read_rows(out)
    assert short["flags"] == "too_short"
    for column in RATE_COLUMNS[command]:
        assert short[column] == ""
        assert long[column] != ""
    assert "too_short" not in long["flags"]
    assert abs(float(long[RATE_COLUMNS[command][0]]) - 72.0) < 1.0


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_trial_too_short_for_its_window_is_named(command, short_and_long, tmp_path, capsys):
    n, window = (180, 256) if command == "estimate" else (768, 1024)
    _check_short_trial_flagged(command, short_and_long, n, window, tmp_path / "out.csv", capsys)


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_trial_with_few_beats_too_short_for_its_window_is_named(command, few_beats_and_long,
                                                                tmp_path, capsys):
    n, window = (66, 256) if command == "estimate" else (282, 1024)
    _check_short_trial_flagged(command, few_beats_and_long, n, window, tmp_path / "out.csv",
                               capsys)


def test_too_short_trial_is_left_out_of_scoring(short_and_long, tmp_path):
    est, gt, report = tmp_path / "est.csv", tmp_path / "gt.csv", tmp_path / "report"
    assert main(_analysis_args("estimate", short_and_long, est)) == 0
    assert main(_analysis_args("groundtruth", short_and_long, gt)) == 0
    assert main(["evaluate", "--estimates", str(est), "--groundtruth", str(gt),
                 "--out", str(report)]) == 0
    trials = read_rows(report / "trials.csv")
    assert [t["trial_id"] for t in trials] == ["1", "2"]
    assert trials[0]["flags"] == "too_short"
    assert "too_short" not in trials[1]["flags"]
    stats = [(r["signal"], r["n"]) for r in read_rows(report / "summary.csv")
             if r["kind"] == "condition_stats"]
    assert stats == [("hr", "1"), ("rr", "1")]


@pytest.fixture(scope="module")
def short_hold_and_normal(tmp_path_factory):
    """Trial 1 is too short for the video and physio windows, trial 2 holds
    its breath and trial 3 is a plain gaze trial."""
    out = tmp_path_factory.mktemp("short_hold_normal")
    synth_dataset([TrialPlan(1, "respiration", 1, 6.0), TrialPlan(2, "respiration", 2, 10.0),
                   TrialPlan(3, "gaze", 3, 10.0)],
                  SynthConfig(width=32, height=32, noise_sigma=1.0), out, seed=5)
    return out


# each command's stdout on short_hold_and_normal, one line per trial and then
# the summary line; OUT stands for the output CSV
TRIAL_LINES = {
    "estimate": ["trial 1: signal of 180 samples shorter than window 256 (too_short)",
                 "trial 2: hr=72.46 rr=19.61 flags=hold_breath_excluded",
                 "trial 3: hr=68.16 rr=19.33 flags=",
                 "estimated 2/3 trials -> OUT"],
    "groundtruth": ["trial 1: signal of 768 samples shorter than window 1024 (too_short)",
                    "trial 2: hr_gt=72.40 rr_gt=excluded",
                    "trial 3: hr_gt=67.95 rr_gt=18.91",
                    "ground truth for 3 trials -> OUT"],
}


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_each_trial_outcome_prints_one_line(command, short_hold_and_normal, tmp_path, capsys):
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(_analysis_args(command, short_hold_and_normal, out)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.replace(str(out), "OUT").splitlines() == TRIAL_LINES[command]
    assert [row["flags"] for row in read_rows(out)][:2] == ["too_short", "hold_breath_excluded"]


def test_cascade_that_finds_no_face_prints_one_line_per_trial(short_hold_and_normal, tmp_path,
                                                              capsys):
    never = Tree(rects=((Rect(0, 0, 32, 32), 1.0),), threshold=0.0,
                 pass_value=0.0, fail_value=0.0)
    cascade = tmp_path / "cascade.json"
    save_cascade(cascade, Cascade(window_w=32, window_h=32, stages=(Stage(0.5, (never,)),)))
    out = tmp_path / "est.csv"
    capsys.readouterr()
    assert main(["estimate", "--data", str(short_hold_and_normal), "--out", str(out),
                 "--cascade", str(cascade), "--crop", NOCROP]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "trial 1: no face found (roi_failure)",
        "trial 2: no face found (roi_failure)",
        "trial 3: no face found (roi_failure)",
        f"estimated 0/3 trials -> {out}"]
    assert captured.err == "error: face detection failed on every trial\n"
    assert [(row["hr_est"], row["flags"]) for row in read_rows(out)] == [
        ("", "roi_failure"), ("", "hold_breath_excluded;roi_failure"), ("", "roi_failure")]


@pytest.mark.parametrize("command,message", [
    ("estimate", "error: no trial gave an estimate\n"),
    ("groundtruth", "error: no trial gave a reference rate\n")])
def test_only_trial_too_short_exits_one(command, message, tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--out", str(ds), "--duration", "6", "--width", "32",
                 "--height", "32"]) == 0
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(_analysis_args(command, ds, out)) == 1
    assert capsys.readouterr().err == message
    assert read_rows(out)[0]["flags"] == "too_short"


def test_crop_too_wide_is_not_blamed_on_a_trial(dataset, tmp_path, capsys):
    # the default crop (300,300,200,0) is for full-HD frames
    capsys.readouterr()
    assert main(["estimate", "--data", str(dataset), "--out", str(tmp_path / "e.csv"),
                 "--roi", ROI]) == 1
    assert capsys.readouterr().err == "error: crop (300,300,200,0) exceeds 32x32 frame\n"


@pytest.mark.parametrize("roi,message", [
    ("manual:30,30,8,8", "manual ROI Rect(x=30, y=30, w=8, h=8) outside 32x32 frame"),
    ("manual:12,20,8,12", "face bottom 32 leaves no chest region in height 32")],
    ids=["outside-frame", "no-chest"])
def test_roi_that_does_not_fit_the_frame_is_not_blamed_on_a_trial(roi, message, dataset,
                                                                  tmp_path, capsys):
    out = tmp_path / "e.csv"
    capsys.readouterr()
    assert main(["estimate", "--data", str(dataset), "--out", str(out),
                 "--roi", roi, "--crop", NOCROP]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_detected_face_without_a_chest_region_fails_after_a_too_short_pulse(
        short_and_long, tmp_path, capsys):
    # a base window of the whole frame, kept without neighbours, finds a
    # face whose bottom is the frame's: trial 1 is too short for the
    # pulse's window before its chest is looked at, and trial 2 has no
    # chest region
    cascade, cfg = tmp_path / "cascade.json", tmp_path / "pipeline.cfg"
    save_cascade(cascade, _window_cascade(32))
    cfg.write_text("min_neighbors = 0\n")
    capsys.readouterr()
    assert main(["estimate", "--data", str(short_and_long), "--out", str(tmp_path / "e.csv"),
                 "--cascade", str(cascade), "--config", str(cfg), "--crop", NOCROP]) == 1
    captured = capsys.readouterr()
    assert captured.out == "trial 1: signal of 180 samples shorter than window 256 (too_short)\n"
    assert captured.err == "error: trial 2: face bottom 32 leaves no chest region in height 32\n"


@pytest.mark.parametrize("source", ["config", "crop"])
def test_bad_crop_names_the_config_only_when_it_came_from_there(source, dataset, tmp_path,
                                                                capsys):
    cfg = tmp_path / "pipeline.cfg"
    out = tmp_path / "e.csv"
    args = ["estimate", "--data", str(dataset), "--out", str(out), "--roi", ROI,
            "--config", str(cfg)]
    capsys.readouterr()
    if source == "config":
        # a crop margin is no config key, and fails before trial 1
        cfg.write_text("min_size = 0\ncrop_left = 0\n")
        assert main(args + ["--crop", NOCROP]) == 1
        assert capsys.readouterr() == ("", f"error: {cfg}:2: unknown config key 'crop_left'\n")
    else:
        # margins too wide for the frames, given or the default, and a --roi
        # outside the cropped frame name no file: the config does not set them
        cfg.write_text("min_size = 0\n")
        for crop, message in [
                (["--crop", "0,40,0,0"], "crop (0,40,0,0) exceeds 32x32 frame"),
                ([], "crop (300,300,200,0) exceeds 32x32 frame"),
                (["--crop", "0,20,0,0"],
                 "manual ROI Rect(x=12, y=5, w=8, h=10) outside 12x32 frame")]:
            assert main(args + crop) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_bad_scale_factor_is_not_blamed_on_a_trial(dataset, tmp_path, capsys):
    cfg = tmp_path / "pipeline.cfg"
    cascade = tmp_path / "cascade.json"
    save_cascade(cascade, make_toy_cascade())
    for setting, message in [("scale_factor = 1.0", "scale_factor must be > 1, got 1.0"),
                             ("video_fft = 1000", "fft_size must be a power of two, got 1000"),
                             ("filter_order = 0", "order must be >= 1, got 0")]:
        cfg.write_text(setting + "\n")
        capsys.readouterr()
        assert main(["estimate", "--data", str(dataset), "--out", str(tmp_path / "e.csv"),
                     "--cascade", str(cascade), "--crop", NOCROP, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "e.csv").exists()


def _window_cascade(size):
    """A one-tree cascade with a size x size base window that every window passes."""
    tree = Tree(rects=((Rect(0, 0, size, size), 1.0),), threshold=0.0,
                pass_value=1.0, fail_value=0.0)
    return Cascade(window_w=size, window_h=size, stages=(Stage(0.5, (tree,)),))


@pytest.mark.parametrize("command,setting,message", [
    ("estimate", "hr_high = 20", "band high 20.0 Hz >= Nyquist at 30.0 Hz"),
    ("groundtruth", "rr_high = 70", "band high 70.0 Hz >= Nyquist at 128.0 Hz"),
    ("groundtruth", "ecg_detrend_s = 0.001",
     "detrend window 0.001s spans < 3 samples at 128.0 Hz"),
    ("estimate", "hr_low = 0.7\nhr_high = 0.701",
     "band (0.7, 0.701) contains no FFT bins at resolution 0.00732421875 Hz"),
    ("groundtruth", "hr_low = 0.7\nhr_high = 0.701",
     "band (0.7, 0.701) contains no FFT bins at resolution 0.015625 Hz"),
    ("estimate", None, "frame 32x32 smaller than base window 40x40")],
    ids=["video-nyquist", "physio-nyquist", "detrend", "video-no-bins", "physio-no-bins",
         "cascade-window"])
def test_setting_that_does_not_fit_the_rate_is_not_blamed_on_a_trial(
        command, setting, message, dataset, tmp_path, capsys):
    out, cfg, cascade = tmp_path / "out.csv", tmp_path / "pipeline.cfg", tmp_path / "cascade.json"
    args = [command, "--data", str(dataset), "--out", str(out)]
    if command == "estimate":
        save_cascade(cascade, make_toy_cascade() if setting else _window_cascade(40))
        args += ["--cascade", str(cascade), "--crop", NOCROP]
    if setting is not None:
        cfg.write_text(setting + "\n")
        args += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cascade if setting is None else cfg}: {message}\n"
    assert "trial" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,setting,window,message", [
    ("groundtruth", "ecg_refractory_s = nan", None,
     ":1: config key ecg_refractory_s: 'nan' is not a number"),
    ("groundtruth", "ecg_percentile = 150", None,
     ": ecg_percentile must be in [0, 100], got 150.0"),
    ("estimate", "min_size = 40", (8, 8),
     ": min_size 40 leaves no window of the 8x8 cascade to scan in a 32x32 frame"),
    ("estimate", "min_size = 30", (8, 10),
     ": min_size 30 leaves no window of the 8x10 cascade to scan in a 32x32 frame"),
    ("groundtruth", "scalarization = spherical_log_map", None,
     ":1: unknown config key 'scalarization'"),
    # the band designs failed in trial 1 with "Singular matrix", and the
    # FFT sizes with a memory error or "array is too big"
    ("estimate", "hr_low = 1e-8", (8, 8),
     ": band (1e-08, 2.5) Hz of order 3 has no finite filter design at 30.0 Hz"),
    ("groundtruth", "hr_low = 1e-8", None,
     ": band (1e-08, 2.5) Hz of order 3 has no finite filter design at 128.0 Hz"),
    ("groundtruth", "hr_low = 1e-7", None,
     ": band (1e-07, 2.5) Hz of order 3 has no finite filter design at 128.0 Hz"),
    ("estimate", "rr_low = 1e-8", (8, 8),
     ": band (1e-08, 0.5) Hz of order 3 has no finite filter design at 30.0 Hz"),
    ("groundtruth", "rr_low = 1e-8", None,
     ": band (1e-08, 0.5) Hz of order 3 has no finite filter design at 128.0 Hz"),
    ("groundtruth", "filter_order = 101", None, ": order must be <= 100, got 101"),
    ("estimate", "video_fft = 2147483648", (8, 8),
     ": fft_size must be <= 65536, got 2147483648"),
    ("groundtruth", "physio_fft = 2147483648", None,
     ": fft_size must be <= 65536, got 2147483648"),
    ("estimate", f"video_fft = {2 ** 63}", (8, 8),
     f": fft_size must be <= 65536, got {2 ** 63}"),
    ("groundtruth", f"physio_fft = {2 ** 63}", None,
     f": fft_size must be <= 65536, got {2 ** 63}")],
    ids=["non-finite", "ecg-percentile", "min-size-above-frame", "min-size-between-scales",
         "pulse-feature-key", "video-hr-low", "physio-hr-low", "physio-hr-low-1e-7",
         "video-rr-low", "physio-rr-low", "filter-order", "video-fft-2**31",
         "physio-fft-2**31", "video-fft-2**63", "physio-fft-2**63"])
def test_bad_setting_names_the_config_before_trial_1(command, setting, window, message,
                                                     dataset, tmp_path, capsys):
    out, cfg, cascade = tmp_path / "out.csv", tmp_path / "pipeline.cfg", tmp_path / "cascade.json"
    cfg.write_text(setting + "\n")
    args = [command, "--data", str(dataset), "--out", str(out), "--config", str(cfg)]
    if window is not None:
        tree = Tree(rects=((Rect(0, 0, *window), 1.0),), threshold=0.0,
                    pass_value=1.0, fail_value=0.0)
        save_cascade(cascade, Cascade(*window, stages=(Stage(0.5, (tree,)),)))
        args += ["--cascade", str(cascade), "--crop", NOCROP]
    capsys.readouterr()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}{message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_missing_filter_loop_is_one_error_line_before_trial_1(command, dataset, tmp_path,
                                                               capsys, monkeypatch):
    # a scipy without the compiled sosfilt loop; the failed load is not
    # cached, so the next test loads the real loop
    monkeypatch.setattr(dsp, "_KERNEL_MODULE", "scipy.signal._no_sosfilt")
    dsp._sosfilt_kernel.cache_clear()
    out = tmp_path / "out.csv"
    args = [command, "--data", str(dataset), "--out", str(out)]
    if command == "estimate":
        args += ["--roi", ROI, "--crop", NOCROP]
    capsys.readouterr()
    assert main(args) == 1
    path = os.path.join(os.path.dirname(scipy.__file__), "signal",
                        "_no_sosfilt" + importlib.machinery.EXTENSION_SUFFIXES[0])
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: no such file; the bandpass filter needs "
                            f"scipy's compiled sosfilt loop (scipy {scipy.__version__})\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.fixture(scope="module")
def two_trials(tmp_path_factory):
    """Two 10 s trials at 32x32: enough for a trial loop of two workers."""
    out = tmp_path_factory.mktemp("two_trials")
    synth_dataset([TrialPlan(1, "respiration", 1, 10.0), TrialPlan(2, "gaze", 3, 10.0)],
                  SynthConfig(width=32, height=32), out, seed=5,
                  rates={1: (72.0, 15.0), 2: (66.0, 12.0)})
    return out


@pytest.mark.parametrize("n", [1, 2], ids=["inline", "forked"])
@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_filter_loop_without_sosfilt_is_one_error_line(command, n, two_trials, tmp_path,
                                                       capsys, monkeypatch, cpus):
    # the loop's file is there, so the check before trial 1 passes; the
    # first filter call of each process that filters loads it and finds no
    # _sosfilt. The failed load is not cached, so the next test loads the
    # real loop
    from scipy.signal import _sosfilt

    monkeypatch.setattr(dsp, "_load_extension", lambda name, path: types.ModuleType(name))
    cpus(n)
    dsp._sosfilt_kernel.cache_clear()
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(_analysis_args(command, two_trials, out)) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {_sosfilt.__file__}: no _sosfilt in it; the bandpass "
                            f"filter needs scipy's compiled sosfilt loop "
                            f"(scipy {scipy.__version__})\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("where,reason", [
    ("missing/out.csv", "No such file or directory"),
    ("file/out.csv", "Not a directory"),
    (".", "Is a directory"),
])
@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_out_that_cannot_be_written_is_one_error_line_before_trial_1(
        command, where, reason, dataset, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / where
    capsys.readouterr()
    assert main(_analysis_args(command, dataset, out)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: {reason}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_plots_naming_a_file_is_one_error_line(dataset, tmp_path, capsys):
    out, plots = tmp_path / "est.csv", tmp_path / "plots"
    plots.write_text("")
    capsys.readouterr()
    assert main(_analysis_args("estimate", dataset, out) + ["--plots", str(plots)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {plots}: File exists\n"
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_out_naming_a_file_is_one_error_line(estimates_csv, groundtruth_csv,
                                                      tmp_path, capsys):
    report = tmp_path / "report"
    report.write_text("")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(estimates_csv),
                 "--groundtruth", str(groundtruth_csv), "--out", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {report}: File exists\n"
    assert captured.out == ""


def _estimate_in_a_child(dataset, cfg, cascade, out):
    """(exit code, stdout, stderr) of a cascade `estimate` in a fresh
    interpreter, killed, failing the test, if it runs past 10 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "camvitals.cli", "estimate", "--data",
                           str(dataset), "--out", str(out), "--cascade", str(cascade),
                           "--crop", NOCROP, "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=10)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("setting,message", [
    ("scale_factor = 1.000000001",
     "scale_factor 1.000000001 makes a scan of 1417065904 scales of the 8x8 cascade "
     "in a 32x32 frame, more than 1000"),
    ("scale_factor = 1.000000001\nmin_size = 20",
     "scale_factor 1.000000001 makes a scan of 1417065904 scales of the 8x8 cascade "
     "in a 32x32 frame, more than 1000"),
    ("scale_factor = 1e308\nmin_size = 20",
     "min_size 20 leaves no window of the 8x8 cascade to scan in a 32x32 frame")],
    ids=["near-one", "near-one-min-size", "huge-min-size"])
def test_extreme_scale_factor_is_a_setting_error_in_seconds(setting, message, dataset,
                                                            tmp_path):
    # each of these scanned about 1.4e9 scales, or overflowed int()
    out, cfg, cascade = tmp_path / "out.csv", tmp_path / "pipeline.cfg", tmp_path / "cascade.json"
    cfg.write_text(setting + "\n")
    save_cascade(cascade, make_toy_cascade())
    assert _estimate_in_a_child(dataset, cfg, cascade, out) == (1, "", f"error: {cfg}: {message}\n")
    assert not out.exists()


def test_huge_scale_factor_scans_the_base_window_only(dataset, tmp_path):
    # 5 already takes the 30x30 window past the 32x32 frame in one step
    cascade = tmp_path / "cascade.json"
    save_cascade(cascade, _window_cascade(30))
    runs = []
    for value in ("5", "1e308"):
        cfg, out = tmp_path / f"{value}.cfg", tmp_path / f"{value}.csv"
        cfg.write_text(f"scale_factor = {value}\n")
        rc, stdout, stderr = _estimate_in_a_child(dataset, cfg, cascade, out)
        runs.append((rc, stdout.replace(str(out), "OUT"), stderr, out.read_bytes()))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column,factor", [("ecg", 1e307), ("resp", 1e160)],
                         ids=["ecg", "belt"])
def test_physio_near_the_float_limit_gives_the_unscaled_rates(column, factor, dataset,
                                                              tmp_path, capsys):
    # the ECG's moving-mean sum and the belt's squared spectra overflowed
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_bytes((dataset / "manifest.txt").read_bytes())
    record = load_physio_csv(dataset / "physio.csv")
    channel = getattr(record, column)
    write_physio(ds / "physio.csv", dataclasses.replace(
        record, **{column: TimeSeries(channel.samples * factor, channel.sample_rate)}))
    runs = []
    for data in (dataset, ds):
        out = tmp_path / f"{data.name}.csv"
        capsys.readouterr()
        assert main(["groundtruth", "--data", str(data), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        runs.append((captured.out.replace(str(out), "OUT"), captured.err, read_rows(out)))
    (want_out, want_err, [want]), (got_out, got_err, [got]) = runs
    assert (got_out, got_err) == (want_out, want_err)
    rates = ("hr_gt", "rr_gt")
    assert {k: got[k] for k in got if k not in rates} == {k: want[k] for k in want if k not in rates}
    assert [float(got[k]) for k in rates] == pytest.approx([float(want[k]) for k in rates],
                                                           rel=1e-12)


def test_missing_physio_exits_one(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--out", str(ds), "--duration", "1", "--width", "32",
                 "--height", "32"]) == 0
    (ds / "physio.csv").unlink()
    rc = main(["groundtruth", "--data", str(ds), "--out", str(tmp_path / "g.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_manifest_without_trials_is_named(command, dataset, tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    manifest = ds / "manifest.txt"
    manifest.write_text("fps=30\nwidth=32\nheight=32\n")
    (ds / "physio.csv").write_bytes((dataset / "physio.csv").read_bytes())
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(_analysis_args(command, ds, out)) == 1
    assert capsys.readouterr().err == f"error: {manifest}: no trials\n"
    assert not out.exists()


def _drop_trigger(physio_bytes):
    """The physio CSV with trial 1's trigger cell, on its first sample, set to 0."""
    header, first, rest = physio_bytes.split(b"\n", 2)
    return b"\n".join([header, first.rsplit(b",", 1)[0] + b",0", rest])


def _cut_record(physio_bytes):
    """The header and first 1000 samples: under the 1280 of the 10 s trial."""
    return b"\n".join(physio_bytes.split(b"\n")[:1001]) + b"\n"


@pytest.mark.parametrize("edit,message", [
    (_drop_trigger, "trigger code 1 not found"),
    (_cut_record, "trial 1: physio record ends before trial does")],
    ids=["trigger-missing", "record-short"])
def test_groundtruth_names_the_physio_file_of_a_segmentation_error(edit, message, dataset,
                                                                    tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_bytes((dataset / "manifest.txt").read_bytes())
    physio = ds / "physio.csv"
    physio.write_bytes(edit((dataset / "physio.csv").read_bytes()))
    out = tmp_path / "gt.csv"
    capsys.readouterr()
    assert main(["groundtruth", "--data", str(ds), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {physio}: {message}\n"
    assert not out.exists()


def test_groundtruth_names_a_trial_that_a_subnormal_fps_makes_endless(dataset, tmp_path,
                                                                        capsys):
    """fps=5e-324 is finite, but a trial's span in samples overflows to inf."""
    ds = tmp_path / "ds"
    ds.mkdir()
    manifest = (dataset / "manifest.txt").read_text()
    assert manifest.startswith("fps=30.0\n")
    (ds / "manifest.txt").write_text(manifest.replace("fps=30.0", "fps=5e-324", 1))
    physio = ds / "physio.csv"
    physio.write_bytes((dataset / "physio.csv").read_bytes())
    out = tmp_path / "gt.csv"
    capsys.readouterr()
    assert main(["groundtruth", "--data", str(ds), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {physio}: trial 1: physio record ends before trial does\n")
    assert not out.exists()


def test_groundtruth_names_a_trigger_beyond_int64(dataset, tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_bytes((dataset / "manifest.txt").read_bytes())
    header, first, rest = (dataset / "physio.csv").read_bytes().split(b"\n", 2)
    physio = ds / "physio.csv"
    physio.write_bytes(b"\n".join(
        [header, first.rsplit(b",", 1)[0] + b",99999999999999999999", rest]))
    out = tmp_path / "gt.csv"
    capsys.readouterr()
    assert main(["groundtruth", "--data", str(ds), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {physio}:2: trigger '99999999999999999999' is not a number\n")
    assert not out.exists()


def _groundtruth_with(setting, dataset, tmp_path, capsys):
    """(exit code, stdout, stderr, gt.csv bytes or None) of groundtruth
    with one config line."""
    cfg, out = tmp_path / "pipeline.cfg", tmp_path / "gt.csv"
    cfg.write_text(setting + "\n")
    out.unlink(missing_ok=True)
    capsys.readouterr()
    rc = main(["groundtruth", "--data", str(dataset), "--out", str(out), "--config", str(cfg)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("key,rc,err", [
    ("ecg_detrend_s", 0, ""),
    ("ecg_refractory_s", 1, "error: trial 1: need >= 3 peaks, got 1\n")])
def test_huge_ecg_span_acts_as_one_past_the_record(key, rc, err, dataset, tmp_path, capsys):
    # 1e6 s spans past the 10 s record and worked before spans were
    # clamped; 1e300 and 1e307 overflowed the conversion to int
    past = _groundtruth_with(f"{key} = 1e6", dataset, tmp_path, capsys)
    assert (past[0], past[2]) == (rc, err)
    for value in ("1e300", "1e307"):
        assert _groundtruth_with(f"{key} = {value}", dataset, tmp_path, capsys) == past


def test_evaluate_names_an_estimates_file_without_rows(groundtruth_csv, tmp_path, capsys):
    est = tmp_path / "est.csv"
    est.write_text(",".join(EST_HEADER) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(est), "--groundtruth", str(groundtruth_csv),
                 "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {est}: no trial records to evaluate\n"


def test_evaluate_rejects_mismatched_trials(estimates_csv, groundtruth_csv, tmp_path,
                                            capsys):
    gt = tmp_path / "gt.csv"
    header, row = groundtruth_csv.read_text().splitlines()
    rates = row.split(",", 3)[3]   # hr_gt,rr_gt,flags of trial 1
    for rows, message in [
            (["7,respiration,1,{rates}"],
             f"{estimates_csv}:2: trial_id 1 present in estimates only"),
            (["1,respiration,1,{rates}", "2,respiration,1,{rates}"],
             f"{gt}: trial_id 2 present in ground truth only"),
            (["1,respiration,4,{rates}"],
             f"{estimates_csv}:2: trial_id 1: condition/task mismatch between files "
             "(respiration/1 vs respiration/4)")]:
        gt.write_text("".join(f"{line}\n" for line in [header, *rows]).format(rates=rates))
        capsys.readouterr()
        assert main(["evaluate", "--estimates", str(estimates_csv),
                     "--groundtruth", str(gt), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_draws_an_empty_skin_scatter_when_no_trial_has_an_estimate(
        groundtruth_csv, tmp_path):
    est = tmp_path / "est.csv"
    est.write_text(",".join(EST_HEADER) + "\n1,respiration,1,,,,roi_failure\n")
    assert main(["evaluate", "--estimates", str(est), "--groundtruth", str(groundtruth_csv),
                 "--out", str(tmp_path / "r")]) == 0
    assert ">no data points</text>" in (tmp_path / "r" / "skin_scatter.svg").read_text()


def test_evaluate_names_a_trial_id_duplicated_in_estimates(estimates_csv, groundtruth_csv,
                                                          tmp_path, capsys):
    doubled = tmp_path / "est.csv"
    header, row = estimates_csv.read_text().splitlines()
    doubled.write_text(f"{header}\n{row}\n{row}\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(doubled),
                 "--groundtruth", str(groundtruth_csv), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {doubled}:3: duplicate trial_id 1\n"


def test_evaluate_names_a_non_finite_estimate(estimates_csv, groundtruth_csv, tmp_path,
                                             capsys):
    est = tmp_path / "est.csv"
    header, row = estimates_csv.read_text().splitlines()
    cells = row.split(",")
    cells[3] = "nan"
    est.write_text(f"{header}\n{','.join(cells)}\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(est),
                 "--groundtruth", str(groundtruth_csv), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {est}:2: hr_est 'nan' is not a number\n"


@pytest.mark.parametrize("cells,message", [
    ({5: "-1.0"}, "skin_gray -1.0 outside [0, 255]"),
    ({3: "", 4: "", 6: ""}, "trial 1: no complete estimate/truth pair and no flags"),
    # finite cells whose errors would overflow the report to inf
    ({3: "1.7e308"}, "hr_est 1.7e+308 outside [0, 1000000]"),
    ({3: "1e200"}, "hr_est 1e+200 outside [0, 1000000]"),
    ({4: "-15.0"}, "rr_est -15.0 outside [0, 1000000]")],
    ids=["skin-gray-range", "empty-row", "hr-1.7e308", "hr-1e200", "negative-rr"])
def test_evaluate_names_the_line_of_an_invalid_record(cells, message, estimates_csv,
                                                      groundtruth_csv, tmp_path, capsys):
    est = tmp_path / "est.csv"
    header, row = estimates_csv.read_text().splitlines()
    row = row.split(",")
    for column, cell in cells.items():
        row[column] = cell
    est.write_text(f"{header}\n{','.join(row)}\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(est),
                 "--groundtruth", str(groundtruth_csv), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {est}:2: {message}\n"


def test_evaluate_names_the_ground_truth_line_of_a_rate_outside_its_domain(
        estimates_csv, groundtruth_csv, tmp_path, capsys):
    # hr_est = 1.7e308 against hr_gt = -1.7e308 once overflowed the error to
    # inf, and boxplot_stats raised IndexError on its nan fences
    est, gt = tmp_path / "est.csv", tmp_path / "gt.csv"
    for src, dst, value in ((estimates_csv, est, "1.7e308"), (groundtruth_csv, gt, "-1.7e308")):
        header, row = src.read_text().splitlines()
        row = row.split(",")
        row[3] = value
        dst.write_text(f"{header}\n{','.join(row)}\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(est),
                 "--groundtruth", str(gt), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {gt}:2: hr_gt -1.7e+308 outside [0, 1000000]\n"


def test_evaluate_rejects_foreign_header(estimates_csv, tmp_path, capsys):
    bogus = tmp_path / "gt.csv"
    bogus.write_text("a,b\n1,2\n")
    rc = main(["evaluate", "--estimates", str(estimates_csv),
               "--groundtruth", str(bogus), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "header" in capsys.readouterr().err


def test_evaluate_names_the_line_of_a_truncated_row(groundtruth_csv, tmp_path, capsys):
    cut = tmp_path / "est.csv"
    cut.write_text("trial_id,condition,task,hr_est,rr_est,skin_gray,flags\n"
                   "1,respiration,1\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(cut),
                 "--groundtruth", str(groundtruth_csv), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {cut}:2: expected 7 cells, got 3\n"


def test_evaluate_names_the_line_of_a_non_numeric_cell(estimates_csv, groundtruth_csv,
                                                       tmp_path, capsys):
    bad = tmp_path / "gt.csv"
    header, row = groundtruth_csv.read_text().splitlines()
    bad.write_text(header + "\n" + "x" + row[row.index(","):] + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(estimates_csv),
                 "--groundtruth", str(bad), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {bad}:2: trial_id 'x' is not a number\n"


def test_groundtruth_names_a_physio_file_that_is_not_ascii(dataset, tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_bytes((dataset / "manifest.txt").read_bytes())
    header, first, rest = (dataset / "physio.csv").read_bytes().split(b"\n", 2)
    t, ecg, resp, trigger = first.split(b",")
    physio = ds / "physio.csv"
    physio.write_bytes(b"\n".join([header, b",".join([t, ecg, resp + b"\xe9", trigger]), rest]))
    capsys.readouterr()
    assert main(["groundtruth", "--data", str(ds), "--out", str(tmp_path / "gt.csv")]) == 1
    assert capsys.readouterr().err == f"error: {physio}: not ASCII text (byte 0xe9)\n"


def test_groundtruth_names_the_line_of_an_oversized_physio_cell(dataset, tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.txt").write_bytes((dataset / "manifest.txt").read_bytes())
    header, first, rest = (dataset / "physio.csv").read_bytes().split(b"\n", 2)
    t, ecg, resp, trigger = first.split(b",")
    physio = ds / "physio.csv"
    physio.write_bytes(b"\n".join([header, b",".join([t, ecg, b"1" * 200_000, trigger]), rest]))
    capsys.readouterr()
    assert main(["groundtruth", "--data", str(ds), "--out", str(tmp_path / "gt.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {physio}:2: field larger than field limit (131072)\n")


def test_evaluate_names_the_line_of_an_oversized_cell(estimates_csv, groundtruth_csv,
                                                      tmp_path, capsys):
    est = tmp_path / "est.csv"
    header, row = estimates_csv.read_text().splitlines()
    est.write_text(f"{header}\n{row}{'x' * 200_000}\n")
    capsys.readouterr()
    assert main(["evaluate", "--estimates", str(est),
                 "--groundtruth", str(groundtruth_csv), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {est}:2: field larger than field limit (131072)\n"


def test_estimate_names_a_cascade_nested_too_deeply(dataset, tmp_path, capsys):
    cascade = tmp_path / "deep.json"
    cascade.write_text("[" * 200_000 + "]" * 200_000)
    capsys.readouterr()
    assert main(["estimate", "--data", str(dataset), "--out", str(tmp_path / "est.csv"),
                 "--cascade", str(cascade)]) == 1
    assert capsys.readouterr().err == f"error: {cascade}: invalid JSON: nested too deeply\n"


def test_all_trials_failing_detection_exits_one(tmp_path, capsys):
    ds = tmp_path / "blank"
    ds.mkdir()
    manifest = TrialManifest(fps=30.0, width=8, height=8,
                             entries=[TrialEntry(1, "gaze", 3, 0, 10, 1)])
    write_manifest(ds / "manifest.txt", manifest)
    write_ppm(ds / FRAMES_FILE, np.zeros((10, 8, 8, 3), dtype=np.uint8))
    cascade_json = tmp_path / "cascade.json"
    save_cascade(cascade_json, make_toy_cascade())
    out = tmp_path / "est.csv"
    rc = main(["estimate", "--data", str(ds), "--out", str(out),
               "--cascade", str(cascade_json), "--crop", NOCROP])
    assert rc == 1
    assert "face detection failed" in capsys.readouterr().err
    rows = read_rows(out)
    assert rows[0]["flags"] == "roi_failure"
    assert rows[0]["hr_est"] == ""


# ------------------------- cascade conversion -------------------------

def test_convert_cascade_cli(tmp_path, capsys):
    xml = tmp_path / "cascade.xml"
    xml.write_text(OPENCV_XML)
    out = tmp_path / "cascade.json"
    rc = main(["convert-cascade", "--xml", str(xml), "--out", str(out)])
    assert rc == 0
    assert "window 8x8" in capsys.readouterr().out
    cascade = load_cascade(out)
    assert cascade.window_w == 8 and len(cascade.stages) == 1


def test_convert_cascade_bad_xml_exits_one(tmp_path, capsys):
    xml = tmp_path / "cascade.xml"
    xml.write_text("<opencv_storage><not_a_cascade/></opencv_storage>")
    rc = main(["convert-cascade", "--xml", str(xml),
               "--out", str(tmp_path / "c.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_convert_cascade_unknown_xml_encoding_is_one_error_line(tmp_path, capsys):
    xml = tmp_path / "cascade.xml"
    xml.write_text(OPENCV_XML.replace("?>", ' encoding="foo"?>', 1))
    out = tmp_path / "c.json"
    rc = main(["convert-cascade", "--xml", str(xml), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {xml}: invalid XML: unknown encoding: foo\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--roi", "manual:12,5,8", "ROI must be 4 comma-separated integers (got '12,5,8')"),
    ("--roi", "manual:12,5,8,1.5", "ROI must be 4 comma-separated integers (got '12,5,8,1.5')"),
    ("--crop", "0,0,0", "crop margins left,right,top,bottom must be 4 comma-separated "
                        "integers (got '0,0,0')"),
    ("--crop", "0,0,x,0", "crop margins left,right,top,bottom must be 4 comma-separated "
                          "integers (got '0,0,x,0')"),
    ("--crop", "0,-1,0,0", "crop margins must be >= 0 (got '0,-1,0,0')")],
    ids=["roi-count", "roi-non-integer", "crop-count", "crop-non-integer", "crop-negative"])
def test_bad_roi_or_crop_value_exits_two_with_its_message(flag, value, message, dataset,
                                                          tmp_path, capsys):
    args = ["estimate", "--data", str(dataset), "--out", str(tmp_path / "e.csv"),
            "--roi", ROI, "--crop", NOCROP]
    args[args.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"error: argument {flag}: {message}" in capsys.readouterr().err


def test_bad_roi_spec_exits_two(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", str(dataset),
              "--out", str(tmp_path / "e.csv"), "--roi", "12,5,8,10"])
    assert exc.value.code == 2
