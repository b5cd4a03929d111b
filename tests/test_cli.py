import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import make_toy_cascade

from camvitals.cli import main
from camvitals.detect import load_cascade, save_cascade
from camvitals.ingest import (TrialEntry, TrialManifest, frame_path,
                              write_manifest, write_ppm)
from test_detect import OPENCV_XML

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
    for name in ("truth.csv", "manifest.txt", "physio.csv"):
        assert (twin / name).read_bytes() == (dataset / name).read_bytes()
    assert frame_path(twin, 0).read_bytes() == frame_path(dataset, 0).read_bytes()


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


def test_estimate_requires_exactly_one_roi_source(dataset, tmp_path, capsys):
    out = str(tmp_path / "est.csv")
    cascade_json = tmp_path / "cascade.json"
    save_cascade(cascade_json, make_toy_cascade())
    neither = main(["estimate", "--data", str(dataset), "--out", out])
    both = main(["estimate", "--data", str(dataset), "--out", out,
                 "--roi", ROI, "--cascade", str(cascade_json)])
    assert neither == 2 and both == 2
    assert "exactly one of" in capsys.readouterr().err


def test_corrupt_frame_exits_one(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--out", str(ds), "--duration", "1", "--width", "32",
                 "--height", "32"]) == 0
    victim = frame_path(ds, 5)
    victim.write_bytes(victim.read_bytes()[:40])
    rc = main(["estimate", "--data", str(ds), "--out", str(tmp_path / "e.csv"),
               "--roi", ROI, "--crop", NOCROP])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "frame_000005.ppm" in err


@pytest.mark.parametrize("command", ["estimate", "groundtruth"])
def test_trial_too_short_for_its_window_is_named(command, tmp_path, capsys):
    ds = tmp_path / "ds"
    # 180 frames, under the 256-frame video window
    assert main(["synth", "--out", str(ds), "--duration", "6", "--width", "32",
                 "--height", "32"]) == 0
    args = [command, "--data", str(ds), "--out", str(tmp_path / "out.csv")]
    if command == "estimate":
        args += ["--roi", ROI, "--crop", NOCROP]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trial 1: ")
    assert "shorter than window" in err


def test_crop_too_wide_is_not_blamed_on_a_trial(dataset, tmp_path, capsys):
    # the default crop (300,300,200,0) is for full-HD frames
    capsys.readouterr()
    assert main(["estimate", "--data", str(dataset), "--out", str(tmp_path / "e.csv"),
                 "--roi", ROI]) == 1
    assert capsys.readouterr().err == "error: crop (300,300,200,0) exceeds 32x32 frame\n"


def test_missing_physio_exits_one(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["synth", "--out", str(ds), "--duration", "1", "--width", "32",
                 "--height", "32"]) == 0
    (ds / "physio.csv").unlink()
    rc = main(["groundtruth", "--data", str(ds), "--out", str(tmp_path / "g.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_mismatched_trials(estimates_csv, groundtruth_csv,
                                            tmp_path, capsys):
    renumbered = tmp_path / "gt.csv"
    text = groundtruth_csv.read_text().splitlines()
    body = text[1].split(",")
    body[0] = "7"
    renumbered.write_text(text[0] + "\n" + ",".join(body) + "\n")
    rc = main(["evaluate", "--estimates", str(estimates_csv),
               "--groundtruth", str(renumbered), "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "trial_id 1" in err and "estimates only" in err


def test_evaluate_rejects_foreign_header(estimates_csv, tmp_path, capsys):
    bogus = tmp_path / "gt.csv"
    bogus.write_text("a,b\n1,2\n")
    rc = main(["evaluate", "--estimates", str(estimates_csv),
               "--groundtruth", str(bogus), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "header" in capsys.readouterr().err


def test_all_trials_failing_detection_exits_one(tmp_path, capsys):
    ds = tmp_path / "blank"
    ds.mkdir()
    manifest = TrialManifest(fps=30.0, width=8, height=8,
                             entries=[TrialEntry(1, "gaze", 3, 0, 10, 1)])
    write_manifest(ds / "manifest.txt", manifest)
    for i in range(10):
        write_ppm(frame_path(ds, i), np.zeros((8, 8, 3), dtype=np.uint8))
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


def test_bad_roi_spec_exits_two(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", str(dataset),
              "--out", str(tmp_path / "e.csv"), "--roi", "12,5,8,10"])
    assert exc.value.code == 2
