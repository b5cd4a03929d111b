"""Tests of the benchmark's own code: computed work counts against the
package's real work, the tracer's patching, the face-matched cascade and
the metric lists in BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import render
import run
import tracer
from camvitals import cli, detect, dsp, vitals
from camvitals.detect import Cascade, Stage, Tree
from camvitals.dsp import StftSpec, TimeSeries
from camvitals.geometry import Rect
from camvitals.ingest import to_grayscale, write_ppm
from camvitals.synth import SynthConfig, synth_clip

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def one_tree_cascade(w, h):
    tree = Tree(rects=((Rect(0, 0, w, h), -1.0), (Rect(1, 1, w - 2, h - 2), 1.0)),
                threshold=5.0, pass_value=1.0, fail_value=0.0)
    return Cascade(window_w=w, window_h=h, stages=(Stage(0.5, (tree,)),))


@pytest.mark.parametrize("shape,window,scale_factor,min_size", [
    ((24, 24), (8, 10), 1.1, 0),
    ((20, 31), (6, 6), 1.25, 0),
    ((32, 18), (5, 7), 1.1, 9),
    ((16, 16), (16, 16), 1.5, 0),
])
def test_windows_scanned_matches_evaluate_window_calls(monkeypatch, shape, window,
                                                       scale_factor, min_size):
    cascade = one_tree_cascade(*window)
    gray = np.random.default_rng(0).integers(0, 256, shape, dtype=np.uint8)
    calls = []
    original = detect.evaluate_window

    def counting(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(detect, "evaluate_window", counting)
    detect.detect_faces(cascade, gray, scale_factor=scale_factor, min_size=min_size)
    assert len(calls) > 0
    assert tracer.scan_windows(cascade, shape, scale_factor, min_size) == len(calls)


@pytest.mark.parametrize("n,spec", [
    (256, StftSpec(256, 30, 4096)),
    (300, StftSpec(256, 30, 4096)),
    (2560, StftSpec(1024, 128, 8192)),
    (1151, StftSpec(1024, 128, 8192)),
])
def test_stft_windows_matches_peak_count(n, spec):
    t = np.arange(n) / 30.0
    ts = TimeSeries(np.sin(2 * np.pi * 1.2 * t), 30.0)
    assert tracer.stft_windows(n, spec) == len(dsp.stft_peak_freqs(ts, spec, (0.7, 2.5)))


@pytest.mark.parametrize("width,height", [(32, 32), (320, 240), (7, 1000)])
def test_ppm_file_bytes_matches_written_file(tmp_path, width, height):
    path = tmp_path / "f.ppm"
    write_ppm(path, np.zeros((height, width, 3), dtype=np.uint8))
    assert tracer.ppm_file_bytes(width, height) == path.stat().st_size


def test_tracer_patches_callers_and_restores():
    originals = (cli.read_frame_range, vitals.bandpass, detect.to_grayscale)
    t = tracer.Tracer()
    with t.installed():
        assert cli.read_frame_range is not originals[0]
        assert vitals.bandpass is not originals[1]
        assert detect.to_grayscale is not originals[2]
        ts = TimeSeries(np.sin(np.arange(600) / 5.0), 30.0)
        vitals.bandpass(ts, dsp.BandpassSpec(0.7, 2.5))
    assert (cli.read_frame_range, vitals.bandpass, detect.to_grayscale) == originals
    metrics = t.metrics()
    assert metrics["dsp.bandpass_calls"] == (1, "count")
    assert metrics["dsp.bandpass_s"][0] > 0


def test_face_cascade_finds_face_box():
    clip, _ = synth_clip(SynthConfig(width=24, height=24, duration=0.5))
    cascade = render.face_cascade(24, 24)
    assert len(cascade.stages) >= 2
    want = render.face_box(24, 24)
    for gray in to_grayscale(clip)[::5]:
        assert detect.detect_faces(cascade, gray)[:1] == [want]


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    traced = {name: unit for name, (_, unit) in tracer.Tracer().metrics().items()}
    traced.update(run.TRACE_EXTRAS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == traced
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def write_round_trip(out, ids, hr="72.5"):
    out.mkdir()
    (out / "est.csv").write_text("trial_id,condition,task,hr_est,rr_est,skin_gray,flags\n"
                                 + "".join(f"{i},gaze,3,{hr},15.5,160.0,\n" for i in ids))
    (out / "gt.csv").write_text("trial_id,condition,task,hr_gt,rr_gt,flags\n"
                                + "".join(f"{i},gaze,3,72.0,15.0,\n" for i in ids))


def test_correctness_gate(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.txt").write_text("fps=30.0\nwidth=8\nheight=8\n"
                                       "1 gaze 3 0 300 1\n2 gaze 3 300 300 2\n")
    (data / "truth.csv").write_text("trial_id,hr_bpm,rr_brpm\n1,72.0,15.0\n2,70.0,16.0\n")
    tally = run.Tally()
    write_round_trip(tmp_path / "a", [1, 2])
    est = run.check_outputs(tmp_path / "a", data, None, tally)
    assert run.accuracy(est, data) == (1.5, 0.5)
    assert (tally.attempted, tally.failed) == (2, 0)
    write_round_trip(tmp_path / "b", [1, 2], hr="72.6")
    with pytest.raises(run.CheckFailed, match="differ"):
        run.check_outputs(tmp_path / "b", data, run.digest(tmp_path / "a"), tally)
    write_round_trip(tmp_path / "c", [2, 1])
    with pytest.raises(run.CheckFailed, match="manifest"):
        run.check_outputs(tmp_path / "c", data, None, tally)
    write_round_trip(tmp_path / "d", [1, 2], hr="")
    run.check_outputs(tmp_path / "d", data, None, tally)
    assert tally.failed == 2
    e = tmp_path / "e"
    write_round_trip(e, [1, 2])
    for r, report in ((1, "1 report\n"), (2, "2 reports\n")):
        (e / f"gt{r}.csv").write_bytes((e / "gt.csv").read_bytes())
        (e / f"report{r}").mkdir()
        (e / f"report{r}" / "summary.txt").write_text(report)
    (e / "report").mkdir()
    (e / "report" / "summary.txt").write_text("1 report\n")
    with pytest.raises(run.CheckFailed, match="report2 differs"):
        run.check_outputs(e, data, None, tally)
    (e / "report2" / "summary.txt").write_text("1 report\n")
    run.check_outputs(e, data, None, tally)


def test_hit_check_runs_once_per_input(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "BENCH", tmp_path / "bench")
    monkeypatch.setattr(run, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(run, "step", lambda argv, log, deadline: calls.append(argv))
    for name in ("src/camvitals/detect.py", "bench/render.py", "data/manifest.txt",
                 "data/cascade.json", "data/frame_000000.ppm"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(name)
    run.check_hits(tmp_path / "data", deadline=0)
    run.check_hits(tmp_path / "data", deadline=0)
    assert len(calls) == 1
    (tmp_path / "data/frame_000000.ppm").write_text("another frame")
    run.check_hits(tmp_path / "data", deadline=0)
    assert len(calls) == 2


def test_missing_package_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "cascade-face", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""
