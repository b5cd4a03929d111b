import hashlib
import math
import re
import statistics
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.special
import scipy.stats

from camvitals import evaluation
from camvitals.dsp import TimeSeries
from camvitals.evaluation import (BoxplotStats, TrialRecord, _ci95, _ols,
                                  boxplot_stats, build_report, emit_report,
                                  render_signals, rmse,
                                  segment_trials, skin_tone_gray,
                                  write_trials_csv)
from camvitals.geometry import Rect
from camvitals.ingest import (FormatError, PhysioRecord, TrialEntry,
                              TrialManifest, VideoClip)
from camvitals.synth import SynthConfig, synth_clip

from readers import read_trials_csv

FS = 128.0


def make_physio(n, trigger_hits):
    trig = np.zeros(n, dtype=np.int64)
    for sample, code in trigger_hits:
        trig[sample] = code
    zeros = TimeSeries(np.zeros(n), FS)
    return PhysioRecord(sample_rate=FS, ecg=zeros, resp=zeros, trigger=trig)


def two_trial_manifest():
    return TrialManifest(fps=30.0, width=8, height=8, entries=[
        TrialEntry(1, "gaze", 3, 0, 300, 1),
        TrialEntry(2, "gaze", 4, 300, 300, 2),
    ])


# ------------------------- trial segmentation -------------------------

def test_segment_trials_frozen_spans():
    physio = make_physio(2560, [(0, 1), (1280, 2)])
    spans = segment_trials(physio, two_trial_manifest())
    assert spans == [(0, 1280), (1280, 2560)]


def test_segment_trials_missing_trigger():
    physio = make_physio(2560, [(0, 1)])
    with pytest.raises(ValueError):
        segment_trials(physio, two_trial_manifest())


def test_segment_trials_duplicate_trigger():
    physio = make_physio(2560, [(0, 1), (600, 2), (1280, 2)])
    with pytest.raises(ValueError):
        segment_trials(physio, two_trial_manifest())


def test_segment_trials_record_too_short():
    physio = make_physio(2000, [(0, 1), (1280, 2)])
    with pytest.raises(ValueError):
        segment_trials(physio, two_trial_manifest())


# ------------------------- error metrics -------------------------

def test_rmse_frozen_values():
    assert rmse([(5.0, 5.0)]) == 0.0
    assert rmse([(4.0, 1.0)]) == 3.0
    assert rmse([(3.0, 0.0), (0.0, 0.0)]) == math.sqrt(4.5)


def test_rmse_properties():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pairs = [(float(a), float(b))
                 for a, b in rng.normal(size=(rng.integers(1, 12), 2))]
        v = rmse(pairs)
        assert v >= 0.0
        assert rmse(list(reversed(pairs))) == pytest.approx(v, rel=1e-12)
        assert (v == 0.0) == all(a == b for a, b in pairs)


def test_rmse_rejects_empty():
    with pytest.raises(ValueError):
        rmse([])


# ------------------------- skin tone measurement -------------------------

def test_skin_tone_gray_white_frame():
    clip = VideoClip(np.full((2, 6, 6, 3), 255, dtype=np.uint8), 30.0)
    assert skin_tone_gray(clip, [Rect(0, 0, 6, 6)] * clip.n_frames) == pytest.approx(255.0)


def test_skin_tone_gray_tracks_tone_ratio():
    vals = {}
    for tone in (0.5, 1.0):
        clip, truth = synth_clip(SynthConfig(duration=1.0, tone=tone))
        vals[tone] = skin_tone_gray(clip, [truth.face_box] * clip.n_frames)
    assert vals[1.0] / vals[0.5] == pytest.approx(2.0, rel=0.02)


def test_skin_tone_gray_weights_pixels_not_frames():
    frames = np.zeros((2, 4, 4, 3), dtype=np.uint8)
    frames[0] = 100
    frames[1] = 200
    clip = VideoClip(frames, 30.0)
    rois = [Rect(0, 0, 4, 4), Rect(0, 0, 2, 2)]  # 16 px of 100, 4 px of 200
    expected = (16 * 100 + 4 * 200) / 20
    assert skin_tone_gray(clip, rois) == pytest.approx(expected)


def test_skin_tone_gray_input_validation():
    clip = VideoClip(np.zeros((2, 4, 4, 3), dtype=np.uint8), 30.0)
    with pytest.raises(ValueError):
        skin_tone_gray(clip, [Rect(0, 0, 2, 2)])  # one ROI for two frames
    with pytest.raises(ValueError):
        skin_tone_gray(clip, [Rect(2, 2, 4, 4)] * clip.n_frames)  # spills past the frame


# ------------------------- regression line -------------------------
# the skin regression's fit, as build_report runs it: _ci95 of _ols

def test_linear_fit_recovers_exact_line():
    slope, intercept, ci_s, ci_i = _ci95(3, _ols(np.array([0.0, 1.0, 2.0]),
                                                 np.array([1.0, 3.0, 5.0])))
    assert (slope, intercept) == (2.0, 1.0)
    assert ci_s == 0.0 and ci_i == 0.0


def test_linear_fit_frozen_case():
    # cross-checked against an independent least-squares implementation
    slope, intercept, ci_s, ci_i = _ci95(5, _ols(
        np.array([0.0, 1.0, 2.0, 3.0, 4.0]), np.array([1.0, 3.2, 4.8, 7.1, 9.0])))
    assert slope == pytest.approx(1.9899999999999998, abs=1e-12)
    assert intercept == pytest.approx(1.04, abs=1e-12)
    assert ci_s == pytest.approx(0.17137997843812058, abs=1e-9)
    assert ci_i == pytest.approx(0.41979349930257864, abs=1e-9)


def test_linear_fit_intervals_match_the_scipy_stats_t_quantile():
    # the t quantile comes from scipy.special.stdtrit; the reference is the
    # same OLS formula with scipy.stats.t.ppf, bit for bit
    rng = np.random.default_rng(23)
    for n in range(3, 201):
        x = rng.uniform(40.0, 220.0, size=n)
        y = 0.02 * x + rng.normal(size=n)
        xbar, ybar = float(np.mean(x)), float(np.mean(y))
        sxx = float(np.sum((x - xbar) ** 2))
        slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
        intercept = ybar - slope * xbar
        s2 = float(np.sum((y - (slope * x + intercept)) ** 2)) / (n - 2)
        t = float(scipy.stats.t.ppf(0.975, n - 2))
        want = (slope, intercept, float(t * np.sqrt(s2 / sxx)),
                float(t * np.sqrt(s2 * (1.0 / n + xbar ** 2 / sxx))))
        assert _ci95(n, _ols(x, y)) == want, n


def test_t_quantile_table_is_scipy_stdtrit():
    # every entry bit for bit, one per df of the fits of 3..200 points
    assert len(evaluation._T975) == 198
    for df, t in enumerate(evaluation._T975, start=1):
        assert t.hex() == float(scipy.special.stdtrit(df, 0.975)).hex(), df


@pytest.mark.parametrize("n", [200, 201, 202])   # last table entry, then scipy
def test_linear_fit_matches_the_t_quantile_across_the_table_end(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(40.0, 220.0, size=n)
    y = 0.02 * x + rng.normal(size=n)
    xbar, ybar = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    s2 = float(np.sum((y - (slope * x + intercept)) ** 2)) / (n - 2)
    t = float(scipy.stats.t.ppf(0.975, n - 2))
    want = (slope, intercept, float(t * np.sqrt(s2 / sxx)),
            float(t * np.sqrt(s2 * (1.0 / n + xbar ** 2 / sxx))))
    assert _ci95(n, _ols(x, y)) == want


def test_linear_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        _ols(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_linear_fit_residuals_sum_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        x = rng.normal(size=n)
        if len(set(x.tolist())) < 2:
            continue
        y = rng.normal(size=n)
        slope, intercept, _, _ = _ci95(n, _ols(x, y))
        resid = y - (slope * x + intercept)
        assert abs(resid.sum()) < 1e-9 * max(1.0, np.abs(y).sum())


# ------------------------- box statistics -------------------------

def test_boxplot_stats_frozen_simple():
    st = boxplot_stats([1, 2, 3, 4, 5])
    assert st == BoxplotStats(3.0, 2.0, 4.0, 1.0, 5.0, ())


def test_boxplot_stats_frozen_odd_floats():
    st = boxplot_stats([3.32, 3.62, 4.48])
    assert st.median == 3.62
    assert st.q1 == pytest.approx(3.47)
    assert st.q3 == pytest.approx(4.05)
    assert (st.whisker_lo, st.whisker_hi) == (3.32, 4.48)
    assert st.outliers == ()


def test_boxplot_stats_detects_outlier():
    st = boxplot_stats([1, 2, 3, 4, 100])
    assert (st.q1, st.q3) == (2.0, 4.0)
    assert st.whisker_hi == 4.0
    assert st.outliers == (100.0,)


def test_boxplot_median_matches_statistics_module():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vals = rng.normal(size=int(rng.integers(2, 20))).tolist()
        assert boxplot_stats(vals).median == statistics.median(vals)


def test_boxplot_stats_rejects_empty():
    with pytest.raises(ValueError):
        boxplot_stats([])


# ------------------------- trial records and reports -------------------------

def test_trial_record_validation():
    with pytest.raises(ValueError):
        TrialRecord(1, "gaze", 3, flags=frozenset({"bogus"}))
    with pytest.raises(ValueError):
        TrialRecord(1, "gaze", 3)  # no pair, no flags
    with pytest.raises(ValueError):
        TrialRecord(1, "gaze", 3, hr_est=70.0, hr_gt=71.0, skin_gray=300.0)
    ok = TrialRecord(1, "gaze", 3, flags={"roi_failure"})
    assert ok.flags == frozenset({"roi_failure"})
    TrialRecord(1, "gaze", 3, hr_est=70.0, flags={"out_of_band"})


def sample_records():
    return [
        TrialRecord(1, "respiration", 1, hr_est=10.0, hr_gt=8.0,
                    rr_est=15.0, rr_gt=14.0, skin_gray=100.0),
        TrialRecord(2, "respiration", 1, flags={"roi_failure"},
                    skin_gray=120.0),
        TrialRecord(3, "respiration", 2, hr_est=20.0, hr_gt=19.0,
                    skin_gray=150.0, flags={"hold_breath_excluded"}),
        TrialRecord(4, "workout", 4, hr_est=30.0, hr_gt=27.0,
                    rr_est=20.0, rr_gt=18.0, skin_gray=200.0,
                    flags={"out_of_band"}),
    ]


def test_build_report_flag_semantics():
    report = build_report(sample_records())
    hr = {s.condition: s for s in report.hr_summaries}
    rr = {s.condition: s for s in report.rr_summaries}

    # roi_failure trial 2 is gone everywhere; hold-breath trial 3 keeps HR
    assert hr["respiration"].abs_errors == (2.0, 1.0)
    assert hr["workout"].abs_errors == (3.0,)
    # hold-breath drops trial 3 from RR; out_of_band trial 4 stays scored
    assert rr["respiration"].abs_errors == (1.0,)
    assert rr["workout"].abs_errors == (2.0,)

    assert hr["respiration"].rmse == pytest.approx(math.sqrt(2.5))
    assert sorted(report.skin_points) == [(100.0, 2.0), (150.0, 1.0),
                                          (200.0, 3.0)]
    assert report.skin_fit is not None


def test_build_report_requires_records():
    with pytest.raises(ValueError):
        build_report([])


def test_build_report_no_fit_for_two_skin_points():
    records = sample_records()[:1] + [
        TrialRecord(5, "respiration", 1, hr_est=9.0, hr_gt=8.0,
                    skin_gray=100.0)]
    report = build_report(records)
    assert len(report.skin_points) == 2
    assert report.skin_fit is None


# ------------------------- CSV round trips -------------------------

def test_trials_csv_round_trip(tmp_path):
    path = tmp_path / "trials.csv"
    records = sample_records()
    write_trials_csv(path, records)
    assert read_trials_csv(path) == records
    first = path.read_bytes()
    write_trials_csv(path, records)
    assert path.read_bytes() == first


def test_trials_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trials_csv(path)


@pytest.mark.parametrize("row,message", [
    ("1,gaze,3,1.0", "expected 9 cells, got 4"),
    ("1,gaze,3,1.0,1.0,,,abc,", "skin_gray 'abc' is not a number"),
    ("1,gaze,three,1.0,1.0,,,,", "task 'three' is not a number"),
    ("1,gaze,3,1.0,1.0,,,,odd_flag", r"unknown flags \['odd_flag'\]"),
])
def test_trials_csv_names_the_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "trials.csv"
    write_trials_csv(path, sample_records()[:1])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: {message}$"):
        read_trials_csv(path)


def test_summary_csv_layout(tmp_path):
    emit_report(sample_records(), tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == ("kind,signal,condition,n,rmse,median,q1,q3,"
                        "whisker_lo,whisker_hi,n_outliers,slope,intercept,"
                        "ci95_slope,ci95_intercept")
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["condition_stats"] * 4 + ["skin_regression"]
    hr_resp = lines[1].split(",")
    assert hr_resp[1:4] == ["hr", "respiration", "2"]


# ------------------------- figures -------------------------

def test_emit_report_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_report(sample_records(), a)
    emit_report(sample_records(), b)
    names = ["trials.csv", "summary.csv", "hr_boxplot.svg", "rr_boxplot.svg",
             "skin_scatter.svg"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_emit_report_fits_the_skin_regression_once(tmp_path, monkeypatch):
    calls = []
    ols = evaluation._ols

    def counting(x, y):
        calls.append(len(x))
        return ols(x, y)

    monkeypatch.setattr(evaluation, "_ols", counting)
    emit_report(sample_records(), tmp_path)
    assert calls == [3]
    # the bytes written when the figure made its own second fit
    assert (tmp_path / "summary.csv").read_text().splitlines()[-1] == (
        "skin_regression,hr,all,3,,,,,,,,0.01,0.5,0.22007792174426874,34.21250328874686")
    assert hashlib.sha256((tmp_path / "skin_scatter.svg").read_bytes()).hexdigest() == (
        "5a0e0887aac8724b6b29e513eb86b978351f247c96f8bfe20f4c185c706463b0")


def test_report_figures_are_valid_xml(tmp_path):
    emit_report(sample_records(), tmp_path)
    for name in ("hr_boxplot.svg", "rr_boxplot.svg", "skin_scatter.svg"):
        root = ET.fromstring((tmp_path / name).read_text())
        assert root.tag.endswith("svg")


def test_render_signals_layout():
    ts = TimeSeries(np.sin(np.linspace(0, 6.0, 120)), 30.0)
    svg = render_signals([("pulse", ts), ("breath", ts)], "traces")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.count("<polyline") >= 2
    assert "traces" in svg and "pulse" in svg
    with pytest.raises(ValueError):
        render_signals([], "empty")
