"""End-to-end acceptance gates for the release.

Each test is one acceptance criterion; `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion. These intentionally re-derive
their expectations instead of importing them from the unit suites.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import blob_frame, hr_estimate, make_toy_cascade, rr_estimate

from camvitals.cli import main
from camvitals.detect import detect_faces, group_rects, integral_image, rect_sum
from camvitals.config import PipelineConfig
from camvitals.dsp import (DEFAULT_FILTER_ORDER, VIDEO_STFT, BandpassSpec,
                           TimeSeries, bandpass, estimate_rate, stft_peak_freqs)
from camvitals.evaluation import (TrialRecord, build_report, emit_report,
                                  skin_tone_gray)
from camvitals.geometry import Rect
from camvitals.groundtruth import ecg_peaks, gt_hr_flagged
from camvitals.ingest import in_order, parse_manifest
from camvitals.synth import SynthConfig, synth_clip, synth_ecg, synth_resp
from camvitals.vitals import hr_roi, rr_roi

HR_BAND = (0.7, 2.5)
# filter quality probes for HR_BAND: a passband tone that must come through
# at unit gain and a stopband tone that must lose at least 20 dB against it
PASSBAND_PROBE_HZ = 1.2
STOPBAND_PROBE_HZ = 3.5


def _hr_error(hr, duration, noise_sigma, seed, tone=1.0):
    cfg = SynthConfig(hr_bpm=hr, duration=duration, tone=tone,
                      noise_sigma=noise_sigma, seed=seed)
    clip, truth = synth_clip(cfg)
    rois = [hr_roi(truth.face_box)] * clip.n_frames
    return abs(hr_estimate(clip, rois)[0] - hr), clip, truth


def _in_workers(fn, cases):
    """[fn(*case) for case in cases], with the calls spread over the worker
    processes of ingest.in_order, which runs the CLI's trials. Each case is
    an independent clip, so this only changes how long the test takes."""
    entries = [SimpleNamespace(trial_id=i, case=case) for i, case in enumerate(cases, 1)]
    return list(in_order(lambda entry: fn(*entry.case), entries))


def test_criterion_1_synthetic_hr_recovery():
    started = time.monotonic()
    for hr in (60.0, 72.0, 90.0, 120.0):
        hits = 0
        for seed in range(20):
            err, _, _ = _hr_error(hr, 20.0, 1.0, seed=int(hr) * 100 + seed)
            hits += err <= 1.0
        assert hits >= 19, f"hr={hr}: only {hits}/20 trials within 1 bpm"
    assert time.monotonic() - started < 60.0


def _rr_error(rr, seed):
    cfg = SynthConfig(rr_brpm=rr, duration=20.0, noise_sigma=1.0, seed=seed)
    clip, truth = synth_clip(cfg)
    rois = [rr_roi(truth.face_box, clip.height, clip.width)] * clip.n_frames
    return abs(rr_estimate(clip, rois)[0] - rr)


def test_criterion_2_synthetic_rr_recovery():
    rrs = (12.0, 15.0, 20.0, 24.0)
    errs = _in_workers(_rr_error, [(rr, int(rr) * 100 + seed)
                                   for rr in rrs for seed in range(20)])
    for i, rr in enumerate(rrs):
        hits = sum(err <= 1.0 for err in errs[20 * i:20 * (i + 1)])
        assert hits >= 19, f"rr={rr}: only {hits}/20 trials within 1 brpm"

    # a motionless chest yields an undefined estimate, which the estimator
    # flags; the pipeline additionally marks task-2 trials so the report
    # never scores them
    cfg = SynthConfig(chest_amp=0.0, duration=20.0, noise_sigma=0.0, seed=0)
    clip, truth = synth_clip(cfg)
    rois = [rr_roi(truth.face_box, clip.height, clip.width)] * clip.n_frames
    _, flags = rr_estimate(clip, rois)
    assert "out_of_band" in flags
    records = [
        TrialRecord(1, "respiration", 1, rr_est=15.0, rr_gt=14.5,
                    hr_est=70.0, hr_gt=70.0),
        TrialRecord(2, "respiration", 2, rr_est=15.0, rr_gt=14.5,
                    hr_est=70.0, hr_gt=70.0, flags={"hold_breath_excluded"}),
    ]
    report = build_report(records)
    assert report.rr_summaries[0].n == 1


def test_criterion_3_ground_truth_agreement():
    cfg = PipelineConfig()
    for hr in (50.0, 70.0, 90.0, 120.0, 150.0):
        ecg = synth_ecg(hr, 128.0, 20.0, jitter=0.0, seed=int(hr))
        inter_peak = 60.0 / float(np.median(np.diff(ecg_peaks(ecg, cfg))))
        assert abs(gt_hr_flagged(ecg, cfg)[0] - inter_peak) <= 1.0
    for rr in (13.0, 18.0, 24.0):
        resp = synth_resp(rr, 128.0, 20.0, seed=int(rr))
        brpm, _ = estimate_rate(resp, cfg.rr_bandpass, cfg.physio_stft)
        assert abs(brpm - rr) <= 0.5


def _hr_error_and_skin_gray(hr, seed, tone):
    err, clip, truth = _hr_error(hr, 20.0, 2.0, seed=seed, tone=tone)
    return err, skin_tone_gray(clip, [truth.face_box] * clip.n_frames)


def test_criterion_4_skin_tone_error_trend(tmp_path):
    cases = [(60.0 + (seed * 7) % 60, seed, tone)
             for tone in (0.3, 0.5, 0.7, 0.9, 1.0) for seed in range(20)]
    results = _in_workers(_hr_error_and_skin_gray, cases)
    records = [TrialRecord(trial_id, "respiration", 1, hr_est=hr + err, hr_gt=hr,
                           skin_gray=skin_gray)
               for trial_id, ((hr, _, _), (err, skin_gray)) in enumerate(zip(cases, results), 1)]
    report = emit_report(records, tmp_path)
    slope = report.skin_fit[0]
    assert slope < 0.0, f"error should fall with brightness, slope={slope}"
    svg = (tmp_path / "skin_scatter.svg").read_text()
    assert "<polygon" in svg      # confidence band
    assert "<polyline" in svg     # fitted line


def test_criterion_5_short_trials_are_harder():
    rng = np.random.default_rng(42)
    hrs = rng.uniform(60.0, 100.0, 20)
    errs = _in_workers(lambda *case: _hr_error(*case)[0],
                       [(float(hr), duration, 6.0, offset + i)
                        for duration, offset in ((10.0, 0), (20.0, 100))
                        for i, hr in enumerate(hrs)])
    err_10, err_20 = errs[:20], errs[20:]
    assert np.mean(err_10) >= np.mean(err_20)


def test_criterion_6_detection_oracles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        h, w = rng.integers(2, 40, 2)
        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
        ii = integral_image(img)
        x = int(rng.integers(0, w))
        y = int(rng.integers(0, h))
        rw = int(rng.integers(1, w - x + 1))
        rh = int(rng.integers(1, h - y + 1))
        assert rect_sum(ii, Rect(x, y, rw, rh)) == int(
            img[y:y + rh, x:x + rw].sum())

    cascade = make_toy_cascade()
    frame = blob_frame(24, 24, Rect(10, 10, 4, 4))
    best = detect_faces(cascade, frame)[0]
    cx, cy = best.x + best.w / 2, best.y + best.h / 2
    assert abs(cx - 12) <= 1 and abs(cy - 12) <= 1

    near = [Rect(10, 10, 20, 20), Rect(11, 12, 20, 20), Rect(9, 11, 21, 19)]
    assert group_rects(near, min_neighbors=2) == [Rect(10, 11, 20, 20)]
    apart = [Rect(0, 0, 10, 10), Rect(1, 0, 10, 10),
             Rect(60, 60, 10, 10), Rect(61, 60, 10, 10)]
    assert len(group_rects(apart, min_neighbors=1)) == 2
    assert group_rects([Rect(0, 0, 10, 10)], min_neighbors=1) == []


def _phase_at(ts, freq):
    t = np.arange(len(ts)) / ts.sample_rate
    mid = slice(len(ts) // 4, 3 * len(ts) // 4)
    z = np.sum(ts.samples[mid] * np.exp(-2j * np.pi * freq * t[mid]))
    return float(np.angle(z))


def test_criterion_7_dsp_properties():
    fs, dur = 30.0, 20.0
    t = np.arange(int(dur * fs)) / fs
    spec = BandpassSpec(*HR_BAND, DEFAULT_FILTER_ORDER)

    tone_in = TimeSeries(np.sin(2 * np.pi * PASSBAND_PROBE_HZ * t), fs)
    tone_out = bandpass(tone_in, spec)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    gain = float(np.max(np.abs(tone_out.samples[mid])))
    assert abs(gain - 1.0) <= 0.05
    assert abs(_phase_at(tone_out, PASSBAND_PROBE_HZ)
               - _phase_at(tone_in, PASSBAND_PROBE_HZ)) < 1e-3

    stop_out = bandpass(TimeSeries(np.sin(2 * np.pi * STOPBAND_PROBE_HZ * t), fs),
                        spec)
    rms_pass = float(np.sqrt(np.mean(tone_out.samples[mid] ** 2)))
    rms_stop = float(np.sqrt(np.mean(stop_out.samples[mid] ** 2)))
    assert 20.0 * np.log10(rms_pass / rms_stop) >= 20.0

    for tone_hz in (0.85, 1.23, 2.2):
        ts = TimeSeries(np.sin(2 * np.pi * tone_hz * t), fs)
        freqs = stft_peak_freqs(ts, VIDEO_STFT, HR_BAND)
        assert np.all(np.abs(np.asarray(freqs) - tone_hz) <= 0.02)

    rng = np.random.default_rng(3)
    base = np.sin(2 * np.pi * 1.2 * t) + 0.1 * rng.standard_normal(len(t))
    reference = estimate_rate(TimeSeries(base, fs), spec, VIDEO_STFT)
    for scale in (2.0 ** -20, 0.5, 2.0, 1024.0, 2.0 ** 40):
        scaled = estimate_rate(TimeSeries(scale * base, fs), spec, VIDEO_STFT)
        assert scaled == reference  # rate and flags, bit-exact under lossless scaling


ROI = "manual:12,5,8,10"


def run_paper_pipeline(root):
    ds = root / "ds"
    assert main(["synth", "--out", str(ds), "--protocol", "paper",
                 "--seed", "7", "--width", "32", "--height", "32",
                 "--noise-sigma", "1.0"]) == 0
    assert main(["estimate", "--data", str(ds), "--out", str(root / "est.csv"),
                 "--roi", ROI, "--crop", "0,0,0,0"]) == 0
    assert main(["groundtruth", "--data", str(ds),
                 "--out", str(root / "gt.csv")]) == 0
    assert main(["evaluate", "--estimates", str(root / "est.csv"),
                 "--groundtruth", str(root / "gt.csv"),
                 "--out", str(root / "report")]) == 0
    return root


@pytest.fixture(scope="module")
def paper_runs(tmp_path_factory):
    a = run_paper_pipeline(tmp_path_factory.mktemp("run_a"))
    b = run_paper_pipeline(tmp_path_factory.mktemp("run_b"))
    return a, b


def test_criterion_8_pipeline_reproducibility(paper_runs):
    a, b = paper_runs
    for name in ("trials.csv", "summary.csv", "hr_boxplot.svg",
                 "rr_boxplot.svg", "skin_scatter.svg"):
        assert (a / "report" / name).read_bytes() == \
            (b / "report" / name).read_bytes(), f"{name} differs between runs"


def test_criterion_9_protocol_arithmetic(paper_runs):
    a, _ = paper_runs
    manifest = parse_manifest(a / "ds" / "manifest.txt")
    respiratory = [e for e in manifest.entries
                   if e.condition in ("respiration", "workout")]
    gaze = [e for e in manifest.entries if e.condition == "gaze"]
    assert len(respiratory) == 30
    assert len(gaze) == 50
    assert sum(e.frame_count / manifest.fps for e in respiratory) == 600.0
    assert sum(e.frame_count / manifest.fps for e in gaze) == 500.0
