import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.dsp import SignalTooShort, TimeSeries, estimate_rate
from camvitals.groundtruth import ecg_peaks, gt_hr_flagged, ppg_like
from camvitals.synth import synth_ecg, synth_resp

FS = 128.0
CFG = PipelineConfig()


def generated_beats(hr_bpm, duration, jitter, seed):
    """Reproduce the beat times the ECG generator lays down (its interval
    draws come first in the stream, so amplitude jitter never shifts them)."""
    rng = np.random.default_rng(seed)
    period = 60.0 / hr_bpm
    beats = []
    t = 0.5 * period
    while t < duration:
        beats.append(t)
        t += period * (1.0 + jitter * rng.uniform(-1.0, 1.0))
    return beats


# ------------------------- peak detection -------------------------

@pytest.mark.parametrize("hr", [50, 70, 90, 120, 150])
@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_ecg_peak_count_matches_generated_beats(hr, jitter):
    ecg = synth_ecg(hr, FS, 20.0, jitter=jitter, seed=hr)
    expected = generated_beats(hr, 20.0, jitter, seed=hr)
    assert len(ecg_peaks(ecg, CFG)) == len(expected)


def test_ecg_peaks_invariant_to_amplitude_jitter():
    clean = synth_ecg(70, FS, 20.0, jitter=0.05, seed=1)
    wobbly = synth_ecg(70, FS, 20.0, jitter=0.05, seed=1, amp_jitter=0.1)
    assert len(ecg_peaks(clean, CFG)) == len(ecg_peaks(wobbly, CFG))


def test_ecg_peaks_positions_near_beat_times():
    ecg = synth_ecg(60, FS, 10.0, seed=0)
    beats = np.array(generated_beats(60, 10.0, 0.0, seed=0))
    times = ecg_peaks(ecg, CFG)
    assert len(times) == len(beats)
    assert np.all(np.abs(times - beats) < 0.05)


def test_refractory_keeps_larger_of_close_peaks():
    # regular train plus a smaller partner 0.1 s after the 1.5 s beat;
    # the partner falls inside the 0.25 s refractory window and loses
    t = np.arange(int(4 * FS)) / FS
    x = np.zeros_like(t)
    for center, amp in ((0.5, 1.0), (1.5, 1.0), (1.6, 0.6), (2.5, 1.0), (3.5, 1.0)):
        x += amp * np.exp(-((t - center) ** 2) / (2 * 0.01 ** 2))
    peaks = ecg_peaks(TimeSeries(x, FS), CFG)
    assert len(peaks) == 4
    assert np.all(np.abs(peaks - np.array([0.5, 1.5, 2.5, 3.5])) < 0.05)


def test_ecg_peaks_errors():
    with pytest.raises(SignalTooShort, match="need >= 2 s of ECG, got 1.000 s"):
        ecg_peaks(TimeSeries(np.zeros(128), FS), CFG)
    with pytest.raises(ValueError):
        ecg_peaks(TimeSeries(np.zeros(1024), FS), CFG)  # flat, no peaks


def test_ecg_peaks_are_times_of_sample_indices():
    ecg = synth_ecg(60, FS, 10.0, seed=0)
    times = ecg_peaks(ecg, CFG)
    indices = np.round(times * FS).astype(np.int64)
    assert times.tobytes() == (indices / FS).tobytes()


# ------------------------- surrogate pulse curve -------------------------

def test_ppg_like_requires_increasing_peak_times():
    for indices in ([5, 5, 9], [9, 5, 12]):
        with pytest.raises(ValueError, match="knot times must be strictly increasing"):
            ppg_like(np.array(indices) / FS, FS, 1.0)


def test_ppg_like_hits_plus_one_at_peaks_minus_one_between():
    indices = np.array([64, 192, 320, 448])
    ts = ppg_like(indices / FS, FS, 5.0)
    assert ts.sample_rate == FS
    for idx in indices:
        assert ts.samples[idx] == pytest.approx(1.0, abs=1e-9)
    mids = [128, 256, 384]
    for m in mids:
        assert ts.samples[m] == pytest.approx(-1.0, abs=1e-9)


def test_ppg_like_needs_three_peaks():
    with pytest.raises(ValueError):
        ppg_like(np.array([10, 50]) / FS, FS, 1.0)


def test_ppg_like_overshoot_stays_bounded_on_generated_trains():
    for seed, hr, jitter in ((0, 55, 0.1), (1, 80, 0.1), (2, 120, 0.05), (3, 150, 0.0)):
        ecg = synth_ecg(hr, FS, 20.0, jitter=jitter, seed=seed)
        ts = ppg_like(ecg_peaks(ecg, CFG), FS, 20.0)
        assert np.max(np.abs(ts.samples)) <= 1.25


# ------------------------- reference rates -------------------------

@pytest.mark.parametrize("hr", [50, 70, 90, 120, 150])
def test_gt_hr_matches_inter_peak_rate(hr):
    ecg = synth_ecg(hr, FS, 20.0, jitter=0.0, seed=hr + 10)
    intervals = np.diff(ecg_peaks(ecg, CFG))
    inter_peak_bpm = 60.0 / float(np.median(intervals))
    assert gt_hr_flagged(ecg, CFG)[0] == pytest.approx(inter_peak_bpm, abs=1.0)


def belt_rate(resp, cfg=CFG):
    """(brpm, flags) of a belt channel, as `camvitals groundtruth` computes it."""
    return estimate_rate(resp, cfg.rr_bandpass, cfg.physio_stft)


@pytest.mark.parametrize("rr", [13.0, 15.0, 22.0])
def test_gt_rr_matches_injected_sinusoid(rr):
    resp = synth_resp(rr, FS, 20.0, seed=int(rr))
    assert belt_rate(resp)[0] == pytest.approx(rr, abs=0.5)


def test_gt_rr_flags_flat_belt():
    resp = synth_resp(15.0, FS, 20.0, seed=5, amplitude=0.0)
    _, flags = belt_rate(resp)
    assert "out_of_band" in flags
