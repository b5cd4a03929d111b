import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.dsp import SignalTooShort, TimeSeries, estimate_rate
from camvitals.groundtruth import PeakList, ecg_peaks, gt_hr_flagged, ppg_like
from camvitals.synth import synth_ecg, synth_resp

FS = 128.0


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
    assert len(ecg_peaks(ecg)) == len(expected)


def test_ecg_peaks_invariant_to_amplitude_jitter():
    clean = synth_ecg(70, FS, 20.0, jitter=0.05, seed=1)
    wobbly = synth_ecg(70, FS, 20.0, jitter=0.05, seed=1, amp_jitter=0.1)
    assert len(ecg_peaks(clean)) == len(ecg_peaks(wobbly))


def test_ecg_peaks_positions_near_beat_times():
    ecg = synth_ecg(60, FS, 10.0, seed=0)
    beats = np.array(generated_beats(60, 10.0, 0.0, seed=0))
    times = ecg_peaks(ecg).times()
    assert len(times) == len(beats)
    assert np.all(np.abs(times - beats) < 0.05)


def test_refractory_keeps_larger_of_close_peaks():
    # regular train plus a smaller partner 0.1 s after the 1.5 s beat;
    # the partner falls inside the 0.25 s refractory window and loses
    t = np.arange(int(4 * FS)) / FS
    x = np.zeros_like(t)
    for center, amp in ((0.5, 1.0), (1.5, 1.0), (1.6, 0.6), (2.5, 1.0), (3.5, 1.0)):
        x += amp * np.exp(-((t - center) ** 2) / (2 * 0.01 ** 2))
    peaks = ecg_peaks(TimeSeries(x, FS))
    assert len(peaks) == 4
    assert np.all(np.abs(peaks.times() - np.array([0.5, 1.5, 2.5, 3.5])) < 0.05)


def test_ecg_peaks_errors():
    with pytest.raises(SignalTooShort, match="need >= 2 s of ECG, got 1.000 s"):
        ecg_peaks(TimeSeries(np.zeros(128), FS))
    with pytest.raises(ValueError):
        ecg_peaks(TimeSeries(np.zeros(1024), FS))  # flat, no peaks


def test_peaklist_requires_increasing_indices():
    with pytest.raises(ValueError):
        PeakList(np.array([5, 5, 9]), FS)
    with pytest.raises(ValueError):
        PeakList(np.array([9, 5]), FS)
    pl = PeakList(np.array([5, 9]), FS)
    assert np.allclose(pl.times(), [5 / FS, 9 / FS])


# ------------------------- surrogate pulse curve -------------------------

def test_ppg_like_hits_plus_one_at_peaks_minus_one_between():
    peaks = PeakList(np.array([64, 192, 320, 448]), FS)
    ts = ppg_like(peaks, 5.0)
    assert ts.sample_rate == FS
    for idx in peaks.indices:
        assert ts.samples[idx] == pytest.approx(1.0, abs=1e-9)
    mids = [128, 256, 384]
    for m in mids:
        assert ts.samples[m] == pytest.approx(-1.0, abs=1e-9)


def test_ppg_like_needs_three_peaks():
    with pytest.raises(ValueError):
        ppg_like(PeakList(np.array([10, 50]), FS), 1.0)


def test_ppg_like_overshoot_stays_bounded_on_generated_trains():
    for seed, hr, jitter in ((0, 55, 0.1), (1, 80, 0.1), (2, 120, 0.05), (3, 150, 0.0)):
        ecg = synth_ecg(hr, FS, 20.0, jitter=jitter, seed=seed)
        peaks = ecg_peaks(ecg)
        ts = ppg_like(peaks, 20.0)
        assert np.max(np.abs(ts.samples)) <= 1.25


# ------------------------- reference rates -------------------------

@pytest.mark.parametrize("hr", [50, 70, 90, 120, 150])
def test_gt_hr_matches_inter_peak_rate(hr):
    ecg = synth_ecg(hr, FS, 20.0, jitter=0.0, seed=hr + 10)
    peaks = ecg_peaks(ecg)
    intervals = np.diff(peaks.times())
    inter_peak_bpm = 60.0 / float(np.median(intervals))
    assert gt_hr_flagged(ecg)[0] == pytest.approx(inter_peak_bpm, abs=1.0)


def belt_rate(resp, cfg=PipelineConfig()):
    """(brpm, flags) of a belt channel, as `camvitals groundtruth` computes it."""
    return estimate_rate(resp, cfg.rr_band, cfg.physio_stft, cfg.filter_order)


@pytest.mark.parametrize("rr", [13.0, 15.0, 22.0])
def test_gt_rr_matches_injected_sinusoid(rr):
    resp = synth_resp(rr, FS, 20.0, seed=int(rr))
    assert belt_rate(resp)[0] == pytest.approx(rr, abs=0.5)


def test_gt_rr_flags_flat_belt():
    resp = synth_resp(15.0, FS, 20.0, seed=5, amplitude=0.0)
    _, flags = belt_rate(resp)
    assert "out_of_band" in flags
