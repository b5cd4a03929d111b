import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.dsp import SignalTooShort, TimeSeries, detrend, estimate_rate
from camvitals.groundtruth import ecg_peaks, gt_hr_flagged, ppg_like
from camvitals.synth import synth_ecg, synth_resp

FS = 128.0
CFG = PipelineConfig()


def generated_beats(hr_bpm, duration, jitter, seed):
    """Reproduce the beat times the ECG generator lays down."""
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
    # each beat's bump scaled by its own factor in [0.9, 1.1]: the bumps
    # are far narrower than a beat interval, so every sample is scaled by
    # its nearest beat's factor
    beats = np.array(generated_beats(70, 20.0, 0.05, seed=1))
    amps = np.random.default_rng(2).uniform(0.9, 1.1, len(beats))
    t = np.arange(len(clean)) / FS
    nearest = np.abs(t[:, None] - beats[None, :]).argmin(axis=1)
    wobbly = TimeSeries(clean.samples * amps[nearest], FS)
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


def ref_ecg_peaks(ecg, cfg):
    """ecg_peaks as one loop over every sample of the derivative, as it was
    computed before the candidates were found with array operations."""
    d = np.diff(detrend(ecg, cfg.ecg_detrend_s).samples)
    theta = cfg.ecg_threshold_factor * np.percentile(np.abs(d), cfg.ecg_percentile)
    refractory = int(round(cfg.ecg_refractory_s * ecg.sample_rate))
    kept = []
    for i in range(1, len(d) - 1):
        if d[i] > theta and d[i] > d[i - 1] and d[i] >= d[i + 1]:
            if kept and i - kept[-1] < refractory:
                if d[i] > d[kept[-1]]:
                    kept[-1] = i
            else:
                kept.append(i)
    if not kept:
        raise ValueError("no ECG peaks found")
    return np.array(kept, dtype=np.int64) / ecg.sample_rate


def quantized_ecg(seed, n=2048):
    """An ECG of small integers: over a detrend window past the record, its
    derivative holds exact ties, so candidates with flat tops and equal
    rivals inside one refractory span."""
    rng = np.random.default_rng(seed)
    ecg = synth_ecg(70, FS, n / FS, jitter=0.1, seed=seed)
    return TimeSeries(np.round(4 * ecg.samples + rng.normal(scale=0.7, size=n)), FS)


@pytest.mark.parametrize("refractory_s", [0.0, 0.05, 0.25, 1.5])
@pytest.mark.parametrize("threshold", [0.0, 0.2, 0.5])
def test_ecg_peaks_equal_the_per_sample_loop(threshold, refractory_s):
    rng = np.random.default_rng(int(100 * threshold + 10 * refractory_s))
    cfg = PipelineConfig(ecg_threshold_factor=threshold, ecg_refractory_s=refractory_s)
    flat_cfg = PipelineConfig(ecg_threshold_factor=threshold, ecg_refractory_s=refractory_s,
                              ecg_detrend_s=100.0)
    flat_tops = 0
    for seed in range(4):
        ecg = synth_ecg(60 + 20 * seed, FS, 12.0, jitter=0.05, seed=seed)
        for sigma in (0.0, 0.02, 0.3):
            noisy = TimeSeries(ecg.samples + rng.normal(scale=sigma, size=len(ecg)), FS)
            assert ecg_peaks(noisy, cfg).tobytes() == ref_ecg_peaks(noisy, cfg).tobytes()
        quantized = quantized_ecg(seed)
        assert ecg_peaks(quantized, flat_cfg).tobytes() == \
            ref_ecg_peaks(quantized, flat_cfg).tobytes()
        d = np.diff(detrend(quantized, flat_cfg.ecg_detrend_s).samples)
        flat_tops += int(np.sum((d[1:-1] > 0) & (d[1:-1] > d[:-2]) & (d[1:-1] == d[2:])))
    assert flat_tops > 0


def test_ecg_spans_past_the_record_act_as_the_record():
    ecg = synth_ecg(70, FS, 10.0, jitter=0.05, seed=3)
    n = len(ecg)
    whole = detrend(ecg, (n - 1) / FS).samples.tobytes()
    for window_s in (n / FS, 1e300, 1e307):
        assert detrend(ecg, window_s).samples.tobytes() == whole
    # a refractory span past every peak gap keeps the largest candidate
    past = ref_ecg_peaks(ecg, PipelineConfig(ecg_refractory_s=1e6, ecg_threshold_factor=0.0))
    assert len(past) == 1
    for refractory_s in (n / FS, 1e300, 1e307):
        cfg = PipelineConfig(ecg_refractory_s=refractory_s, ecg_threshold_factor=0.0)
        assert ecg_peaks(ecg, cfg).tobytes() == past.tobytes()


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
