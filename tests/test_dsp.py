import numpy as np
import pytest
import scipy.signal

from camvitals import dsp
from camvitals.config import PipelineConfig
from camvitals.dsp import (DEFAULT_FILTER_ORDER, PHYSIO_STFT, VIDEO_STFT,
                           BandpassSpec, SignalTooShort, StftSpec, TimeSeries,
                           bandpass, cubic_spline, detrend, estimate_rate,
                           median_rate, rate_flags, stft_peak_freqs)


def sine(freq, fs, duration, amp=1.0, phase=0.0):
    t = np.arange(int(round(duration * fs))) / fs
    return TimeSeries(amp * np.sin(2 * np.pi * freq * t + phase), fs)


# ------------------------- TimeSeries -------------------------

def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.nan]), 30.0)
    with pytest.raises(ValueError):
        TimeSeries(np.zeros((2, 2)), 30.0)
    with pytest.raises(ValueError):
        TimeSeries(np.zeros(4), 0.0)
    ts = TimeSeries(np.zeros(90), 30.0)
    assert len(ts) == 90
    assert ts.duration == pytest.approx(3.0)


def test_stft_spec_validation():
    with pytest.raises(ValueError):
        StftSpec(window_len=256, hop=30, fft_size=1000)  # not a power of two
    with pytest.raises(ValueError):
        StftSpec(window_len=256, hop=0, fft_size=4096)
    with pytest.raises(ValueError):
        StftSpec(window_len=512, hop=30, fft_size=256)   # window > fft


def test_bandpass_spec_validation():
    with pytest.raises(ValueError):
        BandpassSpec(2.5, 0.7, 3)
    with pytest.raises(ValueError):
        BandpassSpec(0.0, 2.5, 3)


def test_default_stft_presets():
    assert (VIDEO_STFT.window_len, VIDEO_STFT.hop, VIDEO_STFT.fft_size) == (256, 30, 4096)
    assert (PHYSIO_STFT.window_len, PHYSIO_STFT.hop, PHYSIO_STFT.fft_size) == (1024, 128, 8192)


# ------------------------- detrend -------------------------

def test_detrend_constant_is_zero():
    ts = TimeSeries(np.full(256, 3.25), 128.0)
    out = detrend(ts, 0.5)
    assert np.allclose(out.samples, 0.0, atol=1e-12)
    assert out.sample_rate == 128.0


def test_detrend_matches_brute_force_moving_mean():
    fs = 128.0
    ts = sine(1.0, fs, 3.0)
    out = detrend(ts, 1.0)
    half = int(round(1.0 * fs))
    n = len(ts)
    expected = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        expected[i] = ts.samples[i] - ts.samples[lo:hi].mean()
    rms = np.sqrt(np.mean((out.samples - expected) ** 2))
    assert rms < 1e-6


def test_detrend_ramp_edge_residual_bound():
    fs = 128.0
    slope = 0.5
    n = 512
    ts = TimeSeries(slope * np.arange(n) / fs, fs)
    out = detrend(ts, 0.25)
    window = 0.25 * fs
    bound = slope * (window / fs) / 2
    assert np.max(np.abs(out.samples)) <= bound + 1e-9
    # interior is exactly flat once the window no longer truncates
    half = int(round(window))
    assert np.allclose(out.samples[half:-half], 0.0, atol=1e-9)


def test_detrend_rejects_tiny_window():
    ts = TimeSeries(np.zeros(256), 128.0)
    with pytest.raises(ValueError):
        detrend(ts, 0.01)


# ------------------------- bandpass -------------------------

def test_bandpass_passband_gain_within_5pct():
    ts = sine(1.2, 30.0, 60.0)
    out = bandpass(ts, BandpassSpec(0.7, 2.5, DEFAULT_FILTER_ORDER))
    mid = slice(int(10 * 30), int(50 * 30))
    gain = np.sqrt(np.mean(out.samples[mid] ** 2)) / np.sqrt(0.5)
    assert abs(gain - 1.0) < 0.05


def test_bandpass_stopband_attenuation_20db():
    spec = BandpassSpec(0.7, 2.5, DEFAULT_FILTER_ORDER)
    mid = slice(int(10 * 30), int(50 * 30))
    rms = {}
    for f in (1.2, 3.5):
        out = bandpass(sine(f, 30.0, 60.0), spec)
        rms[f] = np.sqrt(np.mean(out.samples[mid] ** 2))
    atten_db = 20 * np.log10(rms[1.2] / rms[3.5])
    assert atten_db >= 20.0


def test_bandpass_zero_phase():
    fs = 30.0
    ts = sine(1.2, fs, 60.0)
    out = bandpass(ts, BandpassSpec(0.7, 2.5, DEFAULT_FILTER_ORDER))
    seg = slice(int(20 * fs), int(40 * fs))
    x = ts.samples[seg]
    corr = [float(np.dot(out.samples[seg], np.roll(x, lag)))
            for lag in (-2, -1, 0, 1, 2)]
    assert int(np.argmax(corr)) == 2  # peak at lag 0


def test_bandpass_is_linear():
    rng = np.random.default_rng(9)
    fs = 30.0
    spec = BandpassSpec(0.7, 2.5, DEFAULT_FILTER_ORDER)
    x = TimeSeries(rng.normal(size=900), fs)
    y = TimeSeries(rng.normal(size=900), fs)
    combo = TimeSeries(2.0 * x.samples + 3.0 * y.samples, fs)
    lhs = bandpass(combo, spec).samples
    rhs = 2.0 * bandpass(x, spec).samples + 3.0 * bandpass(y, spec).samples
    rel = np.sqrt(np.mean((lhs - rhs) ** 2)) / np.sqrt(np.mean(lhs ** 2))
    assert rel < 1e-9


def test_bandpass_zero_in_zero_out():
    out = bandpass(TimeSeries(np.zeros(300), 30.0), BandpassSpec(0.7, 2.5, 3))
    assert np.allclose(out.samples, 0.0)


def test_bandpass_rejects_short_signal_and_bad_band():
    with pytest.raises(ValueError):
        bandpass(TimeSeries(np.zeros(30), 30.0), BandpassSpec(0.7, 2.5, 3))
    with pytest.raises(ValueError):
        bandpass(TimeSeries(np.zeros(900), 30.0), BandpassSpec(0.7, 16.0, 3))


# the bands the pipeline filters with, at the video and physio sample rates
_CFG = PipelineConfig()
_PIPELINE_DESIGNS = [(spec, rate) for spec in (_CFG.hr_bandpass, _CFG.rr_bandpass)
                     for rate in (30.0, 128.0)]


@pytest.mark.parametrize("spec,rate", _PIPELINE_DESIGNS,
                         ids=[f"{s.low}-{s.high}Hz@{r:g}" for s, r in _PIPELINE_DESIGNS])
def test_cached_design_is_the_butterworth_design_bit_for_bit(spec, rate):
    want = scipy.signal.butter(spec.order, [spec.low, spec.high], btype="bandpass",
                               fs=rate, output="sos")
    got = dsp._cached_sos(spec, rate)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bandpass_designs_once_per_band_and_rate(monkeypatch):
    calls = []
    butter = scipy.signal.butter

    def counting_butter(*args, **kwargs):
        calls.append(args)
        return butter(*args, **kwargs)

    monkeypatch.setattr(scipy.signal, "butter", counting_butter)
    dsp._cached_sos.cache_clear()
    try:
        ts = sine(1.2, 30.0, 20.0)
        first = bandpass(ts, BandpassSpec(0.7, 2.5, 3))
        second = bandpass(ts, BandpassSpec(0.7, 2.5, 3))
        assert len(calls) == 1
        assert first.samples.tobytes() == second.samples.tobytes()
        bandpass(ts, BandpassSpec(0.2, 0.5, 3))
        bandpass(TimeSeries(ts.samples, 31.0), BandpassSpec(0.7, 2.5, 3))
        assert len(calls) == 3
    finally:
        dsp._cached_sos.cache_clear()


def test_cached_design_survives_repeated_filtering_unchanged():
    spec = BandpassSpec(0.7, 2.5, 3)
    sos = dsp._cached_sos(spec, 30.0)
    before = sos.tobytes()
    rng = np.random.default_rng(5)
    for _ in range(50):
        bandpass(TimeSeries(rng.normal(size=300), 30.0), spec)
    assert dsp._cached_sos(spec, 30.0) is sos
    assert sos.tobytes() == before
    assert not sos.flags.writeable


def test_band_at_nyquist_raises_on_every_call():
    ts = TimeSeries(np.zeros(900), 30.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="Nyquist"):
            bandpass(ts, BandpassSpec(0.7, 15.0, 3))


# ------------------------- STFT peaks -------------------------

def test_stft_peaks_pure_tone_within_002hz():
    ts = sine(1.23, 30.0, 20.0)
    freqs = stft_peak_freqs(ts, VIDEO_STFT, (0.7, 2.5))
    assert len(freqs) >= 2
    assert all(abs(f - 1.23) <= 0.02 for f in freqs)


def test_stft_peaks_random_tones_within_quarter_bin():
    rng = np.random.default_rng(21)
    tol = 30.0 / VIDEO_STFT.fft_size / 4
    for _ in range(10):
        f0 = float(rng.uniform(0.9, 2.2))
        ts = sine(f0, 30.0, 20.0, phase=float(rng.uniform(0, 2 * np.pi)))
        freqs = stft_peak_freqs(ts, VIDEO_STFT, (0.7, 2.5))
        assert all(abs(f - f0) <= tol for f in freqs), f"tone {f0}"


def test_stft_peaks_dominant_of_two_tones():
    fs = 30.0
    t = np.arange(int(20 * fs)) / fs
    x = np.sin(2 * np.pi * 1.0 * t) + 0.3 * np.sin(2 * np.pi * 2.0 * t)
    freqs = stft_peak_freqs(TimeSeries(x, fs), VIDEO_STFT, (0.7, 2.5))
    assert all(abs(f - 1.0) < 0.05 for f in freqs)


def test_stft_peaks_errors():
    with pytest.raises(SignalTooShort, match="signal of 120 samples shorter than window 256"):
        stft_peak_freqs(sine(1.0, 30.0, 4.0), VIDEO_STFT, (0.7, 2.5))
    with pytest.raises(ValueError):
        stft_peak_freqs(sine(1.0, 30.0, 20.0), VIDEO_STFT, (1.0001, 1.0002))


# ------------------------- median rate -------------------------

def test_median_rate_frozen_cases():
    assert median_rate([1.2, 1.2, 1.2]) == 72.0
    assert median_rate([1.0, 1.5, 2.0]) == 90.0
    assert median_rate([1.0, 2.0]) == 90.0


def test_median_rate_permutation_invariant():
    rng = np.random.default_rng(2)
    freqs = list(rng.uniform(0.7, 2.5, size=9))
    base = median_rate(freqs)
    for _ in range(5):
        rng.shuffle(freqs)
        assert median_rate(freqs) == base


def test_median_rate_empty_errors():
    with pytest.raises(ValueError):
        median_rate([])


# ------------------------- spline -------------------------

def test_spline_reproduces_straight_line():
    t = [0.0, 0.5, 1.0, 1.5, 2.0]
    v = [1.0 + 2.0 * x for x in t]
    out = cubic_spline(t, v, 50.0, 2.0)
    grid = np.arange(len(out)) / 50.0
    assert np.max(np.abs(out.samples - (1.0 + 2.0 * grid))) < 1e-9


def test_spline_clamps_outside_knots():
    out = cubic_spline([1.0, 2.0, 3.0], [5.0, 7.0, 4.0], 10.0, 5.0)
    assert np.allclose(out.samples[:10], 5.0)   # before the first knot
    assert np.allclose(out.samples[31:], 4.0)   # after the last knot


def test_spline_from_cosine_extrema_recovers_frequency():
    # +1/-1 alternating at extrema of cos(2*pi*t): knots every 0.5 s
    t = [0.5 * k for k in range(21)]
    v = [1.0 if k % 2 == 0 else -1.0 for k in range(21)]
    out = cubic_spline(t, v, 30.0, 10.0)
    freqs = stft_peak_freqs(out, VIDEO_STFT, (0.7, 2.5))
    assert abs(float(np.median(freqs)) - 1.0) <= 0.05


def test_spline_validates_knots():
    with pytest.raises(ValueError):
        cubic_spline([0.0, 1.0], [1.0, 2.0], 10.0, 1.0)
    with pytest.raises(ValueError):
        cubic_spline([0.0, 1.0, 0.5], [1.0, 2.0, 3.0], 10.0, 1.0)


# ------------------------- rate estimator -------------------------
# (the test names predate estimate_rate, which replaced dominant_rate)

HR_SPEC = BandpassSpec(0.7, 2.5)


def test_dominant_rate_hr_band():
    bpm, _ = estimate_rate(sine(1.2, 30.0, 20.0), HR_SPEC, VIDEO_STFT)
    assert bpm == pytest.approx(72.0, abs=0.5)


def test_dominant_rate_rr_band():
    brpm, _ = estimate_rate(sine(0.25, 30.0, 20.0), BandpassSpec(0.2, 0.5), VIDEO_STFT)
    assert brpm == pytest.approx(15.0, abs=0.5)


def test_dominant_rate_short_gaze_trial():
    bpm, _ = estimate_rate(sine(1.5, 30.0, 10.0), HR_SPEC, VIDEO_STFT)
    assert bpm == pytest.approx(90.0, abs=1.0)


def test_estimate_rate_is_bandpass_peaks_median_and_flags():
    ts = sine(1.3, 128.0, 20.0)
    spec = BandpassSpec(0.7, 2.5, 4)
    band = (spec.low, spec.high)
    freqs = stft_peak_freqs(bandpass(ts, spec), PHYSIO_STFT, band)
    assert estimate_rate(ts, spec, PHYSIO_STFT) == \
        (median_rate(freqs), rate_flags(freqs, band, PHYSIO_STFT, 128.0))


def test_estimate_rate_too_short_for_bandpass_padding():
    # 63 samples: the order-3 filter pads each end with 21
    with pytest.raises(SignalTooShort, match="signal of 63 samples too short for padding of 21"):
        estimate_rate(sine(1.0, 30.0, 2.1), HR_SPEC, VIDEO_STFT)


def test_dominant_rate_invariant_under_positive_scaling():
    """Power-of-two factors rescale float inputs without any rounding, so
    the result must be bit-identical; other factors perturb the samples
    themselves and can only be invariant up to that perturbation."""
    rng = np.random.default_rng(33)
    for _ in range(5):
        f0 = float(rng.uniform(0.8, 2.3))
        ts = sine(f0, 30.0, 20.0)
        base = estimate_rate(ts, HR_SPEC, VIDEO_STFT)
        for scale in (2.0 ** -20, 0.5, 2.0, 1024.0, 2.0 ** 40):
            scaled = TimeSeries(scale * ts.samples, 30.0)
            assert estimate_rate(scaled, HR_SPEC, VIDEO_STFT) == base   # rate and flags
        for scale in (1e-6, 7.0, 1e6):
            scaled = TimeSeries(scale * ts.samples, 30.0)
            rate, _ = estimate_rate(scaled, HR_SPEC, VIDEO_STFT)
            assert rate == pytest.approx(base[0], abs=1e-6)


# ------------------------- flags -------------------------

def test_rate_flags_clean_tone_unflagged():
    freqs = stft_peak_freqs(sine(1.5, 30.0, 20.0), VIDEO_STFT, (0.7, 2.5))
    assert rate_flags(freqs, (0.7, 2.5), VIDEO_STFT, 30.0) == set()


def test_rate_flags_band_edge():
    flags = rate_flags([0.701, 0.702, 0.701], (0.7, 2.5), VIDEO_STFT, 30.0)
    assert "out_of_band" in flags


def test_rate_flags_scattered_peaks():
    flags = rate_flags([0.8, 1.6, 2.4], (0.7, 2.5), VIDEO_STFT, 30.0)
    assert "out_of_band" in flags
