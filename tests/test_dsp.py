import math

import numpy as np
import pytest
import scipy.signal
from scipy.interpolate import CubicSpline

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
    butter = dsp._butter_bandpass

    def counting_butter(*args):
        calls.append(args)
        return butter(*args)

    monkeypatch.setattr(dsp, "_butter_bandpass", counting_butter)
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


# ------------------------- scipy ports, bit for bit -------------------------
# dsp's design, filter and spline do scipy's operations in scipy's order;
# these compare them with scipy for exact equality.

def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def scipy_sos(order, low, high, rate):
    return scipy.signal.butter(order, [low, high], btype="bandpass", fs=rate, output="sos")


# (low, high, rate): narrow bands give complex poles only; wide bands from
# near DC give the analog prototype's real pole a real bandpass pair
_COMPLEX_POLE_BANDS = [(0.7, 2.5, 30.0), (0.2, 0.5, 30.0), (0.7, 2.5, 128.0),
                       (0.2, 0.5, 128.0), (1.0, 1.1, 25.0), (0.01, 0.02, 30.0)]
_REAL_POLE_BANDS = [(0.05, 0.9, 30.0), (0.05, 14.0, 30.0), (0.1, 12.0, 25.0),
                    (0.2, 60.0, 128.0)]


def has_real_poles(order, low, high, rate):
    _, p, _ = scipy.signal.butter(order, [low, high], btype="bandpass", fs=rate,
                                  output="zpk")
    return bool(np.any(p.imag == 0))


@pytest.mark.parametrize("order", range(1, 7))
def test_butterworth_design_matches_scipy_bit_for_bit(order):
    rng = np.random.default_rng(order)
    bands = _COMPLEX_POLE_BANDS + _REAL_POLE_BANDS
    for _ in range(30):
        rate = float(rng.choice([30.0, 128.0, rng.uniform(5.0, 500.0)]))
        low = float(rng.uniform(0.001, 0.45)) * rate
        bands.append((low, float(rng.uniform(low / rate + 1e-4, 0.4999)) * rate, rate))
    for low, high, rate in bands:
        assert same_bits(dsp._butter_bandpass(order, low, high, rate),
                         scipy_sos(order, low, high, rate)), (low, high, rate)


def test_design_bands_cover_real_and_complex_poles():
    for order in (1, 3, 5):
        assert not any(has_real_poles(order, *band) for band in _COMPLEX_POLE_BANDS)
        assert all(has_real_poles(order, *band) for band in _REAL_POLE_BANDS)


@pytest.mark.parametrize("order", range(1, 7))
def test_bandpass_matches_sosfiltfilt_bit_for_bit(order):
    rng = np.random.default_rng(10 + order)
    padlen = 3 * (2 * order + 1)
    for low, high, rate in _COMPLEX_POLE_BANDS[:4] + _REAL_POLE_BANDS[:1]:
        spec = BandpassSpec(low, high, order)
        sos = scipy_sos(order, low, high, rate)
        for n in (3 * padlen + 1, 3 * padlen + 2, 600, 2560):
            for x in (rng.normal(size=n), np.full(n, 3.7), 1e6 + rng.normal(size=n),
                      -250.0 + 1e-3 * np.cumsum(rng.normal(size=n))):
                want = scipy.signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)
                assert same_bits(bandpass(TimeSeries(x, rate), spec).samples, want), \
                    (low, high, rate, n)


def peak_train_knots(peaks):
    """ppg_like's knots: +1 at each peak, -1 at each midpoint."""
    knot_t = np.empty(2 * len(peaks) - 1)
    knot_v = np.empty_like(knot_t)
    knot_t[0::2] = peaks
    knot_v[0::2] = 1.0
    knot_t[1::2] = 0.5 * (peaks[:-1] + peaks[1:])
    knot_v[1::2] = -1.0
    return knot_t, knot_v


def gtsv_row_swaps(knot_t):
    """Rows dgtsv interchanges when it solves the natural spline system of
    knot_t (its elimination, replayed on the diagonals)."""
    dx = np.diff(knot_t)
    dl = list(dx[1:]) + [dx[-1]]
    d = [2 * dx[0]] + list(2 * (dx[:-1] + dx[1:])) + [2 * dx[-1]]
    du = [dx[0]] + list(dx[:-1])
    swaps = 0
    for i in range(len(d) - 1):
        if abs(d[i]) >= abs(dl[i]):
            d[i + 1] -= dl[i] / d[i] * du[i]
        else:
            swaps += 1
            fact = d[i] / dl[i]
            d[i], d[i + 1] = dl[i], du[i] - fact * d[i + 1]
            if i < len(d) - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
    return swaps


def spline_cases():
    rng = np.random.default_rng(77)
    regular = [0.3 + 0.8 * np.arange(n) for n in (3, 4, 12, 40)]
    jittered = [np.cumsum(rng.uniform(0.4, 1.2, size=n)) for n in (3, 9, 25, 60)]
    # 0.25 s (the refractory default) next to 0.95 s intervals
    pivoting = [np.cumsum(rng.choice([0.25, 0.95], size=n)) for n in (6, 15, 30)]
    pivoting.append(np.cumsum([0.5, 0.25, 0.95, 0.25, 0.95, 0.8, 0.8]))
    return regular, jittered, pivoting


def test_spline_cases_reach_the_row_interchange():
    regular, jittered, pivoting = spline_cases()
    assert all(gtsv_row_swaps(peak_train_knots(p)[0]) == 0 for p in regular)
    assert all(gtsv_row_swaps(peak_train_knots(p)[0]) > 0 for p in pivoting)


def test_spline_matches_scipy_cubic_spline_bit_for_bit():
    rng = np.random.default_rng(78)
    knots = []
    for peaks in [p for group in spline_cases() for p in group]:
        knot_t, knot_v = peak_train_knots(peaks)
        # ppg_like's +-1 values, and values that leave no zero in the system
        knots += [(knot_t, knot_v), (knot_t, rng.normal(size=len(knot_t)))]
    for knot_t, knot_v in knots:
        for rate in (30.0, 128.0):
            duration = float(knot_t[-1]) + 1.5
            t = np.arange(int(round(duration * rate))) / rate
            spline = CubicSpline(knot_t, knot_v, bc_type="natural")
            want = spline(np.clip(t, knot_t[0], knot_t[-1]))
            got = cubic_spline(knot_t, knot_v, rate, duration).samples
            assert same_bits(got, want), (knot_t, knot_v, rate)


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


def per_window_peak_freqs(ts, spec, band):
    """stft_peak_freqs with one FFT per window, as it was computed before
    the spectra were batched."""
    k_lo, k_hi = dsp.band_bins(band, ts.sample_rate, spec)
    window = np.hanning(spec.window_len)
    freqs = []
    for start in range(0, len(ts) - spec.window_len + 1, spec.hop):
        spectrum = np.fft.rfft(ts.samples[start:start + spec.window_len] * window,
                               spec.fft_size)
        mag2 = spectrum.real ** 2 + spectrum.imag ** 2
        k = k_lo + int(np.argmax(mag2[k_lo:k_hi + 1]))
        delta = 0.0
        if k_lo < k < k_hi:
            left, mid, right = (max(float(mag2[j]), dsp._LOG_FLOOR) for j in (k - 1, k, k + 1))
            denom = math.log((left * right) / (mid * mid))
            if denom != 0.0:
                delta = float(np.clip(0.5 * math.log(left / right) / denom, -0.5, 0.5))
        freqs.append((k + delta) * ts.sample_rate / spec.fft_size)
    return np.array(freqs)


def _peaks_or_error(peak_freqs, ts, spec, band):
    """The bytes of peak_freqs' result, or the repr of its ValueError."""
    try:
        return peak_freqs(ts, spec, band).tobytes()
    except ValueError as e:
        return repr(e)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("spec,rate", [(VIDEO_STFT, 30.0), (PHYSIO_STFT, 128.0)],
                         ids=["video", "physio"])
def test_batched_stft_peaks_equal_the_per_window_loop(spec, rate):
    rng = np.random.default_rng(int(rate))
    lengths = (300, spec.window_len, spec.window_len + spec.hop - 1, 2560, 7680,
               *rng.integers(spec.window_len, 7681, size=10))
    for n in lengths:
        if n < spec.window_len:
            continue
        t = np.arange(n) / rate
        tone = np.sin(2 * np.pi * rng.uniform(0.8, 2.3) * t)
        for x in (tone, tone + rng.normal(size=n), rng.normal(size=n), 1e3 * tone + 5e5):
            ts = TimeSeries(x, rate)
            assert np.array_equal(stft_peak_freqs(ts, spec, (0.7, 2.5)),
                                  per_window_peak_freqs(ts, spec, (0.7, 2.5))), n
    # peaks on either band edge, a band from bin 0, and signals so large
    # that the loop's refinement overflows to inf (inf/inf gives it nan
    # peaks): stft_peak_freqs first scales each signal by a power of two,
    # so it gives them the loop's peaks of an exactly scaled-down copy
    n = 2560
    t = np.arange(n) / rate
    tone = np.sin(2 * np.pi * 1.3 * t)
    edges, nan_peaks = set(), 0
    for band in ((0.7, 2.5), (0.0, 2.5)):
        k_lo, k_hi = dsp.band_bins(band, rate, spec)
        for x in (np.sin(2 * np.pi * (band[0] - 0.15) * t), np.sin(2 * np.pi * (band[1] + 0.15) * t),
                  3.0 + tone, 1e77 * tone, 1e100 * (tone + rng.normal(size=n)),
                  1e160 * tone, 1e300 * (tone + rng.normal(size=n))):
            got = _peaks_or_error(stft_peak_freqs, TimeSeries(x, rate), spec, band)
            peak = np.max(np.abs(x))
            small = np.ldexp(x, -int(np.log2(peak))) if peak > 1e50 else x
            assert got == _peaks_or_error(per_window_peak_freqs, TimeSeries(small, rate),
                                          spec, band), band
            freqs = np.frombuffer(got)
            nan_peaks += int(np.isnan(freqs).sum())
            edges |= {(band, k) for k in (k_lo, k_hi) if np.any(freqs == k * rate / spec.fft_size)}
    assert len(edges) == 4 and nan_peaks == 0


@pytest.mark.parametrize("spec,rate", [(VIDEO_STFT, 30.0), (PHYSIO_STFT, 128.0)],
                         ids=["video", "physio"])
def test_power_of_two_multiples_keep_every_bit(spec, rate):
    # up to 2**1015 the multiples stay finite, and down to 2**-900 none of
    # these samples falls subnormal: the exponents where the scale is exact
    rng = np.random.default_rng(int(rate) + 17)
    for _ in range(4):
        n = int(rng.integers(spec.window_len, 3 * spec.window_len))
        t = np.arange(n) / rate
        x = np.sin(2 * np.pi * rng.uniform(0.8, 2.3) * t) + rng.normal(size=n)
        peaks = stft_peak_freqs(TimeSeries(x, rate), spec, (0.7, 2.5))
        detrended = detrend(TimeSeries(x, rate), 0.5).samples
        for k in [-900, 1015, *rng.integers(-900, 1016, size=6).tolist()]:
            scaled = TimeSeries(np.ldexp(x, k), rate)
            assert np.array_equal(stft_peak_freqs(scaled, spec, (0.7, 2.5)), peaks), k
            assert np.array_equal(detrend(scaled, 0.5).samples, np.ldexp(detrended, k)), k


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
