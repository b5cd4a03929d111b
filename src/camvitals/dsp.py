"""Signal toolbox: detrending, zero-phase bandpass, windowed spectral peak
tracking, and the rate estimator shared by the video and physio paths."""

# scipy is imported inside the functions that use it: `scipy.signal` alone
# takes over a second to import, and `evaluate`, `synth` and
# `convert-cascade` never filter, so they should not pay for it.

import functools
import math
import statistics
from dataclasses import dataclass

import numpy as np

DEFAULT_FILTER_ORDER = 3

# floor for squared magnitudes entering log ratios, so empty bins do not
# produce -inf or 0/0
_LOG_FLOOR = 1e-300


class SignalTooShort(ValueError):
    """A signal has fewer samples than an analysis step needs."""


@dataclass
class TimeSeries:
    """Uniformly sampled scalar signal.

    Parameters
    ----------
    samples : array_like
        1-D float samples, all finite.
    sample_rate : float
        Samples per second, > 0.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if not (self.sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = float(self.sample_rate)

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth bandpass description: corner frequencies in Hz and the
    design order per filtering direction (zero-phase application squares
    the magnitude response)."""

    low: float
    high: float
    order: int = DEFAULT_FILTER_ORDER

    def __post_init__(self):
        if not (0 < self.low < self.high):
            raise ValueError(f"need 0 < low < high, got ({self.low}, {self.high})")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class StftSpec:
    """Sliding-window spectral analysis parameters: Hann window of
    window_len samples, advanced by hop, zero-padded to fft_size."""

    window_len: int
    hop: int
    fft_size: int

    def __post_init__(self):
        if self.window_len < 4:
            raise ValueError(f"window_len too small: {self.window_len}")
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        if self.fft_size < self.window_len:
            raise ValueError("fft_size must be >= window_len")
        if self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")


# Rate estimates are reported as the median spectral peak over sliding
# windows; these parameter sets cover the two sample-rate regimes.
VIDEO_STFT = StftSpec(window_len=256, hop=30, fft_size=4096)
PHYSIO_STFT = StftSpec(window_len=1024, hop=128, fft_size=8192)


def check_detrend_window(window_s, sample_rate):
    """Raise ValueError unless a detrend half-span of window_s seconds
    covers at least 3 samples at sample_rate."""
    if window_s * sample_rate < 3:
        raise ValueError(f"detrend window {window_s}s spans < 3 samples at {sample_rate} Hz")


def detrend(ts, window_s):
    """Subtract a centered moving mean from the signal.

    The mean at sample i is taken over i +- round(window_s * sample_rate)
    samples, truncated at the series edges, so edge means use shorter
    (asymmetric) spans rather than padded data.

    Parameters
    ----------
    ts : TimeSeries
    window_s : float
        Half-span of the averaging window in seconds.

    Returns
    -------
    TimeSeries at the input sample rate.
    """
    check_detrend_window(window_s, ts.sample_rate)
    half = int(round(window_s * ts.sample_rate))
    x = ts.samples
    n = len(x)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    means = (csum[hi] - csum[lo]) / (hi - lo)
    return TimeSeries(x - means, ts.sample_rate)


def check_nyquist(spec, sample_rate):
    """Raise ValueError unless the bandpass spec lies below the Nyquist
    frequency of sample_rate."""
    if spec.high >= sample_rate / 2:
        raise ValueError(f"band high {spec.high} Hz >= Nyquist at {sample_rate} Hz")


@functools.cache
def _cached_sos(spec, sample_rate):
    """Second-order-section coefficients of the bandpass spec, designed once
    per (spec, sample_rate); the array is shared by every caller, so it is
    read-only."""
    check_nyquist(spec, sample_rate)
    from scipy import signal

    sos = signal.butter(spec.order, [spec.low, spec.high], btype="bandpass",
                        fs=sample_rate, output="sos")
    sos.flags.writeable = False
    return sos


def bandpass(ts, spec):
    """Zero-phase Butterworth bandpass.

    The filter is designed as cascaded second-order sections (stable even
    for very narrow bands relative to the sample rate) and applied forward
    then backward. Each end is extended with 3 * (2 * order + 1) reflected
    samples, stripped after filtering.

    Parameters
    ----------
    ts : TimeSeries
    spec : BandpassSpec

    Returns
    -------
    TimeSeries at the input sample rate.
    """
    padlen = 3 * (2 * spec.order + 1)
    if len(ts) <= 3 * padlen:
        raise SignalTooShort(f"signal of {len(ts)} samples too short for padding of {padlen}")
    from scipy import signal

    # sosfilt rejects a read-only buffer, so filter with a copy
    sos = _cached_sos(spec, ts.sample_rate).copy()
    y = signal.sosfiltfilt(sos, ts.samples, padtype="even", padlen=padlen)
    return TimeSeries(y, ts.sample_rate)


def check_window(n, spec):
    """Raise SignalTooShort unless n samples hold one window of spec."""
    if n < spec.window_len:
        raise SignalTooShort(f"signal of {n} samples shorter than window {spec.window_len}")


def band_bins(band, sample_rate, spec):
    """(first, last) index of the FFT bins of spec at sample_rate that lie
    in the inclusive band (Hz); ValueError if there are none."""
    low, high = band
    if not (0 <= low < high):
        raise ValueError(f"bad band {band}")
    df = sample_rate / spec.fft_size
    k_lo = int(np.ceil(low / df))
    k_hi = min(int(np.floor(high / df)), spec.fft_size // 2)
    if k_lo > k_hi:
        raise ValueError(f"band {band} contains no FFT bins at resolution {df} Hz")
    return k_lo, k_hi


def stft_peak_freqs(ts, spec, band):
    """Per-window frequency of the largest in-band spectral magnitude.

    Windows start at offsets 0, hop, 2*hop, ... while a full window fits.
    Each segment is Hann-weighted, zero-padded to fft_size, and the argmax
    bin within [band_low, band_high] is refined by fitting a parabola to
    the log-magnitudes of the bin and its two neighbors. Refinement is
    skipped when the argmax sits on a band edge; the vertex offset is
    clamped to half a bin so refined peaks stay inside the band.

    Parameters
    ----------
    ts : TimeSeries
    spec : StftSpec
    band : (float, float)
        Inclusive frequency range in Hz.

    Returns
    -------
    numpy array of peak frequencies in Hz, one per window.
    """
    n = len(ts)
    check_window(n, spec)
    k_lo, k_hi = band_bins(band, ts.sample_rate, spec)
    df = ts.sample_rate / spec.fft_size

    window = np.hanning(spec.window_len)
    freqs = []
    for start in range(0, n - spec.window_len + 1, spec.hop):
        seg = ts.samples[start:start + spec.window_len] * window
        spectrum = np.fft.rfft(seg, spec.fft_size)
        # squared magnitudes: the log-parabola vertex is the same as over
        # plain magnitudes, and the add/multiply-only path keeps argmax and
        # refinement bit-stable when the input is scaled by a power of two
        mag2 = spectrum.real ** 2 + spectrum.imag ** 2
        k = k_lo + int(np.argmax(mag2[k_lo:k_hi + 1]))
        delta = 0.0
        if k_lo < k < k_hi:
            left = max(float(mag2[k - 1]), _LOG_FLOOR)
            mid = max(float(mag2[k]), _LOG_FLOOR)
            right = max(float(mag2[k + 1]), _LOG_FLOOR)
            # log-ratio form: any common scale factor cancels in the
            # quotients before log rounds it in
            denom = math.log((left * right) / (mid * mid))
            if denom != 0.0:
                delta = float(np.clip(0.5 * math.log(left / right) / denom, -0.5, 0.5))
        freqs.append((k + delta) * df)
    return np.array(freqs)


def median_rate(freqs):
    """Median of the window peak frequencies, in cycles per minute.

    Even-length inputs use the mean of the two middle values.
    """
    if len(freqs) == 0:
        raise ValueError("no frequencies to take a median of")
    return statistics.median(np.asarray(freqs, dtype=np.float64)) * 60.0


def cubic_spline(knot_t, knot_v, sample_rate, duration):
    """Natural cubic spline through (knot_t, knot_v), sampled uniformly.

    Evaluation points outside [knot_t[0], knot_t[-1]] are clamped to the
    nearest knot value rather than extrapolated.
    """
    knot_t = np.asarray(knot_t, dtype=np.float64)
    knot_v = np.asarray(knot_v, dtype=np.float64)
    if len(knot_t) < 3:
        raise ValueError(f"need >= 3 knots, got {len(knot_t)}")
    if np.any(np.diff(knot_t) <= 0):
        raise ValueError("knot times must be strictly increasing")
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(knot_t, knot_v, bc_type="natural")
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    values = spline(np.clip(t, knot_t[0], knot_t[-1]))
    return TimeSeries(values, sample_rate)


def rate_flags(freqs, band, stft_spec, sample_rate):
    """Confidence flags for a set of window peak frequencies.

    Returns a set containing "out_of_band" when the median peak hugs a
    band edge (within two FFT bins: in-band content likely leaking from
    outside) or when the per-window peaks scatter over more than 1/8 of
    the band width (no stable in-band oscillation).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    low, high = band
    df = sample_rate / stft_spec.fft_size
    med = float(np.median(freqs))
    flags = set()
    if med <= low + 2 * df or med >= high - 2 * df:
        flags.add("out_of_band")
    if len(freqs) >= 3 and float(np.std(freqs)) > (high - low) / 8.0:
        flags.add("out_of_band")
    return flags


def estimate_rate(ts, spec, stft_spec):
    """(rate in cycles/minute, flags) of the dominant in-band oscillation.

    The one rate estimator of the HR, RR and ground-truth paths: zero-phase
    bandpass by the BandpassSpec spec, per-window spectral peaks in its
    band, their median scaled to per-minute, and the rate_flags of those
    peaks.
    """
    band = (spec.low, spec.high)
    filtered = bandpass(ts, spec)
    freqs = stft_peak_freqs(filtered, stft_spec, band)
    return median_rate(freqs), rate_flags(freqs, band, stft_spec, ts.sample_rate)
