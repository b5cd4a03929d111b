"""Signal toolbox: detrending, zero-phase bandpass, windowed spectral peak
tracking, and the rate estimator shared by the video and physio paths."""

# The Butterworth design and the natural cubic spline below are
# numpy/Python ports of scipy.signal.butter and
# scipy.interpolate.CubicSpline, and the zero-phase filter is
# scipy.signal.sosfiltfilt's padding and passes around scipy's own
# compiled sosfilt loop. Each does scipy's floating-point operations in
# scipy's order, so its results are bit-equal to scipy's;
# tests/test_dsp.py checks that against scipy. The filter's initial states
# are the exception: scipy solves them with LAPACK, whose kernel depends
# on the CPU, and _cached_zi uses Cramer's rule. The design also takes its
# tangents and exponentials from math and cmath, one value at a time, and
# sorts in Python: numpy's tan follows its SIMD dispatch, whose AVX-512
# loop differs from libm in the last bit of some arguments, so the design
# equals scipy's where numpy runs its AVX2 loops. Importing scipy.signal
# and scipy.interpolate takes over a second, more than the signal work of
# a whole `groundtruth` run, so the loop is loaded from its extension file
# and scipy.signal's package init never runs. The file is located before
# trial 1 without importing scipy, and loaded at the first filter call of
# each process that filters: the parent of forked trial workers never
# loads it, nor runs scipy's own package init.

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import TimeSeries, median, total

DEFAULT_FILTER_ORDER = 3
# highest filter order: a zero-phase pass of order n pads each end with
# 3 (2n + 1) samples, so order 100 already needs more than 1,809 samples,
# and the design's gain overflows a float near order 250 at the default
# bands; building a design of order n takes O(n) memory
MAX_FILTER_ORDER = 100
# largest fft_size: 8 times the physio default. Each window's spectrum
# holds fft_size / 2 + 1 complex bins (0.5 MB at 2**16), one per window
MAX_FFT_SIZE = 2 ** 16
# bytes of window spectra `stft_peak_freqs` holds at once: 16 windows at
# MAX_FFT_SIZE; a 20 s trial at the default settings takes one block
_STFT_BLOCK_BYTES = 2 ** 23

# floor for squared magnitudes entering log ratios, so empty bins do not
# produce -inf or 0/0
_LOG_FLOOR = 1e-300


class SignalTooShort(ValueError):
    """A signal has fewer samples than an analysis step needs."""


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
        if self.order > MAX_FILTER_ORDER:
            raise ValueError(f"order must be <= {MAX_FILTER_ORDER}, got {self.order}")


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
        if self.fft_size > MAX_FFT_SIZE:
            raise ValueError(f"fft_size must be <= {MAX_FFT_SIZE}, got {self.fft_size}")


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
    e = _max_exponent(ts.samples)
    x = np.ldexp(ts.samples, -e)
    n = len(x)
    # any half-span >= n - 1 averages the whole series at every sample
    half = int(round(min(window_s * ts.sample_rate, n)))
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    lo = np.maximum(0, idx - half)
    hi = np.minimum(n, idx + half + 1)
    means = (csum[hi] - csum[lo]) / (hi - lo)
    return TimeSeries(np.ldexp(x - means, e), ts.sample_rate)


def _max_exponent(x):
    """The binary exponent e of the largest |x| (np.frexp's, 0 for an
    all-zero x). Scaling x by 2**-e brings its peak into [0.5, 1), so sums
    and squares of it cannot overflow; a power-of-two scale is exact, and
    so leaves every later rounding as it was unless a value falls
    subnormal."""
    return int(np.frexp(np.max(np.abs(x), initial=0.0))[1])


def check_nyquist(spec, sample_rate):
    """Raise ValueError unless the bandpass spec lies below the Nyquist
    frequency of sample_rate."""
    if spec.high >= sample_rate / 2:
        raise ValueError(f"band high {spec.high} Hz >= Nyquist at {sample_rate} Hz")


def check_bandpass(spec, sample_rate):
    """Raise ValueError unless bandpass can filter by spec at sample_rate:
    the band lies below Nyquist, and the design bandpass caches, built
    here, is finite. Also locate the extension file of the compiled filter
    loop bandpass runs (FileNotFoundError if scipy has none), without
    importing scipy or loading the loop: bandpass loads it at its first
    call in each process that filters."""
    check_nyquist(spec, sample_rate)
    try:
        with np.errstate(all="ignore"):
            design = (_cached_sos(spec, sample_rate), _cached_zi(spec, sample_rate))
    except (ArithmeticError, ValueError):   # an overflowed gain, a singular section
        design = (np.nan,)
    if not all(np.isfinite(d).all() for d in design):
        raise ValueError(f"band ({spec.low}, {spec.high}) Hz of order {spec.order} "
                         f"has no finite filter design at {sample_rate} Hz")
    _kernel_path()


def _quadratic(r1, r2):
    """(1, c1, c2): the real coefficients of the monic polynomial with the
    roots r1 and r2, a conjugate pair or two reals, as scipy.signal's
    zpk2tf gives them through np.poly. np.poly convolves by BLAS dot
    calls; written out, the products by 1 and 0 drop, and the sum and the
    product round once each."""
    r1, r2 = complex(r1), complex(r2)
    return 1.0, -r1.real - r2.real, r1.real * r2.real - r1.imag * r2.imag


def _stable_order(keys):
    """The indices that sort the list keys, equal keys left in their order:
    np.lexsort's result, for keys that are tuples of its keys last-first."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def _first_min(values):
    """Index of the first smallest entry of the float array values, as
    np.argmin gives it."""
    values = values.tolist()
    return values.index(min(values))


def _cplxreal(z):
    """(one of each complex-conjugate pair, the real values) of z, sorted
    and averaged as scipy.signal's _cplxreal does."""
    tol = 100 * np.finfo(np.float64).eps
    z = z[_stable_order(list(zip(z.real.tolist(), abs(z.imag).tolist())))]
    real = abs(z.imag) <= tol * abs(z)
    if real.all():
        return np.array([]), z.real
    zr = z[real].real
    z = z[~real]
    zp, zn = z[z.imag > 0], z[z.imag < 0]
    # runs of equal real part are ordered by imaginary part
    re, bound = zp.real.tolist(), (tol * abs(zp)).tolist()
    start = 0
    for stop in range(1, len(zp) + 1):
        if stop == len(zp) or not re[stop] - re[stop - 1] <= bound[stop - 1]:
            for chunk in (zp[start:stop], zn[start:stop]):
                chunk[...] = chunk[_stable_order(abs(chunk.imag).tolist())]
            start = stop
    return (zp + zn.conj()) / 2, zr


def _butter_bandpass(order, low, high, sample_rate):
    """signal.butter(order, [low, high], "bandpass", fs=sample_rate,
    output="sos"): the analog prototype, pre-warped lowpass-to-bandpass
    transform, bilinear transform, and zpk2sos with "nearest" pairing."""
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.array([cmath.exp(a) for a in (1j * np.pi * m / (2 * order)).tolist()])
    # pre-warped for the bilinear transform at fs = 2
    warped = [4.0 * math.tan(math.pi * (w / (sample_rate / 2)) / 2.0) for w in (low, high)]
    bw = warped[1] - warped[0]
    wo = math.sqrt(warped[0] * warped[1])
    p = p * bw / 2
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    # bilinear transform; the order zeros at s = 0 map to z = 1, the order
    # zeros at infinity to z = -1
    k = bw**order * np.real(4.0**order / np.prod(4.0 - p))
    z = np.repeat([-1.0, 1.0], order)
    p = np.concatenate(_cplxreal((4.0 + p) / (4.0 - p)))

    def idx_worst(p):
        # the pole closest to the unit circle
        return _first_min(np.abs(1 - np.abs(p)))

    # sections from the last, so the poles closest to the unit circle go
    # last; all zeros are real and real poles come in pairs, so zpk2sos's
    # cases for a lone real pole or a lone real zero never arise
    sos = np.zeros((order, 6))
    for si in range(order - 1, -1, -1):
        p1_idx = idx_worst(p)
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1):
            real_idx = np.flatnonzero(np.isreal(p))
            p2_idx = real_idx[idx_worst(p[real_idx])]
            p2 = p[p2_idx]
            p = np.delete(p, p2_idx)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            # the zero nearest to p1 (zeros as near as it are equal to it)
            z1_idx = _first_min(np.abs(z - p1))
            zeros.append(z[z1_idx])
            z = np.delete(z, z1_idx)
        sos[si, :3] = _quadratic(*zeros)
        sos[si, 3:] = _quadratic(p1, p2)
    sos[0, :3] *= k
    return sos


@functools.cache
def _cached_sos(spec, sample_rate):
    """Second-order-section coefficients of the bandpass spec, designed once
    per (spec, sample_rate); the array is shared by every caller, so it is
    read-only."""
    check_nyquist(spec, sample_rate)
    sos = _butter_bandpass(spec.order, spec.low, spec.high, sample_rate)
    sos.flags.writeable = False
    return sos


@functools.cache
def _cached_zi(spec, sample_rate):
    """signal.sosfilt_zi of the cached design, also computed once and
    read-only: the section states of the steady-state response to a unit
    step. Each section's is lfilter_zi's solution of zi = A zi + B, scaled
    by the DC gain of the sections before it.

    scipy solves each 2x2 system with LAPACK, whose kernel OpenBLAS picks
    by CPU; Cramer's rule gives the same states on every CPU, within a few
    units in the last place of scipy's (tests/test_dsp.py bounds the gap)."""
    sos = _cached_sos(spec, sample_rate)
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b0, b1, b2, a0, a1, a2) in enumerate(sos.tolist()):
        # A's first row is -a[1:] / a[0] and its second [1, 0], so
        # (I - A^T) zi = B is [[p, -1], [q, 1]] zi = [r0, r1]
        p, q = 1.0 + a1 / a0, a2 / a0
        r0, r1 = b1 - a1 * b0, b2 - a2 * b0
        det = p + q
        zi[section] = scale * ((r0 + r1) / det), scale * ((p * r1 - q * r0) / det)
        scale *= total((b0, b1, b2)) / total((a0, a1, a2))
    zi.flags.writeable = False
    return zi


# scipy's compiled sosfilt loop, in scipy/signal/_sosfilt<extension suffix>
_KERNEL_MODULE = "scipy.signal._sosfilt"


def _load_extension(name, path):
    """The extension module `name` loaded from the file `path`, left out of
    sys.modules (Cython's init enters its module there)."""
    registered = name in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    if not registered:
        sys.modules.pop(name, None)
    return module


def _kernel_path():
    """The extension file of scipy's compiled sosfilt loop in the installed
    scipy, found without importing scipy; FileNotFoundError, naming the
    file and scipy's version, if there is none."""
    base = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin),
                        *_KERNEL_MODULE.split(".")[1:])
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise _no_kernel(f"{paths[0]}: no such file")
    return path


def _no_kernel(problem):
    """The FileNotFoundError for `problem` with the sosfilt loop's file;
    scipy's version comes from its installed metadata, since scipy itself
    is not imported."""
    from importlib.metadata import version

    return FileNotFoundError(f"{problem}; the bandpass filter needs scipy's compiled "
                             f"sosfilt loop (scipy {version('scipy')})")


@functools.cache
def _sosfilt_kernel():
    """scipy.signal's compiled sosfilt loop, `_sosfilt(sos, x, zi)`, loaded
    once per process from its extension file in the installed scipy, so
    that scipy.signal's package init never runs (the loop's own init
    imports scipy's top level). It filters the rows of the C-contiguous
    float64 array x through the sections of sos, in place, from the
    section states zi of shape (rows, sections, 2), which it also updates;
    every argument must be writable. FileNotFoundError, naming the file
    and scipy's version, if scipy has no such loop."""
    path = _kernel_path()
    kernel = getattr(_load_extension(_KERNEL_MODULE, path), "_sosfilt", None)
    if kernel is None:
        raise _no_kernel(f"{path}: no _sosfilt in it")
    return kernel


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
    sosfilt = _sosfilt_kernel()
    # the loop filters in place and takes only writable arrays: a copy of
    # the shared design, and fresh signal and state arrays for each pass
    sos = _cached_sos(spec, ts.sample_rate).copy()
    zi = _cached_zi(spec, ts.sample_rate)
    # signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)
    x = ts.samples
    y = np.concatenate((x[padlen:0:-1], x, x[-2:-(padlen + 2):-1]))[np.newaxis]
    sosfilt(sos, y, (zi * y[0, 0])[np.newaxis])
    y = y[:, ::-1].copy()
    sosfilt(sos, y, (zi * y[0, 0])[np.newaxis])
    return TimeSeries(y[0, ::-1][padlen:-padlen].copy(), ts.sample_rate)


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
    check_window(len(ts), spec)
    k_lo, k_hi = band_bins(band, ts.sample_rate, spec)
    df = ts.sample_rate / spec.fft_size

    # common factors cancel in the ratios below, so the scaled signal
    # needs no scale-back
    x = np.ldexp(ts.samples, -_max_exponent(ts.samples))
    segments = sliding_window_view(x, spec.window_len)[::spec.hop]
    hann = np.hanning(spec.window_len)
    # the spectra are taken in blocks of windows, so memory stays bounded
    # however many windows the signal has; numpy's rfft gives each row the
    # same bits in a block as in one batched call
    block = max(1, _STFT_BLOCK_BYTES // (16 * (spec.fft_size // 2 + 1)))
    last = k_hi - k_lo
    freqs = []
    for start in range(0, len(segments), block):
        spectra = np.fft.rfft(segments[start:start + block] * hann, spec.fft_size, axis=1)
        # squared magnitudes of the band's bins: the log-parabola vertex is
        # the same as over plain magnitudes, and the add/multiply-only path
        # keeps argmax and refinement bit-stable when the input is scaled
        # by a power of two
        band_spectra = spectra[:, k_lo:k_hi + 1]
        mag2s = band_spectra.real ** 2 + band_spectra.imag ** 2
        for j, mag2 in zip(np.argmax(mag2s, axis=1).tolist(), mag2s.tolist()):
            delta = 0.0
            if 0 < j < last:
                left, mid, right = (max(m, _LOG_FLOOR) for m in mag2[j - 1:j + 2])
                # log-ratio form: any common scale factor cancels in the
                # quotients before log rounds it in; math.log, not np.log,
                # which may differ in the last bit
                denom = math.log((left * right) / (mid * mid))
                if denom != 0.0:
                    # np.clip's order: max, then min; a nan stays nan
                    delta = min(max(0.5 * math.log(left / right) / denom, -0.5), 0.5)
            freqs.append((k_lo + j + delta) * df)
    return np.array(freqs)


def median_rate(freqs):
    """Median of the window peak frequencies, in cycles per minute.

    Even-length inputs use the mean of the two middle values.
    """
    return median(freqs) * 60.0


def _gtsv(dl, d, du, b):
    """LAPACK dgtsv for one right-hand side, over lists of floats: Gaussian
    elimination of the tridiagonal system with sub-, main and super-
    diagonals dl, d, du, swapping rows where the subdiagonal entry is
    larger, then back substitution; returns the solution."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


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
    # CubicSpline(knot_t, knot_v, bc_type="natural"): the knot slopes s
    # solve a tridiagonal system (diagonals dl, d, du; right side b)
    x, y = knot_t, knot_v
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = np.empty(len(x))
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    d[0], d[-1] = 2 * dx[0], 2 * dx[-1]
    du = np.concatenate((dx[:1], dx[:-1]))
    dl = np.concatenate((dx[1:], dx[-1:]))
    b = np.empty(len(x))
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # natural ends; scipy adds the zero end curvature's term, which at the
    # last knot turns a -0.0 into +0.0
    b[0] = 3 * (y[1] - y[0])
    b[-1] = 0.0 + 3 * (y[-1] - y[-2])
    s = np.array(_gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))
    # Hermite form, then PPoly's evaluation in its interval and term order
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    coeffs = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])
    at = np.clip(np.arange(int(round(duration * sample_rate))) / sample_rate, x[0], x[-1])
    i = np.minimum(np.searchsorted(x, at, side="right") - 1, len(x) - 2)
    h = at - x[i]
    values = 0.0 + coeffs[3][i]
    power = h
    for c in coeffs[2::-1]:
        values += c[i] * power
        power = power * h
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
    med = float(median(freqs))
    flags = set()
    if med <= low + 2 * df or med >= high - 2 * df:
        flags.add("out_of_band")
    if len(freqs) >= 3 and float(np.std(freqs)) > (high - low) / 8.0:
        flags.add("out_of_band")
    return flags


def estimate_rate(ts, spec, stft_spec):
    """(rate in cycles/minute, flags) of the dominant in-band oscillation.

    The one rate estimator of the HR, RR and ground-truth paths: zero-phase
    bandpass by the BandpassSpec spec, then filtered_rate of the result.
    """
    return filtered_rate(bandpass(ts, spec), spec, stft_spec)


def filtered_rate(filtered, spec, stft_spec):
    """estimate_rate of a series already bandpassed by spec, for a caller
    that keeps the filtered signal: per-window spectral peaks in the band,
    their median scaled to per-minute, and the rate_flags of those peaks."""
    band = (spec.low, spec.high)
    freqs = stft_peak_freqs(filtered, stft_spec, band)
    return median_rate(freqs), rate_flags(freqs, band, stft_spec, filtered.sample_rate)
