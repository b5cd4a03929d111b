"""Reference rates from the physiological channels.

HR: R peaks from the derivative of the baseline-corrected ECG, rebuilt
into a PPG-like oscillation by spline interpolation, then the same
spectral estimator as the video path. RR: the belt channel goes through
`dsp.estimate_rate` directly.
"""

import numpy as np

from .dsp import SignalTooShort, check_window, cubic_spline, detrend, estimate_rate
from .series import percentile


def ecg_peaks(ecg, cfg):
    """R-peak times in seconds from the ECG derivative.

    Pipeline: moving-mean baseline removal, first difference d, threshold
    at a fraction of a high percentile of |d|, local maxima of d above the
    threshold, thinned by a refractory period keeping the larger candidate
    on conflict. The spans and fractions are cfg's ecg_* settings.
    """
    if ecg.duration < 2.0:
        raise SignalTooShort(f"need >= 2 s of ECG, got {ecg.duration:.3f} s")
    corrected = detrend(ecg, cfg.ecg_detrend_s)
    d = np.diff(corrected.samples)
    theta = cfg.ecg_threshold_factor * percentile(np.abs(d), cfg.ecg_percentile)
    # a span past the record acts as one past every peak gap
    refractory = int(round(min(cfg.ecg_refractory_s * ecg.sample_rate, len(d))))

    # strict rise on the left tolerates flat tops on the right
    mid = d[1:-1]
    candidates = np.flatnonzero((mid > theta) & (mid > d[:-2]) & (mid >= d[2:])) + 1
    kept, kept_d = [], []
    for i, di in zip(candidates.tolist(), d[candidates].tolist()):
        if kept and i - kept[-1] < refractory:
            if di > kept_d[-1]:
                kept[-1], kept_d[-1] = i, di
        else:
            kept.append(i)
            kept_d.append(di)
    if not kept:
        raise ValueError("no ECG peaks found")
    return np.array(kept, dtype=np.int64) / ecg.sample_rate


def ppg_like(peak_times, sample_rate, duration):
    """Oscillation reconstructed from strictly increasing peak times (s).

    Knots: +1 at each peak, -1 at each inter-peak midpoint; natural cubic
    spline sampled at sample_rate. The fundamental frequency equals the
    beat rate.
    """
    pt = np.asarray(peak_times, dtype=np.float64)
    if len(pt) < 3:
        raise ValueError(f"need >= 3 peaks, got {len(pt)}")
    knot_t = np.empty(2 * len(pt) - 1)
    knot_v = np.empty_like(knot_t)
    knot_t[0::2] = pt
    knot_v[0::2] = 1.0
    knot_t[1::2] = 0.5 * (pt[:-1] + pt[1:])
    knot_v[1::2] = -1.0
    return cubic_spline(knot_t, knot_v, sample_rate, duration)


def gt_hr_flagged(ecg, cfg):
    """(reference heart rate in beats/minute, flags) from an ECG channel."""
    # before peak detection: too short is too short, whatever the beat count
    check_window(len(ecg), cfg.physio_stft)
    signal = ppg_like(ecg_peaks(ecg, cfg), ecg.sample_rate, ecg.duration)
    return estimate_rate(signal, cfg.hr_bandpass, cfg.physio_stft)
