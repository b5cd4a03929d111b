"""Heart rate from facial color, respiration rate from chest motion.

The pulse feature maps each ROI pixel's RGB triple to the unit sphere,
averages the directions per frame, and scalarizes the per-frame mean
directions through the sphere log map at their temporal mean, projecting
onto the first principal tangent direction. Respiration uses the mean
grayscale of the area below the face.
"""

import numpy as np

from .config import PipelineConfig
from .dsp import TimeSeries, bandpass, BandpassSpec, median_rate, rate_flags, stft_peak_freqs
from .geometry import Rect
from .ingest import LUMA_B, LUMA_G, LUMA_R, _roi_blocks

from dataclasses import dataclass


@dataclass
class PulseTrace:
    """Per-frame unit mean color directions and their scalar projection."""

    unit_means: np.ndarray   # (T, 3), rows unit length
    scalar: TimeSeries


def hr_roi(face):
    """Lower half of the face box, center row included."""
    return Rect(face.x, face.y + face.h // 2, face.w, face.h - face.h // 2)


def rr_roi(face, frame_h, frame_w):
    """Full-width band from the face bottom to the frame bottom."""
    top = face.y + face.h
    if top >= frame_h:
        raise ValueError(f"face bottom {top} leaves no chest region in height {frame_h}")
    return Rect(0, top, frame_w, frame_h - top)


def spherical_mean_trace(clip, rois):
    """Pulse trace from per-pixel color directions.

    Per frame: pixels with nonzero norm are unit-normalized and averaged;
    the mean is renormalized to the sphere. Black pixels are skipped
    (undefined direction); a frame whose ROI is entirely black is an
    error. Scalarization: log-map the per-frame means at their normalized
    temporal mean direction, project the 2-D tangent coordinates onto the
    eigenvector of the larger tangent-covariance eigenvalue, and fix the
    sign so the first nonzero sample is non-negative. A constant-color
    clip has zero tangent variance and yields an all-zero scalar.
    """
    if len(rois) != clip.n_frames:
        raise ValueError(f"{len(rois)} ROIs for {clip.n_frames} frames")
    n = clip.n_frames
    means = np.empty((n, 3))
    for t0, _, block in _roi_blocks(clip, rois):
        px = block.astype(np.float64)
        norms = np.linalg.norm(px, axis=2)
        keep = norms > 0
        counts = keep.sum(axis=1)
        _check_not_black(counts, t0)
        # black pixels add 0.0 to the sums, which leaves them unchanged
        units = np.divide(px, norms[..., None], out=np.zeros_like(px), where=keep[..., None])
        block_means = units.sum(axis=1) / counts[:, None]
        for t, m in enumerate(block_means, t0):
            # 1-D norm per frame: a vectorised norm rounds differently
            means[t] = m / np.linalg.norm(m)

    mu = means.mean(axis=0)
    mu /= np.linalg.norm(mu)

    # sphere log map at mu: v = theta/sin(theta) * (m - cos(theta) mu)
    dots = np.clip(means @ mu, -1.0, 1.0)
    theta = np.arccos(dots)
    sin_t = np.sin(theta)
    factor = np.where(sin_t > 1e-12, theta / np.where(sin_t > 1e-12, sin_t, 1.0), 1.0)
    tangent = factor[:, None] * (means - dots[:, None] * mu[None, :])

    # orthonormal tangent basis at mu, picked deterministically
    axis = np.array([1.0, 0.0, 0.0]) if abs(mu[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(mu, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(mu, e1)
    coords = np.stack([tangent @ e1, tangent @ e2], axis=1)

    cov = coords.T @ coords / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[-1] <= 1e-24:
        scalar = np.zeros(n)
    else:
        scalar = coords @ eigvecs[:, -1]
        nonzero = np.flatnonzero(np.abs(scalar) > 1e-12)
        if nonzero.size and scalar[nonzero[0]] < 0:
            scalar = -scalar
    return PulseTrace(unit_means=means, scalar=TimeSeries(scalar, clip.fps))


def _check_not_black(counts, t0):
    black = np.flatnonzero(counts == 0)
    if black.size:
        raise ValueError(f"ROI entirely black in frame {t0 + black[0]}")


def green_chromaticity_trace(clip, rois):
    """Fallback pulse feature: per-frame mean of G / (R + G + B)."""
    if len(rois) != clip.n_frames:
        raise ValueError(f"{len(rois)} ROIs for {clip.n_frames} frames")
    out = np.empty(clip.n_frames)
    for t0, _, block in _roi_blocks(clip, rois):
        px = block.astype(np.float64)
        sums = px.sum(axis=2)
        keep = sums > 0
        _check_not_black(keep.sum(axis=1), t0)
        ratio = np.divide(px[..., 1], sums, out=np.zeros_like(sums), where=keep)
        full = keep.all(axis=1)
        out[t0:t0 + len(block)][full] = ratio[full].mean(axis=1)
        # a frame with black pixels averages only the others, in the same
        # summation order as a 1-D mean over them
        for t in np.flatnonzero(~full):
            out[t0 + t] = ratio[t, keep[t]].mean()
    return TimeSeries(out, clip.fps)


def mean_gray_trace(clip, rois):
    """Per-frame mean Rec.601 gray over the ROI (grayscale conversion is
    rounded per pixel, matching the file-format convention)."""
    if len(rois) != clip.n_frames:
        raise ValueError(f"{len(rois)} ROIs for {clip.n_frames} frames")
    out = np.empty(clip.n_frames)
    for t0, _, block in _roi_blocks(clip, rois):
        if block.size == 0:
            raise ValueError(f"empty ROI in frame {t0}")
        px = block.astype(np.float64)
        gray = np.clip(np.rint(LUMA_R * px[..., 0] + LUMA_G * px[..., 1] + LUMA_B * px[..., 2]),
                       0, 255)
        out[t0:t0 + len(block)] = gray.mean(axis=1)
    return TimeSeries(out, clip.fps)


def pulse_trace(clip, rois, cfg):
    """Scalar pulse signal under the configured scalarization."""
    if cfg.scalarization == "green_chromaticity":
        return green_chromaticity_trace(clip, rois)
    return spherical_mean_trace(clip, rois).scalar


def _estimate(ts, band, cfg, stft_spec):
    filtered = bandpass(ts, BandpassSpec(band[0], band[1], cfg.filter_order))
    freqs = stft_peak_freqs(filtered, stft_spec, band)
    return median_rate(freqs), rate_flags(freqs, band, stft_spec, ts.sample_rate)


def estimate_hr(clip, rois, cfg=None):
    """Heart rate in beats/minute from the facial ROI sequence."""
    cfg = cfg or PipelineConfig()
    bpm, _ = estimate_hr_flagged(clip, rois, cfg)
    return bpm


def estimate_hr_flagged(clip, rois, cfg=None):
    """(bpm, flags): flags ⊆ {out_of_band} marks low-confidence estimates."""
    cfg = cfg or PipelineConfig()
    return _estimate(pulse_trace(clip, rois, cfg), cfg.hr_band, cfg, cfg.video_stft)


def estimate_rr(clip, rois, cfg=None):
    """Respiration rate in breaths/minute from the chest ROI sequence."""
    cfg = cfg or PipelineConfig()
    brpm, _ = estimate_rr_flagged(clip, rois, cfg)
    return brpm


def estimate_rr_flagged(clip, rois, cfg=None):
    cfg = cfg or PipelineConfig()
    return _estimate(mean_gray_trace(clip, rois), cfg.rr_band, cfg, cfg.video_stft)
