"""ROI rules and traces: facial color for the pulse, chest motion for
breathing; `dsp.estimate_rate` turns either trace into a rate.

The pulse feature maps each ROI pixel's RGB triple to the unit sphere,
averages the directions per frame, and scalarizes the per-frame mean
directions through the sphere log map at their temporal mean, projecting
onto the first principal tangent direction. Respiration uses the mean
grayscale of the area below the face.
"""

import math

import numpy as np

# bandpass is unused here: the benchmark's tracer test reads vitals.bandpass
from .dsp import bandpass  # noqa: F401
from .geometry import Rect
from .ingest import _roi_blocks, to_grayscale
from .series import TimeSeries


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
        # each frame's squared norm in the fixed order of _norm3 below
        m0, m1, m2 = bm.T
        means[t0:t0 + len(bm)] = bm / np.sqrt((m0 * m0 + m1 * m1) + m2 * m2)[:, None]
    return means


# The 3-vector and 2x2 arithmetic below is spelled out in a fixed order of
# IEEE operations, element-wise over frames where it runs per frame. A
# vector norm, `@`, matmul and eigh would run BLAS and LAPACK kernels,
# which OpenBLAS picks by CPU, so the traces' last bits (and est.csv's)
# would depend on the machine; they would also fault in about 1 MB of
# library code for a handful of 3-term sums.

def _norm3(v):
    """Euclidean norm of the 3-vector v, as sqrt((x*x + y*y) + z*z)."""
    x, y, z = v
    return math.sqrt((x * x + y * y) + z * z)


def _dot3(columns, v):
    """Per-row dot product of a (T, 3) array, given as its 3 columns, with
    the 3-vector v."""
    c0, c1, c2 = columns
    return (c0 * v[0] + c1 * v[1]) + c2 * v[2]


def _principal_axis(a, b, d):
    """(larger eigenvalue, its unit eigenvector) of the symmetric matrix
    [[a, b], [b, d]], in closed form.

    lambda = (a + d)/2 + hypot((a - d)/2, b). The eigenvector is taken as
    (lambda - d, b) when a >= d and as (b, lambda - a) otherwise, whichever
    avoids the cancellation of the other, then normalised. With b == 0 it
    is the axis of the larger diagonal entry, [0, 1] on a tie, as
    np.linalg.eigh's last column.
    """
    if b == 0.0:
        return (a, (1.0, 0.0)) if a > d else (d, (0.0, 1.0))
    lam = (a + d) / 2 + math.hypot((a - d) / 2, b)
    v = (lam - d, b) if a >= d else (b, lam - a)
    norm = math.hypot(*v)
    return lam, (v[0] / norm, v[1] / norm)


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
    mu /= _norm3(mu)

    # sphere log map at mu: v = theta/sin(theta) * (m - cos(theta) mu)
    dots = np.clip(_dot3(means.T, mu), -1.0, 1.0)
    # math.acos, not np.arccos, whose AVX-512 loop differs from libm in the
    # last bit of some angles
    theta = np.array([math.acos(c) for c in dots.tolist()])
    sin_t = np.sin(theta)
    factor = np.where(sin_t > 1e-12, theta / np.where(sin_t > 1e-12, sin_t, 1.0), 1.0)
    tangent = factor[:, None] * (means - dots[:, None] * mu[None, :])

    # orthonormal tangent basis at mu, picked deterministically
    axis = np.array([1.0, 0.0, 0.0]) if abs(mu[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(mu, axis)
    e1 /= _norm3(e1)
    e2 = np.cross(mu, e1)
    x, y = _dot3(tangent.T, e1), _dot3(tangent.T, e2)

    # the tangent covariance [[a, b], [b, d]]; np.sum adds pairwise
    lam, (v0, v1) = _principal_axis(float(np.sum(x * x)) / n, float(np.sum(x * y)) / n,
                                    float(np.sum(y * y)) / n)
    if lam <= 1e-24:
        scalar = np.zeros(n)
    else:
        scalar = x * v0 + y * v1
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

