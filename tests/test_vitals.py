import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.geometry import Rect
from camvitals.ingest import VideoClip
from camvitals.vitals import (_principal_axis, _unit_means, hr_roi, mean_gray_trace,
                              pulse_trace, rr_roi)

from conftest import hr_estimate, quick_clip, rr_estimate


# ------------------------- ROI derivation -------------------------

def test_hr_roi_is_lower_face_half():
    assert hr_roi(Rect(10, 20, 31, 31)) == Rect(10, 35, 31, 16)
    assert hr_roi(Rect(0, 0, 8, 8)) == Rect(0, 4, 8, 4)


def test_rr_roi_spans_frame_below_face():
    assert rr_roi(Rect(40, 10, 20, 20), 100, 100) == Rect(0, 30, 100, 70)
    assert rr_roi(Rect(560, 140, 200, 240), 880, 1320) == Rect(0, 380, 1320, 500)


def test_rr_roi_rejects_face_at_frame_bottom():
    with pytest.raises(ValueError):
        rr_roi(Rect(0, 80, 20, 20), 100, 100)


# ------------------------- pulse scalarization -------------------------

def face_rois(clip, truth):
    return [truth.face_box] * clip.n_frames


def test_spherical_trace_shapes_and_sign():
    clip, truth = quick_clip(noise_sigma=1.0, seed=4)
    rois = face_rois(clip, truth)
    unit_means = _unit_means(clip, rois)
    assert unit_means.shape == (clip.n_frames, 3)
    assert np.allclose(np.linalg.norm(unit_means, axis=1), 1.0, atol=1e-12)
    scalar = pulse_trace(clip, rois)
    assert len(scalar) == clip.n_frames
    assert scalar.sample_rate == clip.fps
    nonzero = scalar.samples[np.abs(scalar.samples) > 1e-12]
    assert nonzero.size and nonzero[0] >= 0  # sign convention


def test_spherical_trace_constant_clip_is_zero():
    frames = np.zeros((10, 8, 8, 3), dtype=np.uint8)
    frames[:] = (200, 150, 130)
    clip = VideoClip(frames, 30.0)
    trace = pulse_trace(clip, [Rect(0, 0, 8, 8)] * 10)
    assert np.all(trace.samples == 0.0)


def test_spherical_trace_rejects_all_black_roi():
    frames = np.zeros((3, 8, 8, 3), dtype=np.uint8)
    clip = VideoClip(frames, 30.0)
    with pytest.raises(ValueError):
        pulse_trace(clip, [Rect(0, 0, 8, 8)] * 3)


# The closed-form principal axis against LAPACK's eigh, which pulse_trace
# used before: exactly where the covariance is diagonal, and to a few ulps
# elsewhere.

@pytest.mark.parametrize("a,d", [(2.0, 1.0), (1.0, 2.0), (1.5, 1.5), (0.0, 0.0),
                                 (1e-30, 3e-30)])
def test_principal_axis_of_a_diagonal_matrix_is_eighs(a, d):
    eigvals, eigvecs = np.linalg.eigh(np.array([[a, 0.0], [0.0, d]]))
    lam, vec = _principal_axis(a, 0.0, d)
    assert lam == eigvals[-1]
    assert vec == tuple(eigvecs[:, -1].tolist())


def test_principal_axis_matches_eigh_on_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        a, d = rng.uniform(0.0, 1.0, 2) * 10.0 ** rng.integers(-20, 3)
        b = rng.uniform(-1.0, 1.0) * np.sqrt(a * d)
        eigvals, eigvecs = np.linalg.eigh(np.array([[a, b], [b, d]]))
        lam, vec = _principal_axis(a, b, d)
        want = eigvecs[:, -1] * np.sign(eigvecs[:, -1] @ vec)   # eigh's sign is free
        assert lam == pytest.approx(eigvals[-1], rel=1e-13)
        assert np.abs(want - vec).max() < 1e-13


def eigh_pulse_trace(clip, rois):
    """pulse_trace as written with np.linalg (norm, @ and eigh)."""
    means = _unit_means(clip, rois)
    mu = means.mean(axis=0)
    mu /= np.linalg.norm(mu)
    dots = np.clip(means @ mu, -1.0, 1.0)
    theta = np.arccos(dots)
    sin_t = np.sin(theta)
    factor = np.where(sin_t > 1e-12, theta / np.where(sin_t > 1e-12, sin_t, 1.0), 1.0)
    tangent = factor[:, None] * (means - dots[:, None] * mu[None, :])
    e1 = np.cross(mu, [1.0, 0.0, 0.0] if abs(mu[0]) <= 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    coords = np.stack([tangent @ e1, tangent @ np.cross(mu, e1)], axis=1)
    scalar = coords @ np.linalg.eigh(coords.T @ coords / clip.n_frames)[1][:, -1]
    nonzero = np.flatnonzero(np.abs(scalar) > 1e-12)
    return -scalar if nonzero.size and scalar[nonzero[0]] < 0 else scalar


@pytest.mark.parametrize("seed", range(4))
def test_pulse_trace_matches_the_eigh_formulation(seed):
    # seen: at most 1.8e-14 of the trace's peak on these clips
    clip, truth = quick_clip(duration=10.0, noise_sigma=float(seed % 3), seed=seed)
    rois = [truth.face_box] * clip.n_frames
    got, want = pulse_trace(clip, rois).samples, eigh_pulse_trace(clip, rois)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_mean_gray_trace_matches_brute_force():
    rng = np.random.default_rng(12)
    frames = rng.integers(0, 256, size=(4, 6, 6, 3), dtype=np.uint8)
    clip = VideoClip(frames, 30.0)
    roi = Rect(1, 2, 4, 3)
    ts = mean_gray_trace(clip, [roi] * 4)
    for t in range(4):
        px = frames[t, roi.y:roi.bottom, roi.x:roi.right].astype(np.float64)
        gray = np.clip(np.rint(0.299 * px[..., 0] + 0.587 * px[..., 1]
                               + 0.114 * px[..., 2]), 0, 255)
        assert ts.samples[t] == pytest.approx(gray.mean(), abs=1e-12)


# ------------------- traces through dsp.estimate_rate -------------------

def test_estimate_hr_recovers_injected_rate():
    clip, truth = quick_clip(hr=66.0, noise_sigma=0.5, seed=7)
    rois = [hr_roi(truth.face_box) for _ in range(clip.n_frames)]
    assert hr_estimate(clip, rois)[0] == pytest.approx(66.0, abs=0.5)


def test_estimate_rr_recovers_injected_rate():
    clip, truth = quick_clip(rr=17.0, noise_sigma=0.5, seed=8)
    rois = [rr_roi(truth.face_box, clip.height, clip.width)] * clip.n_frames
    assert rr_estimate(clip, rois)[0] == pytest.approx(17.0, abs=0.5)


def test_estimate_hr_flagged_clean_signal_unflagged():
    clip, truth = quick_clip(hr=72.0, seed=3)
    rois = [hr_roi(truth.face_box)] * clip.n_frames
    bpm, flags = hr_estimate(clip, rois)
    assert flags == set()
    assert bpm == pytest.approx(72.0, abs=0.5)


def test_estimate_rr_flags_motionless_chest():
    clip, truth = quick_clip(chest_amp=0.0, seed=6)
    rois = [rr_roi(truth.face_box, clip.height, clip.width)] * clip.n_frames
    _, flags = rr_estimate(clip, rois)
    assert "out_of_band" in flags


def test_estimators_accept_custom_band_config():
    clip, truth = quick_clip(hr=150.0, seed=9)
    rois = [hr_roi(truth.face_box)] * clip.n_frames
    wide = PipelineConfig(hr_high=3.0)
    assert hr_estimate(clip, rois, wide)[0] == pytest.approx(150.0, abs=0.5)
