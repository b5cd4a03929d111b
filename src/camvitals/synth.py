"""Synthetic scenes with known vital signs: a flat-color face whose red
channel carries the pulse, a chest band whose edge carries breathing
motion, plus matching ECG / belt channels — the oracle for every
behavioral test, including the skin-tone sweep."""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dsp import TimeSeries
from .geometry import Rect
from .ingest import (HOLD_BREATH_TASK, MANIFEST_FILE, PHYSIO_FILE, PhysioRecord,
                     TrialEntry, TrialManifest, VideoClip, frame_path, write_csv,
                     write_manifest, write_physio_csv, write_ppm, LUMA_R, LUMA_G, LUMA_B)

BACKGROUND_GRAY = 40.0
BASE_SKIN = (200.0, 150.0, 130.0)
CHEST_COLOR = (90.0, 80.0, 85.0)

PHYSIO_RATE = 128.0
ECG_BUMP_SIGMA_S = 0.010

TRUTH_FILE = "truth.csv"

TRUTH_HEADER = ["trial_id", "hr_bpm", "rr_brpm", "face_x", "face_y",
                "face_w", "face_h", "mean_face_gray"]


@dataclass(frozen=True)
class SynthConfig:
    width: int = 64
    height: int = 64
    fps: float = 30.0
    duration: float = 20.0
    hr_bpm: float = 72.0
    rr_brpm: float = 15.0
    tone: float = 1.0
    pulse_amp: float = 0.01
    chest_amp: float = 1.5
    noise_sigma: float = 0.0
    quantize: bool = True
    blur_radius: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.tone <= 1):
            raise ValueError(f"tone must be in (0, 1], got {self.tone}")
        if not (30 <= self.hr_bpm <= 220):
            raise ValueError(f"hr_bpm {self.hr_bpm} outside [30, 220]")
        if not (6 <= self.rr_brpm <= 60):
            raise ValueError(f"rr_brpm {self.rr_brpm} outside [6, 60]")
        if self.noise_sigma < 0 or self.blur_radius < 0 or self.chest_amp < 0:
            raise ValueError("noise_sigma, blur_radius and chest_amp must be >= 0")
        if self.fps <= 0 or self.duration < 0:
            raise ValueError("fps must be positive and duration non-negative")


@dataclass(frozen=True)
class SynthTruth:
    hr_bpm: float
    rr_brpm: float
    face_box: Rect
    mean_face_gray: float


def scene_geometry(width, height):
    """Face box (centered, one third of the frame height) and the resting
    top edge of the chest band."""
    face_h = height // 3
    face_w = max(2, int(round(face_h * 0.75)))
    face = Rect((width - face_w) // 2, height // 6, face_w, face_h)
    chest_top = face.bottom + max(2, height // 16)
    return face, chest_top


def synth_clip(cfg):
    """Render a clip per the SynthConfig; returns (VideoClip, SynthTruth).

    The face's red channel is modulated by (1 + pulse_amp sin(2π hr t)):
    a color-direction oscillation that intensity-normalizing features can
    see. The chest band's top edge moves as chest_amp sin(2π rr t), drawn
    with linear coverage blending on the boundary row. Then optional box
    blur, seeded Gaussian noise, and optional 8-bit quantization.
    """
    w, h = cfg.width, cfg.height
    face, chest_top = scene_geometry(w, h)
    if not face.inside(w, h) or face.h < 2:
        raise ValueError(f"face {face} does not fit a {w}x{h} frame")
    if chest_top - cfg.chest_amp < face.bottom or chest_top + cfg.chest_amp > h - 1:
        raise ValueError(
            f"chest band (top {chest_top} +- {cfg.chest_amp}px) does not fit "
            f"between face bottom {face.bottom} and frame bottom {h}")

    n = int(round(cfg.duration * cfg.fps))
    t = np.arange(n) / cfg.fps
    frames = np.full((n, h, w, 3), BACKGROUND_GRAY, dtype=np.float64)

    skin = np.array(BASE_SKIN) * cfg.tone
    pulse = 1.0 + cfg.pulse_amp * np.sin(2 * np.pi * cfg.hr_bpm / 60.0 * t)
    frames[:, face.y:face.bottom, face.x:face.right, 0] = skin[0] * pulse[:, None, None]
    frames[:, face.y:face.bottom, face.x:face.right, 1] = skin[1]
    frames[:, face.y:face.bottom, face.x:face.right, 2] = skin[2]

    # chest edge: per-frame fractional row coverage, zero above the face bottom
    edge = chest_top + cfg.chest_amp * np.sin(2 * np.pi * cfg.rr_brpm / 60.0 * t)
    rows = np.arange(h, dtype=np.float64)
    coverage = np.clip(rows[None, :] + 1.0 - edge[:, None], 0.0, 1.0)
    for c in range(3):
        frames[:, :, :, c] += coverage[:, :, None] * (CHEST_COLOR[c] - BACKGROUND_GRAY)

    if cfg.blur_radius > 0:
        from scipy import ndimage

        k = 2 * cfg.blur_radius + 1
        for i in range(n):
            frames[i] = ndimage.uniform_filter(frames[i], size=(k, k, 1), mode="nearest")
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        frames += rng.normal(0.0, cfg.noise_sigma, frames.shape)

    np.clip(frames, 0.0, 255.0, out=frames)
    if cfg.quantize:
        frames = np.rint(frames).astype(np.uint8)

    mean_gray = LUMA_R * skin[0] + LUMA_G * skin[1] + LUMA_B * skin[2]
    truth = SynthTruth(hr_bpm=cfg.hr_bpm, rr_brpm=cfg.rr_brpm,
                       face_box=face, mean_face_gray=float(mean_gray))
    return VideoClip(frames, cfg.fps), truth


def synth_ecg(hr_bpm, fs, duration, jitter=0.0, seed=0, amp_jitter=0.0):
    """ECG stand-in: zero baseline with unit Gaussian bumps (sigma 10 ms)
    at beat times; intervals are 60/hr_bpm * (1 + jitter*u), u ~ U[-1, 1].
    The train starts half a period in so every bump has both flanks
    inside the record."""
    if not (30 <= hr_bpm <= 220):
        raise ValueError(f"hr_bpm {hr_bpm} outside [30, 220]")
    rng = np.random.default_rng(seed)
    period = 60.0 / hr_bpm
    beats = []
    t = 0.5 * period
    while t < duration:
        beats.append(t)
        t += period * (1.0 + jitter * rng.uniform(-1.0, 1.0))

    n = int(round(duration * fs))
    x = np.zeros(n)
    half_support = 5.0 * ECG_BUMP_SIGMA_S
    for tb in beats:
        amp = 1.0 + amp_jitter * rng.uniform(-1.0, 1.0)
        i0 = max(0, int(np.floor((tb - half_support) * fs)))
        i1 = min(n, int(np.ceil((tb + half_support) * fs)) + 1)
        ts = np.arange(i0, i1) / fs
        x[i0:i1] += amp * np.exp(-((ts - tb) ** 2) / (2.0 * ECG_BUMP_SIGMA_S ** 2))
    return TimeSeries(x, fs)


def synth_resp(rr_brpm, fs, duration, seed=0, amplitude=1.0):
    """Belt stand-in: sinusoid at rr_brpm/60 Hz plus Gaussian noise (0.05)."""
    if not (6 <= rr_brpm <= 60):
        raise ValueError(f"rr_brpm {rr_brpm} outside [6, 60]")
    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    t = np.arange(n) / fs
    x = amplitude * np.sin(2 * np.pi * rr_brpm / 60.0 * t) + rng.normal(0.0, 0.05, n)
    return TimeSeries(x, fs)


# ------------------------- protocols -------------------------

@dataclass(frozen=True)
class TrialPlan:
    trial_id: int
    condition: str
    task_id: int
    duration: float


# per-condition physiological regimes: (hr range, rr range)
RATE_RANGES = {
    "respiration": ((60.0, 80.0), (12.0, 18.0)),
    "workout": ((90.0, 130.0), (18.0, 26.0)),
    "gaze": ((60.0, 85.0), (12.0, 20.0)),
}


def paper_protocol(seed=0):
    """The reference study structure.

    Respiratory part: 2 conditions x 5 blocks x 3 tasks (1, 2, 7) of 20 s
    each = 30 trials / 600 s. Gaze part: 10 blocks x 5 tasks (3..7) of
    10 s each = 50 trials / 500 s. Task order is permuted within each
    block (seeded).
    """
    rng = np.random.default_rng(seed)
    plans = []
    trial_id = 1
    for condition in ("respiration", "workout"):
        for _block in range(5):
            for task in rng.permutation([1, 2, 7]):
                plans.append(TrialPlan(trial_id, condition, int(task), 20.0))
                trial_id += 1
    for _block in range(10):
        for task in rng.permutation([3, 4, 5, 6, 7]):
            plans.append(TrialPlan(trial_id, "gaze", int(task), 10.0))
            trial_id += 1
    return plans


def _trial_rates(plan, seed):
    hr_range, rr_range = RATE_RANGES[plan.condition]
    rng = np.random.default_rng(seed + plan.trial_id)
    return rng.uniform(*hr_range), rng.uniform(*rr_range)


def synth_dataset(protocol, base_cfg, out_dir, seed=0, rates=None):
    """Write a full dataset directory for a protocol.

    Layout: frame_%06d.ppm files (one global sequence), manifest.txt,
    physio.csv (ECG/belt/trigger at PHYSIO_RATE, trigger code = trial_id
    at each trial's start sample), and truth.csv with the injected rates
    and face geometry per trial. Hold-breath trials (task 2) get zero
    chest motion and a flat belt. Rates are drawn per trial from the
    condition's range unless `rates` maps the trial id to an (hr, rr)
    pair. All randomness derives from `seed` and the trial id, so
    regeneration is bit-identical.

    Returns the dataset's TrialManifest and the {trial_id: (hr, rr)} rates
    it injected.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    injected = {}
    truth_rows = []
    ecg_parts, resp_parts, trig_parts = [], [], []
    next_frame = 0
    for plan in protocol:
        override = (rates or {}).get(plan.trial_id)
        hr, rr = override if override is not None else _trial_rates(plan, seed)
        injected[plan.trial_id] = (hr, rr)
        hold_breath = plan.task_id == HOLD_BREATH_TASK
        cfg = replace(base_cfg, duration=plan.duration, hr_bpm=hr, rr_brpm=rr,
                      chest_amp=0.0 if hold_breath else base_cfg.chest_amp,
                      quantize=True, seed=seed + plan.trial_id)
        clip, truth = synth_clip(cfg)
        for i in range(clip.n_frames):
            write_ppm(frame_path(out_dir, next_frame + i), clip.frames[i])

        n_phys = int(round(plan.duration * PHYSIO_RATE))
        ecg = synth_ecg(hr, PHYSIO_RATE, plan.duration, jitter=0.05,
                        seed=seed + plan.trial_id + 50_000)
        resp = synth_resp(rr, PHYSIO_RATE, plan.duration,
                          seed=seed + plan.trial_id + 100_000,
                          amplitude=0.0 if hold_breath else 1.0)
        trig = np.zeros(n_phys, dtype=np.int64)
        trig[0] = plan.trial_id
        ecg_parts.append(ecg.samples)
        resp_parts.append(resp.samples)
        trig_parts.append(trig)

        entries.append(TrialEntry(trial_id=plan.trial_id, condition=plan.condition,
                                  task_id=plan.task_id, start_frame=next_frame,
                                  frame_count=clip.n_frames, trigger_code=plan.trial_id))
        truth_rows.append([plan.trial_id, hr, rr, truth.face_box.x, truth.face_box.y,
                           truth.face_box.w, truth.face_box.h, truth.mean_face_gray])
        next_frame += clip.n_frames

    manifest = TrialManifest(fps=base_cfg.fps, width=base_cfg.width,
                             height=base_cfg.height, entries=entries)
    write_manifest(out_dir / MANIFEST_FILE, manifest)
    record = PhysioRecord(sample_rate=PHYSIO_RATE,
                          ecg=TimeSeries(np.concatenate(ecg_parts), PHYSIO_RATE),
                          resp=TimeSeries(np.concatenate(resp_parts), PHYSIO_RATE),
                          trigger=np.concatenate(trig_parts))
    write_physio_csv(out_dir / PHYSIO_FILE, record)
    write_csv(out_dir / TRUTH_FILE, TRUTH_HEADER, truth_rows)
    return manifest, injected
