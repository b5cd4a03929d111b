"""Synthetic scenes with known vital signs: a flat-color face whose red
channel carries the pulse, a chest band whose edge carries breathing
motion, plus matching ECG / belt channels — the oracle for every
behavioral test, including the skin-tone sweep."""

import os
import tempfile
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import Rect
from .ingest import (HOLD_BREATH_TASK, MANIFEST_FILE, PHYSIO_FILE, PhysioRecord, TrialEntry,
                     TrialManifest, VideoClip, _frames_file, in_order, write_csv, write_manifest,
                     write_physio_csv, write_ppm, LUMA_R, LUMA_G, LUMA_B)
# SynthConfig is synth_clip's argument: callers, the benchmark's renderer
# among them, import it from here
from .scene import SynthConfig, scene_geometry  # noqa: F401
from .series import TimeSeries

BACKGROUND_GRAY = 40.0
BASE_SKIN = (200.0, 150.0, 130.0)
CHEST_COLOR = (90.0, 80.0, 85.0)

PHYSIO_RATE = 128.0
ECG_BUMP_SIGMA_S = 0.010

# float64 bytes of the frame block synth_clip renders at a time (at least
# one frame), which bounds a clip's float64 working memory. 4 MiB blocks
# rendered the 80 paper trials about 7% faster on 2 CPUs, and raised the
# peak RSS by 6 MB
BLOCK_BYTES = 1 << 20

TRUTH_FILE = "truth.csv"

TRUTH_HEADER = ["trial_id", "hr_bpm", "rr_brpm", "face_x", "face_y",
                "face_w", "face_h", "mean_face_gray"]


@dataclass(frozen=True)
class SynthTruth:
    hr_bpm: float
    rr_brpm: float
    face_box: Rect
    mean_face_gray: float


def synth_clip(cfg):
    """Render a clip per the SynthConfig; returns (VideoClip, SynthTruth).

    The face's red channel is modulated by (1 + pulse_amp sin(2π hr t)):
    a color-direction oscillation that intensity-normalizing features can
    see. The chest band's top edge moves as chest_amp sin(2π rr t), drawn
    with linear coverage blending on the boundary row. Then optional box
    blur, seeded Gaussian noise, and rounding to the clip's uint8 frames.
    """
    w, h, n = cfg.width, cfg.height, cfg.n_frames
    face, chest_top = scene_geometry(w, h)
    try:
        frames = np.empty((n, h, w, 3), np.uint8)
    except (MemoryError, ValueError):
        raise ValueError(f"{cfg.duration:g} s at {cfg.fps:g} fps is {n:.6g} frames of "
                         f"{w}x{h}, more than fit in memory") from None
    t = np.arange(n) / cfg.fps
    skin = np.array(BASE_SKIN) * cfg.tone
    pulse = 1.0 + cfg.pulse_amp * np.sin(2 * np.pi * cfg.hr_bpm / 60.0 * t)

    # chest edge: per-frame fractional row coverage, zero above the face bottom
    edge = chest_top + cfg.chest_amp * np.sin(2 * np.pi * cfg.rr_brpm / 60.0 * t)
    rows = np.arange(h, dtype=np.float64)
    coverage = np.clip(rows[None, :] + 1.0 - edge[:, None], 0.0, 1.0)

    # Only a noisy clip makes a generator: numpy imports np.random on first
    # use, and its 6 MB would add to a noise-free clip's peak RSS
    rng = np.random.default_rng(cfg.seed) if cfg.noise_sigma > 0 else None
    face_rows, face_cols = slice(face.y, face.bottom), slice(face.x, face.right)
    outside = ((slice(0, face.y), slice(None)), (slice(face.bottom, None), slice(None)),
               (face_rows, slice(0, face.x)), (face_rows, slice(face.right, None)))
    # the frames are rendered in float64 a BLOCK_BYTES block at a time, in
    # a reused buffer rounded into the uint8 frames. A block's draw
    # continues the generator's stream where the last ended
    step = max(1, BLOCK_BYTES // (h * w * 3 * 8))
    buffer = np.empty((min(step, n), h, w, 3))
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        block = buffer[:i1 - i0]
        # without blur the noise is drawn first, into the block, and the
        # scene added to it: noise + scene is the same sum as scene + noise
        if rng is not None and cfg.blur_radius == 0:
            rng.standard_normal(out=block)
            block *= cfg.noise_sigma
        else:
            block.fill(0.0)
        # one channel at a time: a broadcast over the channel axis runs slower
        for c in range(3):
            row = BACKGROUND_GRAY + coverage[i0:i1] * (CHEST_COLOR[c] - BACKGROUND_GRAY)
            for ys, xs in outside:
                block[:, ys, xs, c] += row[:, ys, None]
            block[:, face_rows, face_cols, c] += (
                (skin[0] * pulse[i0:i1])[:, None, None] if c == 0 else skin[c])

        if cfg.blur_radius > 0:
            from scipy import ndimage

            k = 2 * cfg.blur_radius + 1
            for i in range(i1 - i0):
                block[i] = ndimage.uniform_filter(block[i], size=(k, k, 1), mode="nearest")
            if rng is not None:
                block += rng.normal(0.0, cfg.noise_sigma, block.shape)

        np.clip(block, 0.0, 255.0, out=block)
        frames[i0:i1] = np.rint(block, out=block)

    mean_gray = LUMA_R * skin[0] + LUMA_G * skin[1] + LUMA_B * skin[2]
    truth = SynthTruth(hr_bpm=cfg.hr_bpm, rr_brpm=cfg.rr_brpm,
                       face_box=face, mean_face_gray=float(mean_gray))
    return VideoClip(frames, cfg.fps), truth


def synth_ecg(hr_bpm, fs, duration, jitter=0.0, seed=0):
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
        i0 = max(0, int(np.floor((tb - half_support) * fs)))
        i1 = min(n, int(np.ceil((tb + half_support) * fs)) + 1)
        ts = np.arange(i0, i1) / fs
        x[i0:i1] += np.exp(-((ts - tb) ** 2) / (2.0 * ECG_BUMP_SIGMA_S ** 2))
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


def _render_trial(cfg, entry, path, record):
    """Render a trial of synth_dataset into its `record`-byte records of the
    frames.ppm at `path`; return its (truth, physio record)."""
    clip, truth = synth_clip(cfg)
    with open(path, "r+b") as f:
        f.seek(entry.start_frame * record)
        write_ppm(f, clip.frames)
    span = entry.frame_count / cfg.fps   # the frames' time, as segment_trials reads it
    ecg = synth_ecg(cfg.hr_bpm, PHYSIO_RATE, span, jitter=0.05, seed=cfg.seed + 50_000)
    resp = synth_resp(cfg.rr_brpm, PHYSIO_RATE, span, seed=cfg.seed + 100_000,
                      amplitude=0.0 if entry.is_hold_breath else 1.0)
    trig = np.zeros(len(ecg), dtype=np.int64)
    trig[0] = entry.trigger_code
    return truth, PhysioRecord(sample_rate=PHYSIO_RATE, ecg=ecg, resp=resp, trigger=trig)


def synth_dataset(protocol, base_cfg, out_dir, seed=0, rates=None):
    """Write a full dataset directory for a protocol.

    Layout: frames.ppm (the global frame sequence as one stream of PPM
    records, each trial's frames at its start_frame), manifest.txt,
    physio.csv (ECG/belt/trigger at PHYSIO_RATE, trigger code = trial_id
    at each trial's start sample), and truth.csv with the injected rates
    and face geometry per trial. Hold-breath trials (task 2) get zero
    chest motion and a flat belt. Rates are drawn per trial from the
    condition's range unless `rates` maps the trial id to an (hr, rr)
    pair. All randomness derives from `seed` and the trial id, so
    regeneration is bit-identical.

    The trials render in ingest.in_order's worker processes, up to 4, one
    per CPU this process may run on. Each worker writes its trial's frames
    at start_frame * record size, this process the physio and truth rows
    in plan order. Each trial draws from its own generator, so the files
    do not depend on the CPU count.

    Each trial's config, frame range and physio length are checked, and
    the manifest built from them, before any file is opened. The files
    are moved into `out_dir` from a temporary directory there after the
    last trial, so a bad plan or a failing trial leaves its files as they were.

    Returns the dataset's TrialManifest and the {trial_id: (hr, rr)} rates
    it injected.
    """
    configs, entries = [], []
    next_frame = 0
    for plan in protocol:
        override = (rates or {}).get(plan.trial_id)
        hr, rr = override if override is not None else _trial_rates(plan, seed)
        cfg = replace(base_cfg, duration=plan.duration, hr_bpm=hr, rr_brpm=rr,
                      chest_amp=0.0 if plan.task_id == HOLD_BREATH_TASK else base_cfg.chest_amp,
                      seed=seed + plan.trial_id)
        # _render_trial's span; a plan of no frame (a bad frame range) by its duration
        if round((cfg.n_frames / cfg.fps or plan.duration) * PHYSIO_RATE) == 0:
            raise ValueError(f"trial {plan.trial_id}: {plan.duration:g} s holds no physio "
                             f"sample at {PHYSIO_RATE:g} Hz for its trigger")
        configs.append(cfg)
        entries.append(TrialEntry(trial_id=plan.trial_id, condition=plan.condition,
                                  task_id=plan.task_id, start_frame=next_frame,
                                  frame_count=cfg.n_frames, trigger_code=plan.trial_id))
        next_frame += cfg.n_frames
    manifest = TrialManifest(fps=base_cfg.fps, width=base_cfg.width,
                             height=base_cfg.height, entries=entries)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_of = dict(zip(entries, configs))

    truth_rows = []
    next_sample = 0
    with tempfile.TemporaryDirectory(prefix=".synth-", dir=out_dir) as staging:
        staging = Path(staging)
        frames_path, _, record = _frames_file(staging, manifest)
        open(frames_path, "wb").close()

        def render(entry):
            return _render_trial(config_of[entry], entry, frames_path, record)

        with (open(staging / PHYSIO_FILE, "w", newline="", encoding="ascii") as physio_file,
              closing(in_order(render, entries)) as rendered):
            for plan, cfg, (truth, physio) in zip(protocol, configs, rendered):
                write_physio_csv(physio_file, physio, next_sample)
                truth_rows.append([plan.trial_id, cfg.hr_bpm, cfg.rr_brpm, truth.face_box.x,
                                   truth.face_box.y, truth.face_box.w, truth.face_box.h,
                                   truth.mean_face_gray])
                next_sample += len(physio.trigger)
        write_manifest(staging / MANIFEST_FILE, manifest)
        write_csv(staging / TRUTH_FILE, TRUTH_HEADER, truth_rows)
        for file in staging.iterdir():
            os.replace(file, out_dir / file.name)
    return manifest, {plan.trial_id: (cfg.hr_bpm, cfg.rr_brpm)
                      for plan, cfg in zip(protocol, configs)}
