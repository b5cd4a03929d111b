import hashlib
import os
import time

import numpy as np
import pytest

from camvitals import synth

from camvitals.geometry import Rect
from camvitals.ingest import (CONDITIONS, FRAMES_FILE, parse_manifest, ppm_header,
                              read_frame_range, load_physio_csv, to_grayscale)
from camvitals.synth import (BACKGROUND_GRAY, BASE_SKIN, BLOCK_BYTES, CHEST_COLOR, RATE_RANGES,
                             SynthConfig, TrialPlan, paper_protocol, scene_geometry,
                             synth_clip, synth_dataset, synth_ecg, synth_resp)

from conftest import assert_ended, log_line, logged, wait_for_lines
from readers import read_truth_csv


# ------------------------- scene layout -------------------------

def test_scene_geometry_frozen_64():
    face, chest_top = scene_geometry(64, 64)
    assert face == Rect(24, 10, 16, 21)
    assert chest_top == 35


def test_scene_geometry_frozen_32():
    face, chest_top = scene_geometry(32, 32)
    assert face == Rect(12, 5, 8, 10)
    assert chest_top == 17


def test_synth_clip_frame_count_and_dtype():
    clip, _ = synth_clip(SynthConfig(duration=2.0, fps=30.0))
    assert clip.n_frames == 60
    assert clip.frames.dtype == np.uint8


def test_synth_clip_rejects_unfittable_geometry():
    # the config rejects it, before synth_clip or synth_dataset draws anything
    with pytest.raises(ValueError, match="^face .* does not fit a 16x4 frame$"):
        SynthConfig(width=16, height=4)  # face thinner than 2 px
    with pytest.raises(ValueError, match="^chest band .* does not fit"):
        SynthConfig(width=64, height=64, chest_amp=20.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(tone=0.0)
    with pytest.raises(ValueError):
        SynthConfig(hr_bpm=20.0)
    with pytest.raises(ValueError):
        SynthConfig(rr_brpm=70.0)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-1.0)


# ------------------------- injected signals -------------------------

def test_red_channel_peak_to_peak_matches_pulse_amp():
    # 90 bpm at 30 fps puts samples exactly on the sine extrema, and 20 s
    # holds a whole number of cycles, so the relative swing of the scene
    # before rounding (which synth_clip rounds bit for bit, see the
    # reference renderer below) is exact
    cfg = SynthConfig(hr_bpm=90.0, pulse_amp=0.02, duration=20.0, fps=30.0)
    box, _ = scene_geometry(cfg.width, cfg.height)
    red = reference_frames(cfg)[:, box.y:box.bottom, box.x:box.right, 0].mean(axis=(1, 2))
    p2p_rel = (red.max() - red.min()) / red.mean()
    assert abs(p2p_rel - 2 * cfg.pulse_amp) < 1e-6


def test_truth_gray_tracks_tone():
    for tone in (0.3, 0.7, 1.0):
        _, truth = synth_clip(SynthConfig(duration=1.0, tone=tone))
        assert truth.mean_face_gray == pytest.approx(162.67 * tone, rel=1e-12)


def test_rendered_face_gray_matches_truth_and_tone_order():
    grays = []
    for tone in (0.4, 0.7, 1.0):
        clip, truth = synth_clip(SynthConfig(duration=1.0, tone=tone))
        box = truth.face_box
        gray = to_grayscale(clip.frames[:, box.y:box.bottom, box.x:box.right])
        measured = float(gray.mean())
        # pulse averages out over whole cycles only; 1 s of 72 bpm does not,
        # so allow the pulse amplitude as slack
        assert measured == pytest.approx(truth.mean_face_gray, rel=0.02)
        grays.append(measured)
    assert grays == sorted(grays)


def test_chest_band_static_without_breathing():
    # the face still pulses, so only rows below it must freeze; equal
    # values before rounding round equal
    clip, _ = synth_clip(SynthConfig(duration=2.0, chest_amp=0.0))
    face, _ = scene_geometry(64, 64)
    chest = clip.frames[:, face.bottom:, :, :]
    assert np.all(chest == chest[0])


def test_chest_band_oscillates_at_breathing_rate():
    cfg = SynthConfig(duration=20.0, rr_brpm=15.0, chest_amp=1.5, pulse_amp=0.0)
    clip, truth = synth_clip(cfg)
    face = truth.face_box
    band = clip.frames[:, face.bottom:, :, :].mean(axis=(1, 2, 3))
    spectrum = np.abs(np.fft.rfft(band - band.mean()))
    peak_hz = np.argmax(spectrum) / cfg.duration
    assert peak_hz == pytest.approx(15.0 / 60.0, abs=1e-9)


def test_face_rows_untouched_by_chest_motion():
    cfg = SynthConfig(duration=4.0, chest_amp=1.5, pulse_amp=0.0)
    clip, truth = synth_clip(cfg)
    face = truth.face_box
    above = clip.frames[:, :face.bottom, :, :]
    assert np.all(above == above[0])


def test_noise_is_seeded_and_applied():
    a1, _ = synth_clip(SynthConfig(duration=1.0, noise_sigma=2.0, seed=7))
    a2, _ = synth_clip(SynthConfig(duration=1.0, noise_sigma=2.0, seed=7))
    b, _ = synth_clip(SynthConfig(duration=1.0, noise_sigma=2.0, seed=8))
    clean, _ = synth_clip(SynthConfig(duration=1.0, noise_sigma=0.0))
    assert np.array_equal(a1.frames, a2.frames)
    assert not np.array_equal(a1.frames, b.frames)
    assert not np.array_equal(a1.frames, clean.frames)


def test_blur_smooths_the_face_edge():
    sharp, truth = synth_clip(SynthConfig(duration=0.5))
    soft, _ = synth_clip(SynthConfig(duration=0.5, blur_radius=2))
    face = truth.face_box
    # horizontal gradient across the face's left edge shrinks under blur
    row = face.y + face.h // 2
    edge_sharp = abs(float(sharp.frames[0, row, face.x, 0])
                     - float(sharp.frames[0, row, face.x - 1, 0]))
    edge_soft = abs(float(soft.frames[0, row, face.x, 0])
                    - float(soft.frames[0, row, face.x - 1, 0]))
    assert edge_soft < edge_sharp


# ------------------------- one-pass renderer -------------------------

def reference_frames(cfg):
    """synth_clip's frames before rounding, drawn as the renderer drew
    them before it rendered in blocks: the scene in full, then a second
    full-size noise array added to it."""
    w, h = cfg.width, cfg.height
    face, chest_top = scene_geometry(w, h)
    n = int(round(cfg.duration * cfg.fps))
    t = np.arange(n) / cfg.fps
    frames = np.full((n, h, w, 3), BACKGROUND_GRAY, dtype=np.float64)

    skin = np.array(BASE_SKIN) * cfg.tone
    pulse = 1.0 + cfg.pulse_amp * np.sin(2 * np.pi * cfg.hr_bpm / 60.0 * t)
    frames[:, face.y:face.bottom, face.x:face.right, 0] = skin[0] * pulse[:, None, None]
    frames[:, face.y:face.bottom, face.x:face.right, 1] = skin[1]
    frames[:, face.y:face.bottom, face.x:face.right, 2] = skin[2]

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

    return np.clip(frames, 0.0, 255.0, out=frames)


def _random_scene(rng, width, height, fps, duration, **kwargs):
    return SynthConfig(width=width, height=height, fps=fps, duration=duration,
                       hr_bpm=float(rng.uniform(40, 200)), rr_brpm=float(rng.uniform(6, 60)),
                       tone=float(rng.uniform(0.2, 1.0)), pulse_amp=float(rng.uniform(0, 0.2)),
                       chest_amp=float(rng.uniform(0, 1.0)),
                       seed=int(rng.integers(0, 2 ** 31)), **kwargs)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.7, 40.0])
@pytest.mark.parametrize("blur_radius", [0, 1])
@pytest.mark.parametrize("one_frame_blocks", [True, False])
def test_synth_clip_equals_the_reference_renderer(noise_sigma, blur_radius, one_frame_blocks,
                                                  monkeypatch):
    """Bit for bit against the rounded reference frames, over seeded scenes
    of odd and even sizes, and over clip lengths at synth_clip's
    frame-block boundaries, with its blocks and with blocks of one frame;
    sigma 40 clips at both ends of [0, 255]."""
    rng = np.random.default_rng(int(noise_sigma * 10) + 2 * blur_radius + one_frame_blocks)
    knobs = dict(noise_sigma=noise_sigma, blur_radius=blur_radius)
    cfgs = [_random_scene(rng, width, height, float(rng.uniform(10, 40)),
                          float(rng.uniform(0.2, 1.5)), **knobs)
            for width, height in [(32, 32), (19, 24), (33, 41), (8, 30)]]
    # exactly one block, one frame more, a partial last block, and frames
    # that are each larger than a block
    step = BLOCK_BYTES // (32 * 32 * 3 * 8)
    assert step > 1 and 256 * 256 * 3 * 8 > BLOCK_BYTES
    cfgs += [_random_scene(rng, width, height, 30.0, n / 30.0, **knobs)
             for width, height, n in [(32, 32, step), (32, 32, step + 1),
                                      (32, 32, 3 * step - 5), (256, 256, 3)]]
    if one_frame_blocks:
        monkeypatch.setattr(synth, "BLOCK_BYTES", 1)
    for cfg in cfgs:
        frames = synth_clip(cfg)[0].frames
        want = np.rint(reference_frames(cfg)).astype(np.uint8)
        assert frames.tobytes() == want.tobytes()


# ------------------------- physiological channels -------------------------

def test_synth_ecg_beat_spacing():
    ecg = synth_ecg(60.0, 128.0, 10.0, jitter=0.0, seed=0)
    assert ecg.sample_rate == 128.0
    assert len(ecg.samples) == 1280
    # unit bumps half a period in, then every second
    peaks = np.flatnonzero(ecg.samples > 0.99)
    assert np.all(np.abs(np.diff(peaks) - 128) <= 1)


def test_synth_ecg_zero_duration_is_empty():
    assert len(synth_ecg(72.0, 128.0, 0.0).samples) == 0


def test_synth_ecg_rejects_out_of_range_rate():
    with pytest.raises(ValueError):
        synth_ecg(20.0, 128.0, 10.0)


def test_synth_resp_dominant_frequency():
    resp = synth_resp(18.0, 128.0, 20.0, seed=3)
    spectrum = np.abs(np.fft.rfft(resp.samples - resp.samples.mean()))
    peak_hz = np.argmax(spectrum) / 20.0
    assert peak_hz == pytest.approx(18.0 / 60.0, abs=1e-9)


def test_synth_resp_amplitude_zero_leaves_only_noise():
    flat = synth_resp(15.0, 128.0, 10.0, seed=1, amplitude=0.0)
    assert np.std(flat.samples) < 0.1


# ------------------------- protocols -------------------------

def test_paper_protocol_structure():
    plans = paper_protocol(seed=0)
    assert len(plans) == 80
    assert [p.trial_id for p in plans] == list(range(1, 81))

    respiratory = [p for p in plans if p.condition in ("respiration", "workout")]
    gaze = [p for p in plans if p.condition == "gaze"]
    assert len(respiratory) == 30 and len(gaze) == 50
    assert sum(p.duration for p in respiratory) == 600.0
    assert sum(p.duration for p in gaze) == 500.0
    assert all(p.duration == 20.0 for p in respiratory)
    assert all(p.duration == 10.0 for p in gaze)

    # each block holds one permutation of its task set
    for start in range(0, 30, 3):
        assert sorted(p.task_id for p in plans[start:start + 3]) == [1, 2, 7]
    for start in range(30, 80, 5):
        assert sorted(p.task_id for p in plans[start:start + 5]) == [3, 4, 5, 6, 7]

    assert [p.condition for p in plans[:15]] == ["respiration"] * 15
    assert [p.condition for p in plans[15:30]] == ["workout"] * 15


def test_paper_protocol_seed_determinism():
    assert paper_protocol(seed=4) == paper_protocol(seed=4)


def test_drawn_rates_stay_inside_condition_ranges(tmp_path):
    out = tmp_path / "data"
    plans = [p for p in paper_protocol(seed=0) if p.trial_id in (1, 2, 31)]
    base = SynthConfig(width=32, height=32, duration=2.0)
    short = [TrialPlan(p.trial_id, p.condition, p.task_id, 2.0) for p in plans]
    synth_dataset(short, base, out, seed=0)
    truth = read_truth_csv(out / "truth.csv")
    for plan in short:
        (hr_lo, hr_hi), (rr_lo, rr_hi) = RATE_RANGES[plan.condition]
        t = truth[plan.trial_id]
        assert hr_lo <= t.hr_bpm <= hr_hi
        assert rr_lo <= t.rr_brpm <= rr_hi


def test_rate_ranges_cover_exactly_the_manifest_conditions():
    # synth --condition offers the manifest's conditions; each needs a range
    assert sorted(RATE_RANGES) == sorted(CONDITIONS)


# ------------------------- dataset writer -------------------------

@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    protocol = [TrialPlan(1, "respiration", 1, 4.0),
                TrialPlan(2, "respiration", 2, 4.0)]
    base = SynthConfig(width=32, height=32, fps=30.0, noise_sigma=1.0)
    synth_dataset(protocol, base, out, seed=9)
    return out, protocol


def test_dataset_manifest_round_trip(tiny_dataset):
    out, protocol = tiny_dataset
    manifest = parse_manifest(out / "manifest.txt")
    assert manifest.fps == 30.0 and manifest.width == 32 and manifest.height == 32
    assert len(manifest.entries) == 2
    by_id = {e.trial_id: e for e in manifest.entries}
    for plan in protocol:
        e = by_id[plan.trial_id]
        assert e.condition == plan.condition and e.task_id == plan.task_id
        assert e.frame_count == 120
        assert e.trigger_code == plan.trial_id
    starts = sorted(e.start_frame for e in manifest.entries)
    assert starts == [0, 120]


def test_dataset_triggers_mark_trial_starts(tiny_dataset):
    out, protocol = tiny_dataset
    record = load_physio_csv(out / "physio.csv")
    assert record.sample_rate == 128.0
    n_per_trial = int(round(4.0 * 128.0))
    assert len(record.trigger) == 2 * n_per_trial
    nz = np.flatnonzero(record.trigger)
    assert list(nz) == [0, n_per_trial]
    assert [record.trigger[i] for i in nz] == [p.trial_id for p in protocol]


def test_dataset_frames_regenerate_bit_exact(tiny_dataset):
    out, protocol = tiny_dataset
    manifest = parse_manifest(out / "manifest.txt")
    entry = next(e for e in manifest.entries if e.trial_id == protocol[1].trial_id)
    truth = read_truth_csv(out / "truth.csv")
    plan = protocol[1]
    cfg = SynthConfig(width=32, height=32, fps=30.0, duration=4.0,
                      hr_bpm=truth[plan.trial_id].hr_bpm,
                      rr_brpm=truth[plan.trial_id].rr_brpm,
                      chest_amp=0.0 if plan.task_id == 2 else 1.5,
                      noise_sigma=1.0, seed=9 + plan.trial_id)
    regen, _ = synth_clip(cfg)
    on_disk = read_frame_range(out, manifest, entry.start_frame, entry.frame_count)
    assert np.array_equal(on_disk.frames, regen.frames)


def test_dataset_hold_breath_belt_is_flat(tiny_dataset):
    out, protocol = tiny_dataset
    record = load_physio_csv(out / "physio.csv")
    n = int(round(4.0 * 128.0))
    segments = {p.trial_id: record.resp.samples[i * n:(i + 1) * n]
                for i, p in enumerate(protocol)}
    normal = next(p for p in protocol if p.task_id != 2)
    holding = next(p for p in protocol if p.task_id == 2)
    assert np.std(segments[holding.trial_id]) < 0.1
    assert np.std(segments[normal.trial_id]) > 0.5


def test_dataset_truth_file_and_rate_override(tmp_path):
    out = tmp_path / "ds2"
    protocol = [TrialPlan(1, "gaze", 3, 2.0)]
    synth_dataset(protocol, SynthConfig(width=32, height=32), out, seed=0,
                  rates={1: (100.0, 25.0)})
    truth = read_truth_csv(out / "truth.csv")
    assert truth[1].hr_bpm == 100.0 and truth[1].rr_brpm == 25.0
    assert truth[1].face_box == Rect(12, 5, 8, 10)
    assert truth[1].mean_face_gray == pytest.approx(162.67, rel=1e-12)


def test_trial_shorter_than_a_physio_sample_is_a_value_error(tmp_path):
    # one frame at 1000 fps, but no 128 Hz sample to carry the trigger
    with pytest.raises(ValueError, match="trial 1: 0.001 s holds no physio sample"):
        synth_dataset([TrialPlan(1, "gaze", 3, 0.001)],
                      SynthConfig(width=32, height=32, fps=1000.0), tmp_path)


def test_dataset_regeneration_is_byte_identical(tmp_path):
    protocol = [TrialPlan(1, "workout", 1, 2.0)]
    base = SynthConfig(width=32, height=32, noise_sigma=1.5)
    a, b = tmp_path / "a", tmp_path / "b"
    synth_dataset(protocol, base, a, seed=3)
    synth_dataset(protocol, base, b, seed=3)
    for name in ("manifest.txt", "physio.csv", "truth.csv", FRAMES_FILE):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ------------------------- trials in worker processes -------------------------

# six trials, more than the at most four workers, of mixed lengths (the
# 90-frame trial spans two frame blocks), trial 2 holding its breath
POOL_PROTOCOL = [TrialPlan(1, "respiration", 1, 2.5), TrialPlan(2, "respiration", 2, 1.0),
                 TrialPlan(3, "workout", 7, 3.0), TrialPlan(4, "gaze", 3, 0.5),
                 TrialPlan(5, "gaze", 4, 2.0), TrialPlan(6, "gaze", 5, 1.5)]

# sha256 of each file as the renderer wrote it before trials ran in parallel
POOL_DIGESTS = {
    FRAMES_FILE: "9ff595dfb51f3b0f5799e71a39c86df2ab8b525969318ecc5138ca0ce2c7f05c",
    "physio.csv": "6caeb63b6e1b0686b936cde4d9bd41ee6d363d50f6ba3c8ef83e3572f54fec54",
    "manifest.txt": "5278fa86e0e4193fec7003df2ba71f70a5ce0568544c4d8b26dc9a9b4bb75086",
    "truth.csv": "52f8021bbc66ea58e49a81a625461fe6f3f2f83b90c377bfaa4e84b52e75de76",
}


def _digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in POOL_DIGESTS}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("cpus", [None, 1, 4])
def test_dataset_bytes_do_not_depend_on_the_cpu_count(cpus, tmp_path, monkeypatch):
    if cpus is not None:
        _cpus(monkeypatch, cpus)
    workers = (min(4, len(os.sched_getaffinity(0)), len(POOL_PROTOCOL))
               if hasattr(os, "sched_getaffinity") else 1)
    log = tmp_path / "pids"

    def render(cfg):
        log_line(log, os.getpid())
        return synth_clip(cfg)

    monkeypatch.setattr(synth, "synth_clip", render)
    synth_dataset(POOL_PROTOCOL, SynthConfig(width=32, height=32, noise_sigma=1.0),
                  tmp_path / "ds", seed=5)
    assert _digests(tmp_path / "ds") == POOL_DIGESTS
    pids = {int(pid) for pid, in logged(log)}
    if workers == 1:
        assert pids == {os.getpid()}
    else:
        assert len(pids) == workers
        assert_ended(pids)


def _failing_at_trial(n, seed):
    """synth_clip, except that trial n of a dataset of `seed` raises."""
    def render(cfg):
        if cfg.seed == seed + n:
            raise ValueError(f"trial {n} cannot be rendered")
        return synth_clip(cfg)
    return render


def test_a_failing_trial_stops_the_pool(tmp_path, monkeypatch):
    _cpus(monkeypatch, 4)
    log = tmp_path / "pids"
    failing = _failing_at_trial(3, seed=0)

    def render(cfg):
        log_line(log, os.getpid())
        return failing(cfg)

    monkeypatch.setattr(synth, "synth_clip", render)
    protocol = [TrialPlan(i, "gaze", 3, 1.0) for i in range(1, 6)]
    with pytest.raises(ValueError, match="trial 3 cannot be rendered"):
        synth_dataset(protocol, SynthConfig(width=32, height=32, noise_sigma=1.0),
                      tmp_path / "ds", seed=0)
    assert_ended({int(pid) for pid, in logged(log)})
    assert list((tmp_path / "ds").iterdir()) == []


def test_each_trial_places_its_records_at_its_start_frame(tmp_path, monkeypatch):
    # four workers own trials (1, 5), (2, 6), (3) and (4). Trial 1 renders
    # once the other workers' trials 2, 3, 4 and 6 have written, so records
    # reach the file out of plan order, and none from this process
    _cpus(monkeypatch, 4)
    log = tmp_path / "writes"   # (trial's first byte, writing pid) per trial
    write_ppm = synth.write_ppm

    def write_and_log(f, frames):
        first = f.tell()
        write_ppm(f, frames)
        log_line(log, first, os.getpid())

    def render(cfg):
        if cfg.seed == 5 + 1:  # trial 1 of seed 5
            wait_for_lines(log, 4, "trials 2, 3, 4 and 6 did not write ahead of trial 1")
        return synth_clip(cfg)

    monkeypatch.setattr(synth, "write_ppm", write_and_log)
    monkeypatch.setattr(synth, "synth_clip", render)
    manifest, _ = synth_dataset(POOL_PROTOCOL, SynthConfig(width=32, height=32, noise_sigma=1.0),
                                tmp_path / "ds", seed=5)
    assert _digests(tmp_path / "ds") == POOL_DIGESTS
    writes = logged(log)
    record = len(ppm_header(32, 32)) + 32 * 32 * 3
    assert sorted(int(first) for first, _ in writes) == [e.start_frame * record
                                                         for e in manifest.entries]
    assert writes[4][0] == "0"   # trial 1, after the other workers' four trials
    assert_ended({int(pid) for _, pid in writes})


def test_a_failing_trial_cancels_the_trials_not_started(tmp_path, monkeypatch):
    # four workers own trials (1, 5, 9), (2, 6, 10), (3, 7, 11) and (4, 8, 12)
    _cpus(monkeypatch, 4)
    log = tmp_path / "started"   # (trial id, pid) of each trial begun

    def render(cfg):
        log_line(log, cfg.seed, os.getpid())  # the trial id at seed 0
        if cfg.seed == 3:
            raise ValueError("trial 3 cannot be rendered")
        if cfg.seed > 3:
            time.sleep(0.5)
        return synth_clip(cfg)

    monkeypatch.setattr(synth, "synth_clip", render)
    protocol = [TrialPlan(i, "gaze", 3, 0.5) for i in range(1, 13)]
    with pytest.raises(ValueError, match="trial 3 cannot be rendered"):
        synth_dataset(protocol, SynthConfig(width=32, height=32), tmp_path / "ds", seed=0)
    started = logged(log)
    # trial 3's worker takes no trial after it, and each other worker at
    # most the one it was rendering when trial 3 failed
    assert max(int(trial) for trial, _ in started) <= 6
    assert_ended({int(pid) for _, pid in started})


@pytest.mark.parametrize("cpus", [1, 4])
def test_a_failing_trial_keeps_the_dataset_already_there(cpus, tmp_path, monkeypatch):
    _cpus(monkeypatch, cpus)
    synth_dataset(POOL_PROTOCOL, SynthConfig(width=32, height=32, noise_sigma=1.0),
                  tmp_path, seed=5)
    monkeypatch.setattr(synth, "synth_clip", _failing_at_trial(4, seed=5))
    with pytest.raises(ValueError, match="trial 4 cannot be rendered"):
        synth_dataset(POOL_PROTOCOL, SynthConfig(width=32, height=32), tmp_path, seed=5)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(POOL_DIGESTS)
    assert _digests(tmp_path) == POOL_DIGESTS


@pytest.mark.parametrize("plan, rates, message", [
    (TrialPlan(2, "gaze", 3, 1.0), {2: (500.0, 15.0)}, r"^hr_bpm 500.0 outside \[30, 220\]$"),
    (TrialPlan(2, "gaze", 9, 1.0), None, "^trial 2: task_id 9 outside 1..7$"),
    (TrialPlan(2, "gaze", 3, 0.0), None,
     "^trial 2: 0 s holds no physio sample at 128 Hz for its trigger$"),
    (TrialPlan(2, "gaze", 3, 0.01), None, "^trial 2: bad frame range$"),
], ids=["rate", "task", "no-physio", "no-frame"])
def test_a_bad_plan_writes_nothing(plan, rates, message, tmp_path, monkeypatch):
    # a good trial ahead of the bad one: nothing renders before the plan is
    # checked, in this process or in a worker
    rendered = tmp_path / "rendered"
    monkeypatch.setattr(synth, "synth_clip", lambda cfg: log_line(rendered, cfg.seed))
    out = tmp_path / "ds"
    with pytest.raises(ValueError, match=message):
        synth_dataset([TrialPlan(1, "gaze", 3, 1.0), plan], SynthConfig(width=32, height=32),
                      out, seed=0, rates=rates)
    assert not out.exists() and logged(rendered) == []
