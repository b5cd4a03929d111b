import numpy as np
import pytest

from camvitals.geometry import Rect
from camvitals.ingest import (frame_path, parse_manifest, read_frame_range,
                              load_physio_csv, to_grayscale)
from camvitals.synth import (RATE_RANGES, SynthConfig, TrialPlan,
                             paper_protocol, scene_geometry,
                             synth_clip, synth_dataset, synth_ecg, synth_resp)

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
    clip_f, _ = synth_clip(SynthConfig(duration=2.0, fps=30.0, quantize=False))
    assert clip_f.frames.dtype == np.float64


def test_synth_clip_rejects_unfittable_geometry():
    with pytest.raises(ValueError):
        synth_clip(SynthConfig(width=16, height=4))  # face thinner than 2 px
    with pytest.raises(ValueError):
        synth_clip(SynthConfig(width=64, height=64, chest_amp=20.0))


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
    # holds a whole number of cycles, so the relative swing is exact
    cfg = SynthConfig(hr_bpm=90.0, pulse_amp=0.02, duration=20.0, fps=30.0,
                      quantize=False)
    clip, truth = synth_clip(cfg)
    box = truth.face_box
    red = clip.frames[:, box.y:box.bottom, box.x:box.right, 0].mean(axis=(1, 2))
    p2p_rel = (red.max() - red.min()) / red.mean()
    assert abs(p2p_rel - 2 * cfg.pulse_amp) < 1e-6


def test_truth_gray_tracks_tone():
    for tone in (0.3, 0.7, 1.0):
        _, truth = synth_clip(SynthConfig(duration=1.0, tone=tone))
        assert truth.mean_face_gray == pytest.approx(162.67 * tone, rel=1e-12)


def test_rendered_face_gray_matches_truth_and_tone_order():
    grays = []
    for tone in (0.4, 0.7, 1.0):
        clip, truth = synth_clip(SynthConfig(duration=1.0, tone=tone,
                                             quantize=False))
        box = truth.face_box
        gray = to_grayscale(clip.frames[:, box.y:box.bottom, box.x:box.right])
        measured = float(gray.mean())
        # pulse averages out over whole cycles only; 1 s of 72 bpm does not,
        # so allow the pulse amplitude as slack
        assert measured == pytest.approx(truth.mean_face_gray, rel=0.02)
        grays.append(measured)
    assert grays == sorted(grays)


def test_chest_band_static_without_breathing():
    # the face still pulses, so only rows below it must freeze
    clip, _ = synth_clip(SynthConfig(duration=2.0, chest_amp=0.0,
                                     quantize=False))
    face, _ = scene_geometry(64, 64)
    chest = clip.frames[:, face.bottom:, :, :]
    assert np.all(chest == chest[0])


def test_chest_band_oscillates_at_breathing_rate():
    cfg = SynthConfig(duration=20.0, rr_brpm=15.0, chest_amp=1.5,
                      quantize=False, pulse_amp=0.0)
    clip, truth = synth_clip(cfg)
    face = truth.face_box
    band = clip.frames[:, face.bottom:, :, :].mean(axis=(1, 2, 3))
    spectrum = np.abs(np.fft.rfft(band - band.mean()))
    peak_hz = np.argmax(spectrum) / cfg.duration
    assert peak_hz == pytest.approx(15.0 / 60.0, abs=1e-9)


def test_face_rows_untouched_by_chest_motion():
    cfg = SynthConfig(duration=4.0, chest_amp=1.5, pulse_amp=0.0,
                      quantize=False)
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
    sharp, truth = synth_clip(SynthConfig(duration=0.5, quantize=False))
    soft, _ = synth_clip(SynthConfig(duration=0.5, blur_radius=2,
                                     quantize=False))
    face = truth.face_box
    # horizontal gradient across the face's left edge shrinks under blur
    row = face.y + face.h // 2
    edge_sharp = abs(float(sharp.frames[0, row, face.x, 0])
                     - float(sharp.frames[0, row, face.x - 1, 0]))
    edge_soft = abs(float(soft.frames[0, row, face.x, 0])
                    - float(soft.frames[0, row, face.x - 1, 0]))
    assert edge_soft < edge_sharp


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


def test_dataset_regeneration_is_byte_identical(tmp_path):
    protocol = [TrialPlan(1, "workout", 1, 2.0)]
    base = SynthConfig(width=32, height=32, noise_sigma=1.5)
    a, b = tmp_path / "a", tmp_path / "b"
    synth_dataset(protocol, base, a, seed=3)
    synth_dataset(protocol, base, b, seed=3)
    for name in ("manifest.txt", "physio.csv", "truth.csv",
                 frame_path(a, 0).name):
        assert (a / name).read_bytes() == (b / name).read_bytes()
