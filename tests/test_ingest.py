from pathlib import Path

import numpy as np
import pytest

from camvitals.dsp import TimeSeries
from camvitals.ingest import (FormatError, PhysioRecord, TrialEntry,
                              TrialManifest, VideoClip, crop_clip,
                              format_number, frame_path, load_physio_csv,
                              parse_manifest, read_frame_range, read_ppm,
                              read_ppm_sequence, read_raw_rgb, to_grayscale,
                              write_manifest, write_physio_csv, write_ppm,
                              write_raw_rgb)


def rand_frames(rng, n, h, w):
    return rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)


# ------------------------- PPM -------------------------

def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(5):
        frame = rand_frames(rng, 1, 6 + i, 9)[0]
        p = tmp_path / f"f{i}.ppm"
        write_ppm(p, frame)
        assert np.array_equal(read_ppm(p), frame)


def test_ppm_header_comments_and_whitespace(tmp_path):
    body = bytes(range(12))  # 2x2 RGB
    raw = b"P6\n# a comment\n2 # width\n# another\n2\n255\n" + body
    p = tmp_path / "c.ppm"
    p.write_bytes(raw)
    frame = read_ppm(p)
    assert frame.shape == (2, 2, 3)
    assert frame[0, 0, 2] == 2


def test_ppm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        read_ppm(p)


def test_ppm_rejects_16bit_maxval(tmp_path):
    p = tmp_path / "deep.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(FormatError):
        read_ppm(p)


def test_ppm_rejects_truncated_pixels(tmp_path):
    p = tmp_path / "short.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(7))
    with pytest.raises(FormatError):
        read_ppm(p)


def test_ppm_truncated_header_names_the_file(tmp_path):
    p = tmp_path / "stub.ppm"
    p.write_bytes(b"P6\n2 # width\n")
    with pytest.raises(FormatError, match="stub.ppm: truncated PPM header"):
        read_ppm(p)


@pytest.mark.parametrize("first", [0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x20, 0x23])
def test_ppm_pixels_starting_with_header_bytes_survive(tmp_path, first):
    body = bytes([first, first, 0x23, 0x0a, 0x20]) + bytes(range(7))
    p = tmp_path / "ws.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + body)
    assert read_ppm(p).tobytes() == body


def test_ppm_comment_right_after_magic(tmp_path):
    body = bytes(range(12))
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6#c\n2 2\n255\n" + body)
    assert read_ppm(p).tobytes() == body


def test_ppm_ignores_bytes_after_pixels(tmp_path):
    body = bytes(range(12))
    p = tmp_path / "long.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + body + b"trailing junk")
    assert read_ppm(p).tobytes() == body


def test_frame_path_numbering(tmp_path):
    assert frame_path(tmp_path, 42).name == "frame_000042.ppm"
    assert frame_path(tmp_path, 0).name == "frame_000000.ppm"


# ------------------------- raw RGB -------------------------

def test_raw_rgb_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    clip = VideoClip(rand_frames(rng, 3, 4, 5), 30.0)
    p = tmp_path / "clip.rgb"
    write_raw_rgb(p, clip)
    back = read_raw_rgb(p, 5, 4, 30.0)
    assert np.array_equal(back.frames, clip.frames)
    assert back.fps == 30.0


def test_raw_rgb_24_bytes_is_two_2x2_frames(tmp_path):
    p = tmp_path / "two.rgb"
    p.write_bytes(bytes(range(24)))
    clip = read_raw_rgb(p, 2, 2, 10.0)
    assert clip.n_frames == 2
    assert clip.frames[1, 0, 0, 0] == 12


def test_raw_rgb_rejects_partial_frame(tmp_path):
    p = tmp_path / "odd.rgb"
    p.write_bytes(bytes(25))
    with pytest.raises(FormatError):
        read_raw_rgb(p, 2, 2, 10.0)


# ------------------------- VideoClip -------------------------

def test_clip_validates_shape_and_range():
    with pytest.raises(ValueError):
        VideoClip(np.zeros((2, 4, 4), dtype=np.uint8), 30.0)
    with pytest.raises(ValueError):
        VideoClip(np.zeros((2, 4, 4, 3)) - 1.0, 30.0)
    with pytest.raises(ValueError):
        VideoClip(np.zeros((2, 4, 4, 3), dtype=np.uint8), 0.0)
    clip = VideoClip(np.full((2, 4, 6, 3), 254.5), 25.0)
    assert clip.duration == pytest.approx(0.08)
    assert (clip.n_frames, clip.height, clip.width) == (2, 4, 6)


def test_crop_clip_slices_margins():
    frames = np.arange(2 * 6 * 8 * 3, dtype=np.float64).reshape(2, 6, 8, 3) % 255
    clip = VideoClip(frames, 30.0)
    out = crop_clip(clip, 1, 2, 3, 0)
    assert (out.height, out.width) == (3, 5)
    assert np.array_equal(out.frames, frames[:, 3:6, 1:6])


def test_crop_clip_rejects_empty_result():
    clip = VideoClip(np.zeros((1, 4, 4, 3), dtype=np.uint8), 30.0)
    with pytest.raises(ValueError):
        crop_clip(clip, 2, 2, 0, 0)
    with pytest.raises(ValueError):
        crop_clip(clip, 0, 0, -1, 0)


def test_to_grayscale_frozen_values():
    frame = np.zeros((1, 1, 2, 3), dtype=np.uint8)
    frame[0, 0, 0] = (255, 0, 0)
    frame[0, 0, 1] = (255, 255, 255)
    gray = to_grayscale(VideoClip(frame, 30.0))
    # round(0.299*255) = 76
    assert gray.dtype == np.uint8
    assert gray[0, 0, 0] == 76
    assert gray[0, 0, 1] == 255


# ------------------------- manifest -------------------------

def make_manifest():
    entries = [
        TrialEntry(trial_id=1, condition="respiration", task_id=1,
                   start_frame=0, frame_count=600, trigger_code=1),
        TrialEntry(trial_id=2, condition="workout", task_id=2,
                   start_frame=600, frame_count=600, trigger_code=2),
        TrialEntry(trial_id=3, condition="gaze", task_id=5,
                   start_frame=1200, frame_count=300, trigger_code=3),
    ]
    return TrialManifest(fps=30.0, width=64, height=48, entries=entries)


def test_manifest_round_trip(tmp_path):
    m = make_manifest()
    p = tmp_path / "manifest.txt"
    write_manifest(p, m)
    back = parse_manifest(p)
    assert back.fps == m.fps and back.width == m.width and back.height == m.height
    assert back.entries == m.entries


def test_manifest_rejects_duplicate_trial_ids():
    e = TrialEntry(1, "gaze", 3, 0, 10, 1)
    dup = TrialEntry(1, "gaze", 4, 10, 10, 2)
    with pytest.raises(ValueError):
        TrialManifest(fps=30.0, width=8, height=8, entries=[e, dup])


def test_manifest_rejects_overlapping_frame_ranges():
    a = TrialEntry(1, "gaze", 3, 0, 10, 1)
    b = TrialEntry(2, "gaze", 4, 9, 10, 2)
    with pytest.raises(ValueError):
        TrialManifest(fps=30.0, width=8, height=8, entries=[a, b])


def test_manifest_rejects_unknown_condition_and_task():
    with pytest.raises(ValueError):
        TrialManifest(fps=30.0, width=8, height=8,
                      entries=[TrialEntry(1, "sleeping", 1, 0, 10, 1)])
    with pytest.raises(ValueError):
        TrialManifest(fps=30.0, width=8, height=8,
                      entries=[TrialEntry(1, "gaze", 8, 0, 10, 1)])


def test_hold_breath_task_flagging():
    assert TrialEntry(1, "respiration", 2, 0, 10, 1).is_hold_breath
    assert not TrialEntry(1, "respiration", 1, 0, 10, 1).is_hold_breath


def test_parse_manifest_rejects_malformed_lines(tmp_path):
    p = tmp_path / "manifest.txt"
    p.write_text("fps=30\nwidth=8\nheight=8\n1 gaze 3 0\n")
    with pytest.raises(FormatError):
        parse_manifest(p)


# ------------------------- frame ranges -------------------------

def test_read_frame_range_and_sequence(tmp_path):
    rng = np.random.default_rng(3)
    frames = rand_frames(rng, 6, 4, 4)
    for i in range(6):
        write_ppm(frame_path(tmp_path, i), frames[i])
    entries = [TrialEntry(1, "gaze", 3, 0, 2, 1),
               TrialEntry(2, "gaze", 4, 2, 4, 2)]
    m = TrialManifest(fps=30.0, width=4, height=4, entries=entries)
    write_manifest(tmp_path / "manifest.txt", m)

    part = read_frame_range(tmp_path, m, 2, 4)
    assert np.array_equal(part.frames, frames[2:6])
    whole = read_ppm_sequence(tmp_path / "manifest.txt")
    assert np.array_equal(whole.frames, frames)


@pytest.mark.parametrize("as_type", [str, Path])
def test_read_frame_range_accepts_str_and_path(tmp_path, as_type):
    ds = tmp_path / "100%_ds"
    ds.mkdir()
    frames = rand_frames(np.random.default_rng(4), 3, 2, 5)
    for i in range(3):
        write_ppm(frame_path(ds, 7 + i), frames[i])
    m = TrialManifest(fps=30.0, width=5, height=2,
                      entries=[TrialEntry(1, "gaze", 3, 7, 3, 1)])
    clip = read_frame_range(as_type(ds), m, 7, 3)
    assert np.array_equal(clip.frames, frames)


def test_read_frame_range_rejects_size_mismatch(tmp_path):
    write_ppm(frame_path(tmp_path, 0), np.zeros((3, 4, 3), dtype=np.uint8))
    m = TrialManifest(fps=30.0, width=8, height=8,
                      entries=[TrialEntry(1, "gaze", 3, 0, 1, 1)])
    with pytest.raises(FormatError):
        read_frame_range(tmp_path, m, 0, 1)


# ------------------------- physio CSV -------------------------

def test_physio_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    n = 256
    rec = PhysioRecord(sample_rate=128.0,
                       ecg=TimeSeries(rng.normal(size=n), 128.0),
                       resp=TimeSeries(rng.normal(size=n), 128.0),
                       trigger=np.zeros(n, dtype=np.int64))
    rec.trigger[0] = 1
    rec.trigger[128] = 2
    p = tmp_path / "physio.csv"
    write_physio_csv(p, rec)
    back = load_physio_csv(p)
    assert back.sample_rate == 128.0
    assert np.array_equal(back.ecg.samples, rec.ecg.samples)
    assert np.array_equal(back.resp.samples, rec.resp.samples)
    assert np.array_equal(back.trigger, rec.trigger)


def test_physio_rejects_wrong_header(tmp_path):
    p = tmp_path / "physio.csv"
    p.write_text("time,ecg,resp,trigger\n0,0,0,0\n")
    with pytest.raises(FormatError):
        load_physio_csv(p)


def test_physio_rejects_nonuniform_times(tmp_path):
    p = tmp_path / "physio.csv"
    p.write_text("t,ecg,resp,trigger\n0.0,0,0,0\n0.5,0,0,0\n0.7,0,0,0\n")
    with pytest.raises(FormatError):
        load_physio_csv(p)


def test_physio_requires_equal_channel_lengths():
    with pytest.raises(ValueError):
        PhysioRecord(sample_rate=128.0,
                     ecg=TimeSeries(np.zeros(4), 128.0),
                     resp=TimeSeries(np.zeros(4), 128.0),
                     trigger=np.zeros(5, dtype=np.int64))


def test_format_number_round_trips_floats():
    rng = np.random.default_rng(17)
    for _ in range(300):
        x = float(rng.normal(scale=10.0 ** rng.integers(-6, 7)))
        assert float(format_number(x)) == x
    assert format_number(72.0) == "72.0"
