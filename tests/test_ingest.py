import csv
import hashlib
import io
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from camvitals import ingest
from camvitals.config import load_config
from camvitals.detect import load_cascade
from camvitals.dsp import TimeSeries
from camvitals.evaluation import (EST_HEADER, GT_HEADER, TRIALS_HEADER, _read_results_csv,
                                  flags_cell, join_results)
from camvitals.ingest import (FRAMES_FILE, LUMA_B, LUMA_G, LUMA_R, PHYSIO_HEADER,
                              FormatError, PhysioRecord, TrialEntry,
                              TrialManifest, VideoClip, _finite_float, crop_clip,
                              format_number, load_physio_csv,
                              parse_manifest, read_csv, read_frame_range,
                              to_grayscale, write_csv, write_manifest, write_physio_csv,
                              write_ppm)
from camvitals.synth import TRUTH_HEADER, SynthConfig, TrialPlan, synth_dataset

from conftest import write_physio
from readers import read_ppm, read_ppm_stream, read_trials_csv, read_truth_csv


def rand_frames(rng, n, h, w):
    return rng.integers(0, 256, size=(n, h, w, 3), dtype=np.uint8)


# ------------------------- PPM -------------------------
# read_ppm is the reference parser of tests/readers.py, which reads any
# valid P6 header; the frame-range tests check read_frame_range against it

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


def test_write_ppm_stack_equals_single_frame_writes(tmp_path):
    rng = np.random.default_rng(12)
    for n, h, w in [(1, 1, 1), (3, 2, 5), (7, 9, 4), (4, 1, 33)]:
        frames = rand_frames(rng, n, h, w)
        singles = []
        for i, frame in enumerate(frames):
            write_ppm(tmp_path / f"single{i}.ppm", frame)
            singles.append((tmp_path / f"single{i}.ppm").read_bytes())
        write_ppm(tmp_path / "stack.ppm", frames)
        assert (tmp_path / "stack.ppm").read_bytes() == b"".join(singles)
        # an open file gets the records appended; a strided view is
        # written as its contiguous copy
        strided = np.repeat(frames[1:], 2, axis=2)[:, :, ::2]
        assert not strided.flags.c_contiguous or n == 1
        with open(tmp_path / "appended.ppm", "wb") as f:
            write_ppm(f, frames[:1])
            write_ppm(f, strided)
        assert (tmp_path / "appended.ppm").read_bytes() == b"".join(singles)


@pytest.mark.parametrize("shape, dtype", [((2, 2, 3), np.float64), ((2, 2), np.uint8),
                                          ((2, 2, 4), np.uint8), ((1, 1, 2, 2, 3), np.uint8)])
def test_write_ppm_rejects_what_is_not_uint8_rgb(tmp_path, shape, dtype):
    with pytest.raises(ValueError, match="uint8"):
        write_ppm(tmp_path / "x.ppm", np.zeros(shape, dtype=dtype))


# ------------------------- VideoClip -------------------------

def test_clip_validates_shape_and_range():
    with pytest.raises(ValueError):
        VideoClip(np.zeros((2, 4, 4), dtype=np.uint8), 30.0)
    with pytest.raises(ValueError):
        VideoClip(np.zeros((0, 4, 4, 3), dtype=np.uint8), 30.0)
    with pytest.raises(ValueError):
        VideoClip(np.zeros((2, 4, 4, 3), dtype=np.uint8), 0.0)
    clip = VideoClip(np.full((2, 4, 6, 3), 255, dtype=np.uint8), 25.0)
    assert (clip.n_frames, clip.height, clip.width) == (2, 4, 6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint16])
def test_clip_rejects_frames_that_are_not_uint8(dtype):
    # values inside [0, 255] too: a clip is 8-bit, not merely in range
    with pytest.raises(ValueError, match=f"^frames must be uint8, got {np.dtype(dtype)}$"):
        VideoClip(np.full((2, 4, 4, 3), 128, dtype=dtype), 30.0)


def test_crop_clip_slices_margins():
    frames = (np.arange(2 * 6 * 8 * 3).reshape(2, 6, 8, 3) % 255).astype(np.uint8)
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


def gray_reference(pixels):
    """to_grayscale as one float64 expression over a copy of the channels."""
    f = np.asarray(pixels).astype(np.float64)
    gray = LUMA_R * f[..., 0] + LUMA_G * f[..., 1] + LUMA_B * f[..., 2]
    return np.clip(np.rint(gray), 0, 255).astype(np.uint8)


def test_to_grayscale_matches_reference_on_every_uint8_triple():
    gb = np.arange(1 << 16)
    px = np.empty((gb.size, 3), dtype=np.uint8)
    px[:, 1], px[:, 2] = gb >> 8, gb & 0xFF
    for r in range(256):  # 2^16 triples at a time keeps memory small
        px[:, 0] = r
        assert np.array_equal(to_grayscale(px), gray_reference(px)), f"R = {r}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_to_grayscale_matches_reference_on_float_frames(dtype):
    rng = np.random.default_rng(21)
    frames = rng.uniform(0, 255, size=(4, 16, 16, 3)).astype(dtype)
    # channel values whose weighted sum lands on or near a .5 rounding tie
    frames[0, 0, :4] = [[0.5 / LUMA_R, 0, 0], [0, 0, 2.5 / LUMA_B], [127.5, 127.5, 127.5],
                        [255, 255, 255]]
    gray = to_grayscale(frames)
    assert gray.dtype == np.uint8
    assert np.array_equal(gray, gray_reference(frames))


def test_to_grayscale_matches_reference_on_a_roi_view():
    frames = rand_frames(np.random.default_rng(22), 5, 12, 10)
    view = frames[1::2, 3:9, 2:7, :]
    assert not view.flags.c_contiguous
    assert np.array_equal(to_grayscale(view), gray_reference(view))


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


# manifest text, and the message of the check it fails
MANIFEST_CHECKS = {
    "header": ("fps=0\nwidth=8\nheight=8\n1 gaze 3 0 10 1\n",
               "manifest header values must be positive"),
    "infinite fps": ("fps=inf\nwidth=8\nheight=8\n1 gaze 3 0 10 1\n",
                     "manifest fps must be finite"),
    "condition": ("fps=30\nwidth=8\nheight=8\n1 sleep 3 0 10 1\n",
                  "trial 1: unknown condition 'sleep'"),
    "task range": ("fps=30\nwidth=8\nheight=8\n1 gaze 8 0 10 1\n",
                   "trial 1: task_id 8 outside 1..7"),
    "frame range": ("fps=30\nwidth=8\nheight=8\n1 gaze 3 0 0 1\n",
                    "trial 1: bad frame range"),
    "duplicate": ("fps=30\nwidth=8\nheight=8\n1 gaze 3 0 10 1\n1 gaze 4 10 10 2\n",
                  "duplicate trial_id 1"),
    "overlap": ("fps=30\nwidth=8\nheight=8\n1 gaze 3 0 10 1\n2 gaze 4 9 10 2\n",
                "trials 1 and 2 overlap in frame ranges"),
    "no trials": ("fps=30\nwidth=8\nheight=8\n# trial_id condition task_id\n", "no trials"),
}


@pytest.mark.parametrize("check", list(MANIFEST_CHECKS))
def test_parse_manifest_names_the_file_of_a_manifest_check(check, tmp_path):
    text, message = MANIFEST_CHECKS[check]
    p = tmp_path / "manifest.txt"
    p.write_text(text)
    with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        parse_manifest(p)


# ------------------------- frame ranges -------------------------

def write_stream(ds, frames):
    """Write `frames` as the dataset's frames.ppm; its path."""
    write_ppm(ds / FRAMES_FILE, frames)
    return ds / FRAMES_FILE


def manifest_of(width, height, *ranges):
    return TrialManifest(fps=30.0, width=width, height=height,
                         entries=[TrialEntry(i + 1, "gaze", 3, start, count, i + 1)
                                  for i, (start, count) in enumerate(ranges)])


def test_read_frame_range_and_sequence(tmp_path):
    rng = np.random.default_rng(3)
    frames = rand_frames(rng, 6, 4, 4)
    write_stream(tmp_path, frames)
    m = manifest_of(4, 4, (0, 2), (2, 4))
    part = read_frame_range(tmp_path, m, 2, 4)
    assert np.array_equal(part.frames, frames[2:6])


@pytest.mark.parametrize("as_type", [str, Path])
def test_read_frame_range_accepts_str_and_path(tmp_path, as_type):
    ds = tmp_path / "100%_ds"
    ds.mkdir()
    frames = rand_frames(np.random.default_rng(4), 10, 2, 5)
    write_stream(ds, frames)
    m = manifest_of(5, 2, (7, 3))
    clip = read_frame_range(as_type(ds), m, 7, 3)
    assert np.array_equal(clip.frames, frames[7:])


def test_read_frame_range_rejects_size_mismatch(tmp_path):
    write_stream(tmp_path, np.zeros((5, 3, 4, 3), dtype=np.uint8))
    m = manifest_of(8, 8, (0, 1))
    with pytest.raises(FormatError, match=re.escape(
            f"{tmp_path / FRAMES_FILE}: frame 0 (byte 0): record header "
            "b'P6\\n4 3\\n255\\n', expected b'P6\\n8 8\\n255\\n' for the manifest's 8x8")):
        read_frame_range(tmp_path, m, 0, 1)


# 3x2 frames, whose header as write_ppm writes it is this; a record is 29 bytes
HEADER_3X2 = b"P6\n3 2\n255\n"
RECORD_3X2 = len(HEADER_3X2) + 18


def test_read_frame_range_equals_read_ppm_per_frame(tmp_path):
    """Random multi-trial streams, some of whose pixels start like a
    header, read over random ranges: each equals the reference parse of
    the stream, image after image."""
    rng = np.random.default_rng(23)
    for case in range(6):
        w, h = (int(v) for v in rng.integers(1, 12, 2))
        counts = rng.integers(1, 40, int(rng.integers(1, 6)))
        frames = rand_frames(rng, int(counts.sum()), h, w)
        header = b"P6\n%d %d\n255\n" % (w, h)
        for i in rng.choice(len(frames), min(3, len(frames)), replace=False):
            lead = (header + b"#\n \t")[:frames[i].size]
            frames[i].reshape(-1)[:len(lead)] = np.frombuffer(lead, np.uint8)
        ds = tmp_path / f"ds{case}"
        ds.mkdir()
        # one trial's frames after another, as synth appends them
        with open(ds / FRAMES_FILE, "wb") as f:
            for part in np.split(frames, np.cumsum(counts)[:-1]):
                write_ppm(f, part)
        ref = np.stack(read_ppm_stream(ds / FRAMES_FILE))
        assert np.array_equal(ref, frames)
        m = manifest_of(w, h, (0, len(frames)))
        for _ in range(20):
            start = int(rng.integers(0, len(frames)))
            count = int(rng.integers(1, len(frames) - start + 1))
            clip = read_frame_range(ds, m, start, count)
            assert clip.frames.dtype == np.uint8
            assert np.array_equal(clip.frames, ref[start:start + count])


def test_read_frame_range_reads_many_frames(tmp_path):
    frames = rand_frames(np.random.default_rng(24), 1000, 1, 2)
    write_stream(tmp_path, frames)
    m = manifest_of(2, 1, (0, len(frames)))
    assert np.array_equal(read_frame_range(tmp_path, m, 3, len(frames) - 3).frames,
                          frames[3:])


@pytest.mark.parametrize("raw", [HEADER_3X2 + bytes(17), HEADER_3X2[:-1], b"P6\n3", b""],
                         ids=["truncated pixels", "header less its last byte",
                              "truncated header", "empty"])
def test_read_frame_range_fails_as_read_ppm(tmp_path, raw):
    """A stream whose second record is cut short: the reference parser
    cannot read that record, and read_frame_range names it and its offset."""
    (tmp_path / "record.ppm").write_bytes(raw)
    with pytest.raises(FormatError):
        read_ppm(tmp_path / "record.ppm")
    path = tmp_path / FRAMES_FILE
    path.write_bytes(HEADER_3X2 + bytes(18) + raw)
    want = (f"truncated record, {len(raw)} of {RECORD_3X2} bytes" if raw else
            f"past the end of the file, expected a {RECORD_3X2}-byte record")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: frame 1 (byte 29): {want}')}$"):
        read_frame_range(tmp_path, manifest_of(3, 2, (0, 2)), 0, 2)


def test_read_frame_range_names_a_missing_frame(tmp_path):
    """A range that runs past the end of the stream."""
    path = write_stream(tmp_path, np.zeros((4, 2, 3, 3), dtype=np.uint8))
    m = manifest_of(3, 2, (2, 3))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: frame 4 \\(byte 116\\): "
                       "past the end of the file, expected a 29-byte record$"):
        read_frame_range(tmp_path, m, 2, 3)
    with pytest.raises(FormatError, match=r": frame 9 \(byte 261\): past the end"):
        read_frame_range(tmp_path, m, 9, 1)


def test_read_frame_range_names_a_truncated_tail(tmp_path):
    path = write_stream(tmp_path, np.zeros((6, 2, 3, 3), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:-5])
    m = manifest_of(3, 2, (0, 2), (2, 4))
    assert read_frame_range(tmp_path, m, 0, 2).n_frames == 2
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: frame 5 \\(byte 145\\): "
                       "truncated record, 24 of 29 bytes$"):
        read_frame_range(tmp_path, m, 2, 4)


@pytest.mark.parametrize("head", [b"P5\n3 2\n255\n", b"P6\n3 2\n254\n", b"P6\n2 3\n255\n",
                                  b"P6 3 2\n255\n", b"P6\n3 2 255\n", b"P6\n#\n3 2\n255"],
                         ids=["magic", "maxval", "size", "space", "other whitespace",
                              "comment"])
def test_read_frame_range_names_a_bad_record_header(tmp_path, head):
    """A record header mid-trial that is not ppm_header's bytes, valid
    PPM or not: a stream of variable-length records cannot be seeked."""
    frames = rand_frames(np.random.default_rng(25), 6, 2, 3)
    path = write_stream(tmp_path, frames)
    raw = bytearray(path.read_bytes())
    raw[3 * RECORD_3X2:3 * RECORD_3X2 + len(head)] = head
    path.write_bytes(bytes(raw))
    m = manifest_of(3, 2, (0, 6))
    assert np.array_equal(read_frame_range(tmp_path, m, 4, 2).frames, frames[4:])
    with pytest.raises(FormatError, match="^" + re.escape(
            f"{path}: frame 3 (byte 87): record header {head[:len(HEADER_3X2)]!r}, "
            f"expected {HEADER_3X2!r} for the manifest's 3x2") + "$"):
        read_frame_range(tmp_path, m, 1, 5)


def test_read_frame_range_names_a_missing_stream(tmp_path):
    m = manifest_of(3, 2, (7, 2))
    with pytest.raises(FormatError, match="^" + re.escape(
            f"{tmp_path / FRAMES_FILE}: frame 7 (byte 203): "
            "cannot read (No such file or directory)") + "$"):
        read_frame_range(tmp_path, m, 7, 2)


def test_synth_stream_equals_the_per_frame_files_concatenated(tmp_path):
    """frames.ppm of a small dataset against digests frozen when synth wrote
    one frame_%06d.ppm file per frame: the stream is those files'
    bytes in frame order, and the other files are unchanged."""
    synth_dataset([TrialPlan(1, "respiration", 2, 1.0), TrialPlan(2, "gaze", 5, 0.5)],
                  SynthConfig(width=19, height=24, noise_sigma=1.5), tmp_path, seed=7)
    frozen = {
        FRAMES_FILE: "dc99a8333187bf4d9b21c5fc7119a737fec823dcded746cb1c024f6fbc9ceea2",
        "manifest.txt": "f5535c5008939a03cd9c34c521ca27abd9ce48c86c5041daa837d3d22455ab25",
        "physio.csv": "2e0e12d4beff5d6ca9b023bfeba0527735b8719986e9d54eb69db068f00d4a02",
        "truth.csv": "0d5e6b046fab1f6ab8ad7179d024308de67f64522f00e6c373bec8ec3d8e2efd",
    }
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in frozen} == frozen
    assert len(read_ppm_stream(tmp_path / FRAMES_FILE)) == 45


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
    write_physio(p, rec)
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


def test_csv_writer_formats_each_cell_as_the_dialect_says(tmp_path):
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2 ** 64, size=2000, dtype=np.uint64).view(np.float64)
    values = [x for x in bits if np.isfinite(x)]
    values += [float(x) for x in values]
    assert {type(v) for v in values} == {np.float64, float}
    others = [None, 0, -7, 2 ** 70, "gaze"]
    path = tmp_path / "cells.csv"
    write_csv(path, ["x"], [[v] for v in values + others])
    rows = [row for _, row in read_csv(path, ["x"])]
    assert [row[0] for row in rows] == [repr(float(v)) for v in values] + [
        "", "0", "-7", str(2 ** 70), "gaze"]
    back = np.array([_finite_float(row[0]) for row in rows[:len(values)]])
    assert back.tobytes() == np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("start", [0, 7])
def test_physio_rows_are_the_text_csv_writer_gives(start):
    ecg = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    resp = [1.7976931348623157e308, -5e-324, 0.0, -1.5]
    trigger = [-2 ** 63, 2 ** 63 - 1, 0, 3]
    rate = 128.0
    rec = PhysioRecord(sample_rate=rate, ecg=TimeSeries(ecg, rate), resp=TimeSeries(resp, rate),
                       trigger=trigger)
    got = io.StringIO()
    write_physio_csv(got, rec, start)
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    if start == 0:
        w.writerow(PHYSIO_HEADER)
    w.writerows(zip([i * (1.0 / rate) for i in range(start, start + 4)], ecg, resp, trigger))
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().splitlines()[-4].split(",")[1:] == ["-0.0", "1.7976931348623157e+308",
                                                             str(-2 ** 63)]


def test_flags_cell_round_trips_through_a_result_csv(tmp_path):
    flag_sets = [set(), {"too_short"}, {"roi_failure", "hold_breath_excluded"},
                 {"out_of_band", "too_short", "hold_breath_excluded", "roi_failure"}]
    path = tmp_path / "gt.csv"
    write_csv(path, GT_HEADER, [(i, "gaze", 3, 70.0, None, flags_cell(f))
                                for i, f in enumerate(flag_sets, 1)])
    cells = [row[-1] for _, row in read_csv(path, GT_HEADER)]
    assert cells == ["", "too_short", "hold_breath_excluded;roi_failure",
                     "hold_breath_excluded;out_of_band;roi_failure;too_short"]
    assert [flags for *_, flags in _read_results_csv(path, GT_HEADER)] == flag_sets


# ------------------------- CSV dialect -------------------------

# reader, header, a valid row, a short row, (a row with a bad cell, its column)
CSV_READERS = {
    "physio": (load_physio_csv, PHYSIO_HEADER, "0.0,0.5,-0.5,1",
               "0.0,0.5", ("0.0078125,0.5,abc,0", "resp")),
    "truth": (read_truth_csv, TRUTH_HEADER, "1,72.0,15.0,12,5,8,10,162.67",
              "1,72.0", ("2,72.0,15.0,12,5,eight,10,162.67", "face_w")),
    "trials": (read_trials_csv, TRIALS_HEADER, "1,gaze,3,70.0,71.0,,,,",
               "1,gaze,3,70.0", ("2,gaze,3,70.0,x,,,,", "hr_gt")),
}


@pytest.mark.parametrize("case", ["foreign header", "short row", "bad cell"])
@pytest.mark.parametrize("kind", sorted(CSV_READERS))
def test_csv_readers_name_the_line_of_a_bad_row(kind, case, tmp_path):
    read, header, good, short, (bad, column) = CSV_READERS[kind]
    path = tmp_path / f"{kind}.csv"
    if case == "foreign header":
        lines = ["a,b,c", good]
        message = f"1: expected header {header}, got ['a', 'b', 'c']"
    elif case == "short row":
        lines = [",".join(header), short]
        message = f"2: expected {len(header)} cells, got {short.count(',') + 1}"
    else:
        lines = [",".join(header), good, bad]
        message = f"3: {column} '{bad.split(',')[header.index(column)]}' is not a number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:{message}')}$"):
        read(path)


# file name, header, valid rows, and the reader that reads the file
FINITE_FILES = {
    "physio": ("physio.csv", PHYSIO_HEADER,
               ["0.0,0.5,-0.5,1", "0.0078125,0.5,-0.5,0", "0.015625,0.5,-0.5,0"],
               lambda d: load_physio_csv(d / "physio.csv")),
    "est": ("est.csv", EST_HEADER, ["1,gaze,3,70.0,15.0,120.0,", "2,gaze,4,71.0,16.0,121.0,"],
            lambda d: join_results(d / "est.csv", d / "gt.csv")),
    "gt": ("gt.csv", GT_HEADER, ["1,gaze,3,70.5,15.5,", "2,gaze,4,71.5,16.5,"],
           lambda d: join_results(d / "est.csv", d / "gt.csv")),
    "truth": ("truth.csv", TRUTH_HEADER,
              ["1,72.0,15.0,12,5,8,10,162.67", "2,73.0,16.0,12,5,8,10,162.67"],
              lambda d: read_truth_csv(d / "truth.csv")),
}


@pytest.mark.parametrize("kind,column,cell", [
    ("physio", "t", "nan"), ("physio", "ecg", "inf"), ("physio", "resp", "-inf"),
    ("est", "hr_est", "nan"), ("est", "skin_gray", "inf"), ("gt", "rr_gt", "nan"),
    ("truth", "hr_bpm", "inf"), ("truth", "mean_face_gray", "nan"),
])
def test_csv_readers_name_a_non_finite_cell(kind, column, cell, tmp_path):
    for name, header, rows, _ in FINITE_FILES.values():
        (tmp_path / name).write_text("\n".join([",".join(header), *rows]) + "\n")
    name, header, rows, read = FINITE_FILES[kind]
    read(tmp_path)   # the valid files read, so the error below is the cell's
    cells = rows[1].split(",")
    cells[header.index(column)] = cell
    path = tmp_path / name
    path.write_text("\n".join([",".join(header), rows[0], ",".join(cells), *rows[2:]]) + "\n")
    with pytest.raises(FormatError,
                       match=f"^{re.escape(f'{path}:3: {column} {cell!r} is not a number')}$"):
        read(tmp_path)


# file name, reader, its error type, contents with a non-ASCII byte
NON_ASCII_FILES = {
    "physio": ("physio.csv", load_physio_csv, FormatError,
               b"t,ecg,resp,trigger\n0.0,0.5,caf\xe9,1\n"),
    "manifest": ("manifest.txt", parse_manifest, FormatError,
                 b"fps=30\nwidth=32\nheight=32\n# caf\xe9\n"),
    "config": ("pipeline.cfg", load_config, FormatError, b"hr_low = 0.7  # caf\xe9\n"),
    "cascade": ("cascade.json", load_cascade, FormatError,
                b'{"window": [8, 8], "note": "caf\xe9"}\n'),
}


@pytest.mark.parametrize("kind", sorted(NON_ASCII_FILES))
def test_ascii_readers_name_the_file_of_a_non_ascii_byte(kind, tmp_path):
    name, read, error, data = NON_ASCII_FILES[kind]
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(error, match=f"^{re.escape(f'{path}: not ASCII text (byte 0xe9)')}$") as e:
        read(path)
    assert e.type is error


# ------------------------- physio fast path -------------------------

def _physio_text(n=300, seed=9):
    """A clean physio.csv of n samples at 128 Hz, as write_physio_csv writes it."""
    rng = np.random.default_rng(seed)
    lines = [",".join(PHYSIO_HEADER)]
    for i in range(n):
        lines.append(f"{i / 128.0!r},{rng.normal()!r},{rng.normal() * 1e-3!r},{i % 3}")
    return "\n".join(lines) + "\n"


def _load_or_error(path):
    try:
        rec = load_physio_csv(path)
    except FormatError as e:
        return str(e)
    return (rec.sample_rate, rec.ecg.samples.tobytes(), rec.resp.samples.tobytes(),
            rec.trigger.tobytes())


def _assert_same_as_checked_reader(path, monkeypatch):
    """load_physio_csv gives the checked reader's arrays or error text."""
    got = _load_or_error(path)
    with monkeypatch.context() as m:
        m.setattr(ingest, "_physio_columns", lambda data: None)
        assert got == _load_or_error(path)
    return got


def _edit_line(text, index, edit):
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def _set_cell(text, line, column, cell):
    def edit(row):
        cells = row.split(",")
        cells[column] = cell
        return ",".join(cells)
    return _edit_line(text, line, edit)


# name, edit of a clean file's text, whether np.loadtxt vouches for the result
PHYSIO_MUTATIONS = {
    "clean": (lambda s: s, True),
    "short row": (lambda s: _edit_line(s, 5, lambda r: r.rsplit(",", 1)[0]), False),
    # a total cell count passes, and the cells shifted by one all convert
    "5 cells beside 3": (lambda s: _edit_line(_edit_line(s, 5, lambda r: r + ",7"), 6,
                                              lambda r: r.rsplit(",", 2)[0] + ",5"), False),
    "blank line": (lambda s: _edit_line(s, 8, lambda r: r + "\n"), False),
    "no final newline": (lambda s: s[:-1], False),
    "quote": (lambda s: _set_cell(s, 4, 1, '"0.25"'), False),
    "crlf": (lambda s: s.replace("\n", "\r\n"), True),
    "non-ascii": (lambda s: _set_cell(s, 7, 2, "caf\xe9"), False),
    "nul": (lambda s: _set_cell(s, 7, 2, "1\0"), False),
    "nan": (lambda s: _set_cell(s, 9, 1, "nan"), False),
    "inf": (lambda s: _set_cell(s, 9, 2, "-inf"), False),
    "overflow to inf": (lambda s: _set_cell(s, 9, 0, "1e999"), False),
    "non-numeric": (lambda s: _set_cell(s, 3, 1, "abc"), False),
    "trigger 1.0": (lambda s: _set_cell(s, 3, 3, "1.0"), False),
    # float() and int() read 1_0 as 10; loadtxt refuses it
    "underscore": (lambda s: _set_cell(_set_cell(s, 3, 1, "1_0"), 4, 3, "1_0"), False),
    "leading space": (lambda s: _set_cell(_set_cell(s, 3, 2, " 1.0"), 4, 3, " 1"), True),
    "tab and form feed": (lambda s: _set_cell(_set_cell(s, 3, 2, "\t1.0\f"), 4, 3, "\f1\t"),
                          True),
    "whitespace line": (lambda s: _edit_line(s, 8, lambda r: r + "\n \t "), False),
    "infinity": (lambda s: _set_cell(s, 9, 1, "infinity"), False),
    "huge trigger": (lambda s: _set_cell(s, 6, 3, "99999999999999999999"), False),
    "int64 trigger": (lambda s: _set_cell(s, 6, 3, str(-2 ** 63)), True),
    "header only": (lambda s: s.split("\n")[0] + "\n", False),
    "foreign header": (lambda s: "T" + s[1:], False),
    "non-uniform times": (lambda s: _set_cell(s, 9, 0, "5.0"), True),
}


# Each edit in a clean file of 300 rows ("one-block") and of 3,000
# ("many-blocks"; the ids predate the loadtxt reader and stay so that test
# ids stay stable). Any warning fails: the array pass must refuse, not warn
# about, a file that loadtxt warns on, such as "header only".
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [300, 3000], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("name", sorted(PHYSIO_MUTATIONS))
def test_physio_array_pass_equals_the_checked_reader(name, rows, tmp_path, monkeypatch):
    edit, vouched = PHYSIO_MUTATIONS[name]
    path = tmp_path / "physio.csv"
    path.write_bytes(edit(_physio_text(rows)).encode("latin-1"))
    _assert_same_as_checked_reader(path, monkeypatch)
    assert (ingest._physio_columns(path.read_bytes()) is not None) == vouched


def test_physio_array_pass_refuses_a_cell_that_loadtxt_only_warns_about(tmp_path, monkeypatch):
    # numpy versions that read an integer cell through float warn and return
    # the cast value; with warnings ignored, as outside tests, the file must
    # still go to the row reader, which names the cell
    real_loadtxt = np.loadtxt
    as_floats = np.dtype({"names": PHYSIO_HEADER, "formats": ["f8"] * 4})

    def lenient_loadtxt(*args, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return real_loadtxt(*args, dtype=as_floats, **kwargs).astype(dtype)

    path = tmp_path / "physio.csv"
    path.write_text(_set_cell(_physio_text(20), 3, 3, "1.0"))
    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert ingest._physio_columns(path.read_bytes()) is None
        with pytest.raises(FormatError,
                           match=f"^{re.escape(f'{path}:4: trigger ' + repr('1.0'))} is not"):
            load_physio_csv(path)


def test_physio_array_pass_equals_the_checked_reader_on_random_edits(tmp_path, monkeypatch):
    # seeded byte edits of a clean file: replace, insert or delete one byte
    # from the alphabet of the dialect and of the ways a file goes wrong
    rng = np.random.default_rng(23)
    alphabet = b'0123456789,\n\r". _-+eE.nai\xe9\x00'
    clean = _physio_text(40).encode("ascii")
    path = tmp_path / "physio.csv"
    outcomes = set()
    for _ in range(300):
        data = bytearray(clean)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(ingest._PHYSIO_HEAD), len(data)))
            byte = alphabet[int(rng.integers(len(alphabet)))]
            kind = int(rng.integers(3))
            if kind == 0:
                data[at] = byte
            elif kind == 1:
                data.insert(at, byte)
            else:
                del data[at]
        path.write_bytes(bytes(data))
        outcomes.add(isinstance(_assert_same_as_checked_reader(path, monkeypatch), str))
    assert outcomes == {True, False}


def test_row_reader_names_the_first_bad_cell(tmp_path):
    # the reader that read the file twice named line 9, the first cell
    # that is not a number, before line 4, the first that is not finite
    path = tmp_path / "physio.csv"
    path.write_text(_set_cell(_set_cell(_physio_text(12), 3, 1, "nan"), 8, 1, "abc"))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(f'{path}:4: ecg ' + repr('nan'))} is not a number$"):
        load_physio_csv(path)


def _no_row_reader(*args):
    raise AssertionError("read_csv called")


def test_crlf_physio_needs_no_row_reader(tmp_path, monkeypatch):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_text(_physio_text())
    crlf.write_bytes(_physio_text().replace("\n", "\r\n").encode("ascii"))
    want = _load_or_error(lf)
    monkeypatch.setattr(ingest, "read_csv", _no_row_reader)
    assert _load_or_error(crlf) == want


def test_paper_size_physio_needs_no_row_reader(tmp_path, monkeypatch):
    # 1100 s at 128 Hz: the paper protocol's record
    rng = np.random.default_rng(31)
    n = 140_800
    rec = PhysioRecord(sample_rate=128.0,
                       ecg=TimeSeries(rng.normal(size=n), 128.0),
                       resp=TimeSeries(rng.normal(size=n), 128.0),
                       trigger=rng.integers(0, 81, size=n))
    path = tmp_path / "physio.csv"
    write_physio(path, rec)

    monkeypatch.setattr(ingest, "read_csv", _no_row_reader)
    back = load_physio_csv(path)
    assert back.sample_rate == 128.0
    assert back.ecg.samples.tobytes() == rec.ecg.samples.tobytes()
    assert back.resp.samples.tobytes() == rec.resp.samples.tobytes()
    assert back.trigger.tobytes() == rec.trigger.tobytes()


@pytest.mark.parametrize("cell", ["99999999999999999999", str(2 ** 63), str(-2 ** 63 - 1)])
def test_physio_names_a_trigger_beyond_int64(cell, tmp_path):
    path = tmp_path / "physio.csv"
    path.write_text(_set_cell(_physio_text(8), 3, 3, cell))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(f'{path}:4: trigger {cell!r} is not a number')}$"):
        load_physio_csv(path)
