import re
from pathlib import Path

import numpy as np
import pytest

from camvitals.config import load_config
from camvitals.detect import CascadeFormatError, load_cascade
from camvitals.dsp import TimeSeries
from camvitals.evaluation import (EST_HEADER, GT_HEADER, TRIALS_HEADER, join_results,
                                  read_trials_csv)
from camvitals.ingest import (LUMA_B, LUMA_G, LUMA_R, PHYSIO_HEADER, FormatError,
                              PhysioRecord, TrialEntry,
                              TrialManifest, VideoClip, crop_clip,
                              format_number, frame_path, load_physio_csv,
                              parse_manifest, read_frame_range, read_ppm,
                              to_grayscale, write_manifest, write_physio_csv,
                              write_ppm)
from camvitals.synth import TRUTH_HEADER, read_truth_csv


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
    gray = to_grayscale(VideoClip(frames, 30.0))
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

def test_read_frame_range_and_sequence(tmp_path):
    rng = np.random.default_rng(3)
    frames = rand_frames(rng, 6, 4, 4)
    for i in range(6):
        write_ppm(frame_path(tmp_path, i), frames[i])
    entries = [TrialEntry(1, "gaze", 3, 0, 2, 1),
               TrialEntry(2, "gaze", 4, 2, 4, 2)]
    m = TrialManifest(fps=30.0, width=4, height=4, entries=entries)
    part = read_frame_range(tmp_path, m, 2, 4)
    assert np.array_equal(part.frames, frames[2:6])


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
    with pytest.raises(FormatError, match="frame is 4x3, manifest declares 8x8"):
        read_frame_range(tmp_path, m, 0, 1)


# 3x2 frames, whose header as write_ppm writes it is this
HEADER_3X2 = b"P6\n3 2\n255\n"


def test_read_frame_range_equals_read_ppm_per_frame(tmp_path):
    rng = np.random.default_rng(23)
    bodies = [rng.integers(0, 256, 18, dtype=np.uint8).tobytes() for _ in range(4)]
    # pixel data that starts with header-like bytes
    bodies += [b"\n3 2\n255\n#" + bytes(range(8)), HEADER_3X2 + bytes(range(7))]
    files = [HEADER_3X2 + bodies[0],
             b"P6\n# comment\n3 2\n255\n" + bodies[1],
             b"P6  3\t2\r\n255 " + bodies[2],
             HEADER_3X2 + bodies[3] + b"trailing bytes",
             HEADER_3X2 + bodies[4],
             HEADER_3X2 + bodies[5]]
    for i, raw in enumerate(files):
        frame_path(tmp_path, 10 + i).write_bytes(raw)
    m = TrialManifest(fps=30.0, width=3, height=2,
                      entries=[TrialEntry(1, "gaze", 3, 10, len(files), 1)])
    clip = read_frame_range(tmp_path, m, 10, len(files))
    ref = np.stack([read_ppm(frame_path(tmp_path, 10 + i)) for i in range(len(files))])
    assert np.array_equal(clip.frames, ref)
    assert [f.tobytes() for f in clip.frames] == bodies


@pytest.mark.parametrize("raw", [HEADER_3X2 + bytes(17), HEADER_3X2[:-1], b"P6\n3", b""],
                         ids=["truncated pixels", "header less its last byte",
                              "truncated header", "empty"])
def test_read_frame_range_fails_as_read_ppm(tmp_path, raw):
    frame_path(tmp_path, 0).write_bytes(HEADER_3X2 + bytes(18))
    frame_path(tmp_path, 1).write_bytes(raw)
    m = TrialManifest(fps=30.0, width=3, height=2,
                      entries=[TrialEntry(1, "gaze", 3, 0, 2, 1)])
    with pytest.raises(FormatError) as want:
        read_ppm(frame_path(tmp_path, 1))
    with pytest.raises(FormatError) as got:
        read_frame_range(tmp_path, m, 0, 2)
    assert str(got.value) == str(want.value)


def test_read_frame_range_names_a_missing_frame(tmp_path):
    write_ppm(frame_path(tmp_path, 0), np.zeros((2, 3, 3), dtype=np.uint8))
    m = TrialManifest(fps=30.0, width=3, height=2,
                      entries=[TrialEntry(1, "gaze", 3, 0, 2, 1)])
    with pytest.raises(FormatError, match=re.escape(
            f"{frame_path(tmp_path, 1)}: cannot read frame (No such file or directory)")):
        read_frame_range(tmp_path, m, 0, 2)


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
    "config": ("pipeline.cfg", load_config, ValueError, b"hr_low = 0.7  # caf\xe9\n"),
    "cascade": ("cascade.json", load_cascade, CascadeFormatError,
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
