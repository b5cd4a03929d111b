import re
from pathlib import Path

import numpy as np
import pytest

from camvitals import ingest
from camvitals.config import load_config
from camvitals.detect import load_cascade
from camvitals.dsp import TimeSeries
from camvitals.evaluation import EST_HEADER, GT_HEADER, TRIALS_HEADER, join_results
from camvitals.ingest import (LUMA_B, LUMA_G, LUMA_R, PHYSIO_HEADER, FormatError,
                              PhysioRecord, TrialEntry,
                              TrialManifest, VideoClip, crop_clip,
                              format_number, frame_path, load_physio_csv,
                              parse_manifest, read_frame_range, read_ppm,
                              to_grayscale, write_manifest, write_physio_csv,
                              write_ppm)
from camvitals.synth import TRUTH_HEADER

from readers import read_trials_csv, read_truth_csv


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


# name, edit of a clean file's text, whether the array pass reads the result
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
    "underscore": (lambda s: _set_cell(_set_cell(s, 3, 1, "1_0"), 4, 3, "1_0"), True),
    "leading space": (lambda s: _set_cell(_set_cell(s, 3, 2, " 1.0"), 4, 3, " 1"), True),
    "huge trigger": (lambda s: _set_cell(s, 6, 3, "99999999999999999999"), False),
    "int64 trigger": (lambda s: _set_cell(s, 6, 3, str(-2 ** 63)), True),
    "header only": (lambda s: s.split("\n")[0] + "\n", True),
    "foreign header": (lambda s: "T" + s[1:], False),
    "non-uniform times": (lambda s: _set_cell(s, 9, 0, "5.0"), True),
}


@pytest.mark.parametrize("block_bytes", [1 << 17, 97], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("name", sorted(PHYSIO_MUTATIONS))
def test_physio_array_pass_equals_the_checked_reader(name, block_bytes, tmp_path, monkeypatch):
    edit, vouched = PHYSIO_MUTATIONS[name]
    path = tmp_path / "physio.csv"
    path.write_bytes(edit(_physio_text()).encode("latin-1"))
    monkeypatch.setattr(ingest, "_PHYSIO_BLOCK_BYTES", block_bytes)
    _assert_same_as_checked_reader(path, monkeypatch)
    assert (ingest._physio_columns(path.read_bytes()) is not None) == vouched


def test_physio_array_pass_equals_the_checked_reader_on_random_edits(tmp_path, monkeypatch):
    # seeded byte edits of a clean file: replace, insert or delete one byte
    # from the alphabet of the dialect and of the ways a file goes wrong
    rng = np.random.default_rng(23)
    alphabet = b'0123456789,\n\r". _-+eE.nai\xe9\x00'
    clean = _physio_text(40).encode("ascii")
    monkeypatch.setattr(ingest, "_PHYSIO_BLOCK_BYTES", 64)
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
    write_physio_csv(path, rec)

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
