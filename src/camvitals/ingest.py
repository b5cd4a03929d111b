"""On-disk formats: P6 PPM frame sequences with a plain-text trial manifest,
the physio CSV (t,ecg,resp,trigger), and the CSV dialect that it shares with
truth.csv and the result files."""

import contextlib
import csv
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import TimeSeries
from .geometry import validate_rect

CONDITIONS = ("respiration", "workout", "gaze")
HOLD_BREATH_TASK = 2

# a dataset directory: one global frame sequence, the manifest, the physio CSV
FRAME_PATTERN = "frame_%06d.ppm"
MANIFEST_FILE = "manifest.txt"
PHYSIO_FILE = "physio.csv"

# Rec.601 luma weights; the capture pipeline's grayscale convention.
LUMA_R, LUMA_G, LUMA_B = 0.299, 0.587, 0.114


class FormatError(ValueError):
    """A file failed to parse against its documented format."""


def not_ascii(path, err):
    """Error message for a UnicodeDecodeError met reading `path` as ASCII.
    The decoder reads in chunks, so it cannot say on which line."""
    return f"{path}: not ASCII text (byte 0x{err.object[err.start]:02x})"


@contextlib.contextmanager
def named(source):
    """Raise a ValueError from the block as a FormatError prefixed with
    `source`, the file of the setting or data it concerns; with source
    None, as it is."""
    try:
        yield
    except ValueError as e:
        if source is None:
            raise
        raise FormatError(f"{source}: {e}") from None


@dataclass
class VideoClip:
    """Frame stack (T, H, W, 3) with a fixed frame rate.

    Frames are uint8 for file-backed clips; synthetic clips may carry
    float frames (still bounded to [0, 255]) when quantization is off.
    """

    frames: np.ndarray
    fps: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 4 or self.frames.shape[3] != 3:
            raise ValueError(f"frames must have shape (T, H, W, 3), got {self.frames.shape}")
        if self.frames.shape[0] < 1:
            raise ValueError("clip must contain at least one frame")
        if not (self.fps > 0):
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.frames.dtype != np.uint8:
            lo, hi = self.frames.min(), self.frames.max()
            if lo < 0 or hi > 255:
                raise ValueError(f"channel values outside [0, 255]: [{lo}, {hi}]")
        self.fps = float(self.fps)

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def height(self):
        return self.frames.shape[1]

    @property
    def width(self):
        return self.frames.shape[2]

    @property
    def duration(self):
        return self.n_frames / self.fps


@dataclass
class PhysioRecord:
    """Synchronized physiological channels at one sample rate."""

    sample_rate: float
    ecg: TimeSeries
    resp: TimeSeries
    trigger: np.ndarray

    def __post_init__(self):
        self.trigger = np.asarray(self.trigger, dtype=np.int64)
        if not (len(self.ecg) == len(self.resp) == len(self.trigger)):
            raise ValueError("physio channels differ in length")
        if not (self.sample_rate > 0):
            raise ValueError("sample_rate must be positive")
        self.sample_rate = float(self.sample_rate)


@dataclass(frozen=True)
class TrialEntry:
    trial_id: int
    condition: str
    task_id: int
    start_frame: int
    frame_count: int
    trigger_code: int

    @property
    def is_hold_breath(self):
        return self.task_id == HOLD_BREATH_TASK


@dataclass
class TrialManifest:
    fps: float
    width: int
    height: int
    entries: list

    def __post_init__(self):
        if not (self.fps > 0 and self.width > 0 and self.height > 0):
            raise ValueError("manifest header values must be positive")
        seen = set()
        spans = []
        for e in self.entries:
            if e.condition not in CONDITIONS:
                raise FormatError(f"trial {e.trial_id}: unknown condition {e.condition!r}")
            if not (1 <= e.task_id <= 7):
                raise FormatError(f"trial {e.trial_id}: task_id {e.task_id} outside 1..7")
            if e.frame_count <= 0 or e.start_frame < 0:
                raise FormatError(f"trial {e.trial_id}: bad frame range")
            if e.trial_id in seen:
                raise FormatError(f"duplicate trial_id {e.trial_id}")
            seen.add(e.trial_id)
            spans.append((e.start_frame, e.start_frame + e.frame_count, e.trial_id))
        spans.sort()
        for (s0, e0, id0), (s1, e1, id1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise FormatError(f"trials {id0} and {id1} overlap in frame ranges")


# ------------------------- PPM frames -------------------------

_SEPARATORS = re.compile(rb"(?:\s|#[^\n]*\n?)*")
_TOKEN = re.compile(rb"[^\s#]+")
# ends the last header token: one whitespace byte, or a comment and its newline
_HEADER_END = re.compile(rb"\s|#[^\n]*\n?")


def _parse_ppm_header(buf, path):
    """(magic, width, height, maxval tokens, offset of the pixel data).

    Header tokens may be separated by any whitespace and '#' comments."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        tok = _TOKEN.match(buf, _SEPARATORS.match(buf, pos).end())
        if tok is None:
            raise FormatError(f"{path}: truncated PPM header")
        tokens.append(tok.group())
        pos = tok.end()
    end = _HEADER_END.match(buf, pos)
    return (*tokens, end.end() if end else pos)


def read_ppm(path):
    """Read one binary (P6) PPM file into an (H, W, 3) uint8 array."""
    with open(path, "rb") as f:
        buf = f.read()
    magic, w_tok, h_tok, maxval_tok, offset = _parse_ppm_header(buf, path)
    if magic != b"P6":
        raise FormatError(f"{path}: not a binary P6 PPM (magic {magic!r})")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise FormatError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval} unsupported (need 255)")
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive dimensions")
    size = width * height * 3
    if len(buf) - offset < size:
        raise FormatError(f"{path}: truncated pixel data")
    return np.frombuffer(buf, dtype=np.uint8, count=size, offset=offset).reshape(height, width, 3)


def write_ppm(path, frame):
    """Write an (H, W, 3) uint8 array as binary P6 PPM, maxval 255."""
    frame = np.asarray(frame)
    if frame.dtype != np.uint8 or frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError("frame must be (H, W, 3) uint8")
    h, w = frame.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(frame.tobytes())


def frame_path(dataset_dir, index):
    return Path(dataset_dir) / (FRAME_PATTERN % index)


def parse_manifest(path):
    """Parse the dataset manifest.

    Format: `key=value` header lines (fps, width, height), then one line
    per trial with whitespace-separated fields
    `trial_id condition task_id start_frame frame_count trigger_code`.
    Blank lines and lines starting with '#' are ignored.
    """
    header = {}
    entries = []
    try:
        with open(path, "r", encoding="ascii") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" in line and len(line.split()) == 1:
                    key, _, value = line.partition("=")
                    header[key.strip()] = value.strip()
                    continue
                parts = line.split()
                if len(parts) != 6:
                    raise FormatError(f"{path}:{lineno}: expected 6 trial fields, got {len(parts)}")
                try:
                    entries.append(TrialEntry(
                        trial_id=int(parts[0]), condition=parts[1], task_id=int(parts[2]),
                        start_frame=int(parts[3]), frame_count=int(parts[4]),
                        trigger_code=int(parts[5])))
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: non-numeric trial field") from None
    except UnicodeDecodeError as e:
        raise FormatError(not_ascii(path, e)) from None
    try:
        fps = float(header["fps"])
        width = int(header["width"])
        height = int(header["height"])
    except KeyError as missing:
        raise FormatError(f"{path}: manifest header missing {missing}") from None
    except ValueError:
        raise FormatError(f"{path}: non-numeric manifest header value") from None
    if not entries:
        raise FormatError(f"{path}: no trials")
    with named(path):
        return TrialManifest(fps=fps, width=width, height=height, entries=entries)


def write_manifest(path, manifest):
    lines = [f"fps={format_number(manifest.fps)}",
             f"width={manifest.width}",
             f"height={manifest.height}",
             "# trial_id condition task_id start_frame frame_count trigger_code"]
    for e in manifest.entries:
        lines.append(f"{e.trial_id} {e.condition} {e.task_id} "
                     f"{e.start_frame} {e.frame_count} {e.trigger_code}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_frame_range(dataset_dir, manifest, start_frame, frame_count):
    """Load a contiguous frame range of a dataset as a VideoClip.

    This is the streaming unit: callers load one trial's range at a time
    instead of the whole recording. A frame whose header is exactly the one
    write_ppm writes for the manifest's size is read with one readv, its
    pixels straight into the clip; any other frame goes through read_ppm.
    """
    w, h = manifest.width, manifest.height
    frames = np.empty((frame_count, h, w, 3), dtype=np.uint8)
    header = b"P6\n%d %d\n255\n" % (w, h)
    head = bytearray(len(header))
    size = len(header) + w * h * 3
    prefix = os.path.join(dataset_dir, "")
    for i in range(frame_count):
        p = prefix + FRAME_PATTERN % (start_frame + i)
        try:
            fd = os.open(p, os.O_RDONLY)
            try:
                n = os.readv(fd, [head, frames[i]])
            finally:
                os.close(fd)
        except OSError as e:
            raise FormatError(f"{p}: cannot read frame ({e.strerror})") from None
        # read_ppm would take the same pixels from a file that starts with
        # `header` and holds them all, trailing bytes or not; any other
        # file it parses in full, and names what is wrong with it
        if n < size or head != header:
            frame = read_ppm(p)
            if frame.shape != (h, w, 3):
                raise FormatError(
                    f"{p}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                    f"manifest declares {w}x{h}")
            frames[i] = frame
    return VideoClip(frames, manifest.fps)


# ------------------------- pixel operations -------------------------

def check_crop(width, height, left, right, top, bottom):
    """(width, height) of a width x height frame cropped by the margins;
    ValueError unless they leave pixels."""
    if min(left, right, top, bottom) < 0:
        raise ValueError("crop margins must be non-negative")
    if left + right >= width or top + bottom >= height:
        raise ValueError(
            f"crop ({left},{right},{top},{bottom}) exceeds {width}x{height} frame")
    return width - left - right, height - top - bottom


def crop_clip(clip, left, right, top, bottom):
    """Remove margins from every frame; (x, y) of the output maps to
    (x + left, y + top) of the input."""
    check_crop(clip.width, clip.height, left, right, top, bottom)
    frames = clip.frames[:, top:clip.height - bottom, left:clip.width - right, :]
    return VideoClip(frames, clip.fps)


# frames per array expression in _roi_blocks; bounds the size of the
# float64 temporaries the ROI traces build from a block
_ROI_BLOCK_FRAMES = 64


def _roi_blocks(clip, rois):
    """Split a clip's per-frame ROIs into blocks of frames that share one box.

    Yields (first frame index, pixels) in frame order, one block per
    run of consecutive equal boxes, cut every _ROI_BLOCK_FRAMES frames.
    `pixels` is the (frames, box pixels, 3) array of the box in each frame
    of the block, in the clip's dtype. Raises ValueError unless there is
    one ROI per frame, each non-empty and inside the frame.
    """
    n = len(rois)
    if n != clip.n_frames:
        raise ValueError(f"{n} ROIs for {clip.n_frames} frames")
    start = 0
    while start < n:
        box = rois[start]
        validate_rect(box, clip.width, clip.height, f"ROI of frame {start}")
        stop = start + 1
        limit = min(n, start + _ROI_BLOCK_FRAMES)
        while stop < limit and rois[stop] == box:
            stop += 1
        block = clip.frames[start:stop, box.y:box.y + box.h, box.x:box.x + box.w, :]
        yield start, block.reshape(stop - start, block.shape[1] * block.shape[2], 3)
        start = stop


def to_grayscale(clip):
    """Rec.601 grayscale: round(0.299 R + 0.587 G + 0.114 B) as uint8.
    Accepts a VideoClip or any (..., 3) RGB array."""
    pixels = clip.frames if isinstance(clip, VideoClip) else np.asarray(clip)
    # the IEEE operations of (R*LUMA_R + G*LUMA_G) + B*LUMA_B on float64
    # channels, in that order, without a float64 copy of all three
    gray = np.multiply(pixels[..., 0], LUMA_R, dtype=np.float64)
    term = np.multiply(pixels[..., 1], LUMA_G, dtype=np.float64)
    gray += term
    gray += np.multiply(pixels[..., 2], LUMA_B, out=term, dtype=np.float64)
    np.rint(gray, out=gray)
    np.clip(gray, 0, 255, out=gray)
    return gray.astype(np.uint8)


# ------------------------- CSV dialect -------------------------
# Every CSV the package writes or reads: ASCII, "\n" line ends, a fixed
# header checked verbatim, the header's cell count on every row, floats in
# shortest round-trip form, an empty cell for a missing value, and flags
# ";"-joined in sorted order. Every error names the file and line.

def format_number(x):
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format_number(v)
    if isinstance(v, (set, frozenset)):
        return ";".join(sorted(v))
    return v


def write_csv(path, header, rows):
    """Write `header` and `rows` in this dialect; other cells as csv writes them."""
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows([_csv_cell(v) for v in row] for row in rows)


def read_csv(path, header):
    """Yield (line number, row) for each row of a CSV written under
    `header`, after checking the header and the row's cell count."""
    try:
        with open(path, "r", newline="", encoding="ascii") as f:
            reader = csv.reader(f)
            got = next(reader, None)
            if got != header:
                raise FormatError(f"{path}:1: expected header {header}, got {got}")
            n = len(header)
            for row in reader:
                if len(row) != n:
                    raise FormatError(
                        f"{path}:{reader.line_num}: expected {n} cells, got {len(row)}")
                yield reader.line_num, row
    except UnicodeDecodeError as e:
        raise FormatError(not_ascii(path, e)) from None


def _parse_cell(convert, cell, column, where):
    try:
        return convert(cell)
    except ValueError:
        raise FormatError(f"{where}: {column} {cell!r} is not a number") from None


def _finite_float(cell):
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"non-finite {x}")
    return x


def _optional_float(cell):
    return None if cell == "" else _finite_float(cell)


def _parse_row(converters, row, header, where):
    return [_parse_cell(c, cell, column, where)
            for c, cell, column in zip(converters, row, header)]


# ------------------------- physio CSV -------------------------

PHYSIO_HEADER = ["t", "ecg", "resp", "trigger"]
_T_TOLERANCE = 1e-6  # seconds


def _int64(cell):
    x = int(cell)
    if not -2 ** 63 <= x < 2 ** 63:
        raise ValueError(f"{x} outside int64")
    return x


_PHYSIO_TYPES = (_finite_float, _finite_float, _finite_float, _int64)
_PHYSIO_HEAD = (",".join(PHYSIO_HEADER) + "\n").encode("ascii")
# bytes of whole lines per array pass of _physio_columns; bounds the size
# of its cell lists and position arrays
_PHYSIO_BLOCK_BYTES = 1 << 17


def _physio_columns(data):
    """The t, ecg, resp and trigger columns of physio.csv's bytes, one array
    conversion per column and block of lines; None unless read_csv would
    return the same rows and every cell converts to a finite float (an
    int64 trigger). Without quotes or \r, a csv row is the line split at
    its commas, and numpy converts a cell as float() and int() do; csv
    reads \r\n as one line end, so \r\n lines are read as \n lines."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not (data.startswith(_PHYSIO_HEAD) and data.endswith(b"\n") and data.isascii()):
        return None
    if b'"' in data or b"\r" in data:
        return None
    floats, ints = ([], [], []), []
    start = len(_PHYSIO_HEAD)
    while start < len(data):
        stop = data.index(b"\n", min(start + _PHYSIO_BLOCK_BYTES, len(data)) - 1) + 1
        block = data[start:stop]
        start = stop
        # 3 commas before the first newline, 6 before the second, ...
        codes = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(codes == ord("\n"))
        commas = np.flatnonzero(codes == ord(","))
        if not np.array_equal(np.searchsorted(commas, ends),
                              np.arange(3, 3 * len(ends) + 1, 3)):
            return None
        cells = block.replace(b"\n", b",").split(b",")
        cells.pop()  # after the last newline
        try:
            for i, column in enumerate(floats):
                column.append(np.array(cells[i::4], dtype=np.float64))
            ints.append(np.array(cells[3::4], dtype=np.int64))
        except (ValueError, OverflowError):
            return None
    columns = [np.concatenate(c) if c else np.empty(0) for c in floats]
    if not all(np.isfinite(c).all() for c in columns):
        return None
    return (*columns, np.concatenate(ints) if ints else np.empty(0, dtype=np.int64))


def _checked_physio_columns(path):
    """The columns of physio.csv, row by row through read_csv; the first
    cell that is not a finite number (an int64 trigger) raises FormatError
    naming its line and column."""
    rows = [_parse_row(_PHYSIO_TYPES, row, PHYSIO_HEADER, f"{path}:{line}")
            for line, row in read_csv(path, PHYSIO_HEADER)]
    t, ecg, resp, trig = zip(*rows) if rows else [()] * 4
    return (*(np.array(c, dtype=np.float64) for c in (t, ecg, resp)),
            np.array(trig, dtype=np.int64))


def load_physio_csv(path):
    """Parse `t,ecg,resp,trigger` CSV; the sample rate is inferred from the
    (strictly uniform) time column. A file the array pass cannot vouch
    for is read again row by row, which names what is wrong with it."""
    with open(path, "rb") as f:
        columns = _physio_columns(f.read())
    t, ecg, resp, trig = columns or _checked_physio_columns(path)
    if len(t) < 2:
        raise FormatError(f"{path}: need at least 2 samples to infer a rate")
    dt = t[1] - t[0]
    if dt <= 0:
        raise FormatError(f"{path}: time column not increasing")
    if np.max(np.abs(np.diff(t) - dt)) > _T_TOLERANCE:
        raise FormatError(f"{path}: non-uniform timestamps (tolerance {_T_TOLERANCE} s)")
    rate = 1.0 / dt
    return PhysioRecord(sample_rate=rate,
                        ecg=TimeSeries(ecg, rate),
                        resp=TimeSeries(resp, rate),
                        trigger=trig)


def write_physio_csv(path, record):
    dt = 1.0 / record.sample_rate
    write_csv(path, PHYSIO_HEADER, zip(
        [i * dt for i in range(len(record.ecg))], record.ecg.samples.tolist(),
        record.resp.samples.tolist(), record.trigger.tolist()))
