"""On-disk formats: P6 PPM frame sequences with a plain-text trial manifest,
raw packed RGB24 clips, and the physio CSV (t,ecg,resp,trigger)."""

import csv
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import TimeSeries

CONDITIONS = ("respiration", "workout", "gaze")
HOLD_BREATH_TASK = 2

FRAME_PATTERN = "frame_%06d.ppm"

# Rec.601 luma weights; the capture pipeline's grayscale convention.
LUMA_R, LUMA_G, LUMA_B = 0.299, 0.587, 0.114


class FormatError(ValueError):
    """A file failed to parse against its documented format."""


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
    try:
        fps = float(header["fps"])
        width = int(header["width"])
        height = int(header["height"])
    except KeyError as missing:
        raise FormatError(f"{path}: manifest header missing {missing}") from None
    except ValueError:
        raise FormatError(f"{path}: non-numeric manifest header value") from None
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
    instead of the whole recording.
    """
    frames = np.empty((frame_count, manifest.height, manifest.width, 3), dtype=np.uint8)
    prefix = os.path.join(dataset_dir, "")
    for i in range(frame_count):
        p = prefix + FRAME_PATTERN % (start_frame + i)
        frame = read_ppm(p)
        if frame.shape != (manifest.height, manifest.width, 3):
            raise FormatError(
                f"{p}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                f"manifest declares {manifest.width}x{manifest.height}")
        frames[i] = frame
    return VideoClip(frames, manifest.fps)


def read_ppm_sequence(manifest_path):
    """Load every trial's frames, in manifest order, as one VideoClip."""
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    if not manifest.entries:
        raise FormatError(f"{manifest_path}: manifest lists no trials")
    parts = [read_frame_range(manifest_path.parent, manifest, e.start_frame, e.frame_count).frames
             for e in manifest.entries]
    return VideoClip(np.concatenate(parts, axis=0), manifest.fps)


# ------------------------- raw RGB24 -------------------------

def read_raw_rgb(path, width, height, fps):
    """Read a packed RGB24 file (row-major, top-left origin) as a clip."""
    if width <= 0 or height <= 0:
        raise ValueError("dimensions must be positive")
    size = os.path.getsize(path)
    frame_bytes = width * height * 3
    if size == 0 or size % frame_bytes != 0:
        raise FormatError(f"{path}: size {size} is not a positive multiple of {frame_bytes}")
    data = np.fromfile(path, dtype=np.uint8)
    return VideoClip(data.reshape(size // frame_bytes, height, width, 3), fps)


def write_raw_rgb(path, clip):
    if clip.frames.dtype != np.uint8:
        raise ValueError("raw RGB24 requires uint8 frames")
    clip.frames.tofile(path)


# ------------------------- pixel operations -------------------------

def check_crop(width, height, left, right, top, bottom):
    """Raise ValueError unless the margins leave pixels in a width x height frame."""
    if min(left, right, top, bottom) < 0:
        raise ValueError("crop margins must be non-negative")
    if left + right >= width or top + bottom >= height:
        raise ValueError(
            f"crop ({left},{right},{top},{bottom}) exceeds {width}x{height} frame")


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

    Yields (first frame index, box, pixels) in frame order, one block per
    run of consecutive equal boxes, cut every _ROI_BLOCK_FRAMES frames.
    `pixels` is the (frames, box pixels, 3) array of the box in each frame
    of the block, in the clip's dtype.
    """
    n = len(rois)
    start = 0
    while start < n:
        box = rois[start]
        stop = start + 1
        limit = min(n, start + _ROI_BLOCK_FRAMES)
        while stop < limit and rois[stop] == box:
            stop += 1
        block = clip.frames[start:stop, box.y:box.y + box.h, box.x:box.x + box.w, :]
        yield start, box, block.reshape(stop - start, block.shape[1] * block.shape[2], 3)
        start = stop


def to_grayscale(clip):
    """Rec.601 grayscale: round(0.299 R + 0.587 G + 0.114 B) as uint8.
    Accepts a VideoClip or any (..., 3) RGB array."""
    pixels = clip.frames if isinstance(clip, VideoClip) else np.asarray(clip)
    f = pixels.astype(np.float64)
    gray = LUMA_R * f[..., 0] + LUMA_G * f[..., 1] + LUMA_B * f[..., 2]
    return np.clip(np.rint(gray), 0, 255).astype(np.uint8)


# ------------------------- physio CSV -------------------------

PHYSIO_HEADER = ["t", "ecg", "resp", "trigger"]
_T_TOLERANCE = 1e-6  # seconds


def load_physio_csv(path):
    """Parse `t,ecg,resp,trigger` CSV; the sample rate is inferred from the
    (strictly uniform) time column."""
    with open(path, "r", newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if header != PHYSIO_HEADER:
            raise FormatError(f"{path}: header {header} != {PHYSIO_HEADER}")
        t, ecg, resp, trig = [], [], [], []
        for lineno, row in enumerate(reader, 2):
            if len(row) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 columns")
            try:
                t.append(float(row[0]))
                ecg.append(float(row[1]))
                resp.append(float(row[2]))
                trig.append(int(row[3]))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric cell") from None
    if len(t) < 2:
        raise FormatError(f"{path}: need at least 2 samples to infer a rate")
    t = np.array(t)
    dt = t[1] - t[0]
    if dt <= 0:
        raise FormatError(f"{path}: time column not increasing")
    if np.max(np.abs(np.diff(t) - dt)) > _T_TOLERANCE:
        raise FormatError(f"{path}: non-uniform timestamps (tolerance {_T_TOLERANCE} s)")
    rate = 1.0 / dt
    return PhysioRecord(sample_rate=rate,
                        ecg=TimeSeries(ecg, rate),
                        resp=TimeSeries(resp, rate),
                        trigger=np.array(trig, dtype=np.int64))


def write_physio_csv(path, record):
    n = len(record.ecg)
    dt = 1.0 / record.sample_rate
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(PHYSIO_HEADER)
        for i in range(n):
            w.writerow([format_number(i * dt),
                        format_number(record.ecg.samples[i]),
                        format_number(record.resp.samples[i]),
                        int(record.trigger[i])])


def format_number(x):
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))
