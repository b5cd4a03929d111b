"""On-disk formats: a dataset's frames as one stream of P6 PPM records of
one fixed size, the plain-text trial manifest, the physio CSV
(t,ecg,resp,trigger), and the CSV dialect that it shares with truth.csv and
the result files.

`cli` imports this module at start-up, and `evaluate` runs only its CSV
dialect, so each function that builds or reads arrays imports numpy where
it runs: neither loads numpy.
"""

import contextlib
import csv
import io
import math
import os
import pickle
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from .geometry import validate_rect
from .series import TimeSeries

CONDITIONS = ("respiration", "workout", "gaze")
HOLD_BREATH_TASK = 2

# a dataset directory: one global frame sequence, the manifest, the physio CSV
FRAMES_FILE = "frames.ppm"
MANIFEST_FILE = "manifest.txt"
PHYSIO_FILE = "physio.csv"

# Rec.601 luma weights; the capture pipeline's grayscale convention.
LUMA_R, LUMA_G, LUMA_B = 0.299, 0.587, 0.114


class FormatError(ValueError):
    """A file failed to parse against its documented format. A reader
    raises FormatError(message), or FormatError(message, line) for one line
    of the file, inside `named`, which words it with the file's name."""


@contextlib.contextmanager
def named(source, line=None):
    """Raise a ValueError from the block as a FormatError worded
    `<source>: <message>`, or `<source>:<line>: <message>` where the error
    (a FormatError(message, line)) or the call gives a line; with source
    None, as it is. A UnicodeDecodeError, of a file read as ASCII, is
    worded `not ASCII text (byte 0x..)`, with no line. `source` is the file
    of the setting or data that the error concerns: readers raise bare
    messages and leave its name to this. Blocks do not nest: an outer
    block would word the error again."""
    try:
        yield
    except ValueError as e:
        if source is None:
            raise
        message = e
        if isinstance(e, UnicodeDecodeError):
            # the decoder reads in chunks, so it cannot say on which line
            message, line = f"not ASCII text (byte 0x{e.object[e.start]:02x})", None
        elif isinstance(e, FormatError) and len(e.args) == 2:
            message, line = e.args
        where = source if line is None else f"{source}:{line}"
        raise FormatError(f"{where}: {message}") from None


@dataclass
class VideoClip:
    """Frame stack (T, H, W, 3) of uint8 RGB with a fixed frame rate: the
    8-bit frames a webcam, a frames.ppm stream and synth_clip all give."""

    frames: "np.ndarray"
    fps: float

    def __post_init__(self):
        import numpy as np

        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 4 or self.frames.shape[3] != 3:
            raise ValueError(f"frames must have shape (T, H, W, 3), got {self.frames.shape}")
        if self.frames.shape[0] < 1:
            raise ValueError("clip must contain at least one frame")
        if not (self.fps > 0):
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.frames.dtype != np.uint8:
            raise ValueError(f"frames must be uint8, got {self.frames.dtype}")
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


@dataclass
class PhysioRecord:
    """Synchronized physiological channels at one sample rate."""

    sample_rate: float
    ecg: TimeSeries
    resp: TimeSeries
    trigger: "np.ndarray"

    def __post_init__(self):
        import numpy as np

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
        if not math.isfinite(self.fps):
            raise ValueError("manifest fps must be finite")
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


# ------------------------- trials in worker processes -------------------------

def worker_count():
    """The most processes in_order spreads entries over: min(4, CPUs this
    process may run on), or 1 where it cannot tell (off Linux)."""
    return min(4, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1


def in_order(fn, entries, own_share=False):
    """Yield fn(entry) for each of `entries`, each with a `trial_id`, in order.

    The calls fall into w = min(worker_count(), entries) shares: share k
    holds entries k, k + w, .... With own_share, or where this process may
    run on just one CPU (or cannot tell, off Linux), this process computes
    share 0 between reading the others' results, and forks w - 1 workers;
    otherwise it forks w. Each worker sends each result, or the exception
    that stops it, through its own pipe as one pickle after another. The
    workers inherit `fn` with everything it reads; only results and
    exceptions cross, and must pickle. An exception is raised here at its
    entry's place; a worker that ends without its result raises
    ChildProcessError naming the trial. However the generator ends, every
    worker is killed and reaped.
    """
    import signal

    entries = list(entries)
    most = worker_count()
    # on one CPU, share 0 is every entry
    own_share = own_share or most <= 1
    shares = min(most, len(entries))
    # a worker that flushes a stream must not write again what this
    # process had buffered before the fork
    sys.stdout.flush()
    sys.stderr.flush()
    # by share; None for the share this process computes
    pipes, running = [None] * shares, [None] * shares
    try:
        for k in range(1 if own_share else 0, shares):
            r, w = os.pipe()
            pipes[k] = open(r, "rb")
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, entries[k::shares], w)
            finally:
                # in this process only: a worker never returns from _work.
                # Closed before the next fork, so a dead worker reads as EOF
                os.close(w)
            running[k] = pid
        for i, entry in enumerate(entries):
            k = i % shares
            if pipes[k] is None:
                yield fn(entry)
                continue
            try:
                ok, value = pickle.load(pipes[k])
            except (EOFError, pickle.UnpicklingError):
                # the pipe ended before, or part-way through, the pickle
                code = os.waitstatus_to_exitcode(os.waitpid(running[k], 0)[1])
                running[k] = None
                raise ChildProcessError(
                    f"trial {entry.trial_id}: worker process ended without its result "
                    f"({f'signal {-code}' if code < 0 else f'exit status {code}'})") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid in running:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            if pipe is not None:
                pipe.close()


def _work(fn, entries, fd):
    """A worker process of in_order: send (True, fn(entry)) for each entry
    to the pipe `fd`, or (False, the exception) and stop. Never returns."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            for entry in entries:
                try:
                    outcome = True, fn(entry)
                    message = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                except BaseException as e:
                    outcome = False, e
                    message = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                pipe.write(message)
                pipe.flush()
                if not outcome[0]:
                    break
        code = 0
    finally:
        os._exit(code)


# ------------------------- PPM frames -------------------------

def ppm_header(width, height):
    """The header write_ppm writes before each width x height frame: the
    only record header a frames.ppm stream may carry."""
    return b"P6\n%d %d\n255\n" % (width, height)


def write_ppm(target, frames):
    """Write an (H, W, 3) uint8 frame, or each frame of an (N, H, W, 3)
    stack in order, as binary P6 PPM records of maxval 255, each with its
    own ppm_header. `target` is a path, which is overwritten, or a binary
    file open for writing, which gets the records appended."""
    import numpy as np

    frames = np.asarray(frames)
    if frames.dtype != np.uint8 or frames.ndim not in (3, 4) or frames.shape[-1] != 3:
        raise ValueError("frames must be (H, W, 3) or (N, H, W, 3) uint8")
    frames = np.ascontiguousarray(frames.reshape(-1, *frames.shape[-3:]))
    header = ppm_header(frames.shape[2], frames.shape[1])
    opened = contextlib.nullcontext(target) if hasattr(target, "write") else open(target, "wb")
    with opened as f:
        for frame in frames:
            f.write(header)
            f.write(frame)


def parse_manifest(path):
    """Parse the dataset manifest.

    Format: `key=value` header lines (fps, width, height), then one line
    per trial with whitespace-separated fields
    `trial_id condition task_id start_frame frame_count trigger_code`.
    Blank lines and lines starting with '#' are ignored.
    """
    header = {}
    entries = []
    with named(path):
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
                    raise FormatError(f"expected 6 trial fields, got {len(parts)}", lineno)
                try:
                    entries.append(TrialEntry(
                        trial_id=int(parts[0]), condition=parts[1], task_id=int(parts[2]),
                        start_frame=int(parts[3]), frame_count=int(parts[4]),
                        trigger_code=int(parts[5])))
                except ValueError:
                    raise FormatError("non-numeric trial field", lineno) from None
        try:
            fps = float(header["fps"])
            width = int(header["width"])
            height = int(header["height"])
        except KeyError as missing:
            raise FormatError(f"manifest header missing {missing}") from None
        except ValueError:
            raise FormatError("non-numeric manifest header value") from None
        if not entries:
            raise FormatError("no trials")
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


def _frames_file(dataset_dir, manifest):
    """(path of frames.ppm, record header, record size) of a dataset."""
    header = ppm_header(manifest.width, manifest.height)
    record = len(header) + manifest.width * manifest.height * 3
    return os.path.join(dataset_dir, FRAMES_FILE), header, record


def _frame_error(frame, record, problem):
    return FormatError(f"frame {frame} (byte {frame * record}): {problem}")


def _cut_short(frame, record, have):
    """The FormatError of a frame of which the file holds `have` bytes."""
    return _frame_error(frame, record, (
        f"truncated record, {have} of {record} bytes" if have else
        f"past the end of the file, expected a {record}-byte record"))


def check_frames_file(dataset_dir, manifest):
    """Raise FormatError unless frames.ppm is whole records of the manifest's
    size up to at least the end of its last frame. A record cut out of the
    middle shifts every later frame under headers that still match, which
    read_frame_range alone sees only at the end of the stream."""
    path, _, record = _frames_file(dataset_dir, manifest)
    with named(path):
        try:
            size = os.stat(path).st_size
        except OSError as e:
            raise _frame_error(0, record, f"cannot read ({e.strerror})") from None
        whole, have = divmod(size, record)
        if have or whole < max(e.start_frame + e.frame_count for e in manifest.entries):
            raise _cut_short(whole, record, have)


def read_frame_range(dataset_dir, manifest, start_frame, frame_count):
    """Load a contiguous frame range of a dataset as a VideoClip.

    This is the streaming unit: callers load one trial's range at a time
    instead of the whole recording. Every record of frames.ppm is the
    ppm_header of the manifest's size and the frame's pixels, so frame i
    starts at byte i * record size. The range is read with one seek into
    one buffer of its records; one comparison checks every record header,
    and the clip is a view of the pixels. A record that is short, missing
    or headed otherwise raises FormatError naming the file, the frame
    index and its byte offset.
    """
    import numpy as np

    w, h = manifest.width, manifest.height
    path, header, record = _frames_file(dataset_dir, manifest)
    records = np.empty((frame_count, record), dtype=np.uint8)
    flat = records.reshape(-1)

    got = 0
    with named(path):
        try:
            with open(path, "rb", buffering=0) as f:
                f.seek(start_frame * record)
                while got < flat.size:
                    n = f.readinto(flat[got:])
                    if not n:
                        break
                    got += n
        except OSError as e:
            raise _frame_error(start_frame + got // record, record,
                               f"cannot read ({e.strerror})") from None
        whole, have = divmod(got, record)
        heads = records[:, :len(header)]
        # a bytes comparison: a first numpy comparison and reduction in the
        # process would raise estimate's peak RSS by a quarter of a megabyte
        if whole < frame_count or heads.tobytes() != header * frame_count:
            # the first bad record, or the one the file cuts short, and the
            # header bytes read of it
            i = next((i for i in range(whole) if heads[i].tobytes() != header), whole)
            head = heads[i, :have if i == whole else None].tobytes()
            if not header.startswith(head):
                raise _frame_error(start_frame + i, record, f"record header {head!r}, "
                                   f"expected {header!r} for the manifest's {w}x{h}")
            raise _cut_short(start_frame + i, record, have)
    return VideoClip(records[:, len(header):].reshape(frame_count, h, w, 3), manifest.fps)


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


# A block of _roi_blocks, one array expression of the ROI traces, ends at
# _ROI_BLOCK_FRAMES frames, or sooner where its float64 (frames, box
# pixels, 3) copy, the largest temporary of _unit_means, would pass
# _ROI_BLOCK_BYTES. `estimate --roi` of a 10 s 640x480 trial, whose
# 153,600-pixel chest box takes one frame a block at 4 MiB, peaked at
# 314 MB, against 300 MB (and 0.3 s slower) at 1 MiB, 359 MB at 16 MiB and
# 456 MB under the frame cap alone. The frame cap stays for small boxes:
# without it, the benchmark's 270-frame cascade-face trial took each face
# box in one block and `estimate` peaked at 35.1 MB instead of 34.1 MB.
_ROI_BLOCK_FRAMES = 64
_ROI_BLOCK_BYTES = 1 << 22


def _roi_blocks(clip, rois):
    """Split a clip's per-frame ROIs into blocks of frames that share one box.

    Yields (first frame index, pixels) in frame order, one block per
    run of consecutive equal boxes, cut every _ROI_BLOCK_FRAMES frames or
    sooner, where a float64 copy of the block's pixels would pass
    _ROI_BLOCK_BYTES (never below one frame).
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
        frames = min(_ROI_BLOCK_FRAMES, max(1, _ROI_BLOCK_BYTES // (box.w * box.h * 24)))
        limit = min(n, start + frames)
        while stop < limit and rois[stop] == box:
            stop += 1
        block = clip.frames[start:stop, box.y:box.y + box.h, box.x:box.x + box.w, :]
        yield start, block.reshape(stop - start, block.shape[1] * block.shape[2], 3)
        start = stop


def to_grayscale(clip):
    """Rec.601 grayscale: round(0.299 R + 0.587 G + 0.114 B) as uint8.
    Accepts a VideoClip or any (..., 3) RGB array."""
    import numpy as np

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
# shortest round-trip form and an empty cell for a missing value. Every
# error names the file and line.

def format_number(x):
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def write_csv(path, header, rows):
    """Write `header` and `rows` to `path` in this dialect: csv writes None
    as an empty cell, and a float or numpy float64 as str(), which is
    format_number's text."""
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def read_csv(path, header):
    """Yield (line number, row) for each row of a CSV written under
    `header`, after checking the header and the row's cell count."""
    with named(path), open(path, "r", newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        try:
            got = next(reader, None)
            if got != header:
                raise FormatError(f"expected header {header}, got {got}", 1)
            n = len(header)
            for row in reader:
                if len(row) != n:
                    raise FormatError(f"expected {n} cells, got {len(row)}", reader.line_num)
                yield reader.line_num, row
        except csv.Error as e:
            raise FormatError(str(e), reader.line_num) from None


def _parse_cell(convert, cell, column):
    try:
        return convert(cell)
    except ValueError:
        raise FormatError(f"{column} {cell!r} is not a number") from None


def _finite_float(cell):
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"non-finite {x}")
    return x


def _optional_float(cell):
    return None if cell == "" else _finite_float(cell)


def _parse_row(converters, row, header):
    return [_parse_cell(c, cell, column)
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
# the bytes write_physio_csv writes: "\n" and printable ASCII
_PHYSIO_BYTES = b"\n" + bytes(range(0x20, 0x7f))


def _physio_columns(data):
    """The t, ecg, resp and trigger columns of physio.csv's bytes, through
    one np.loadtxt; None unless read_csv would return the same rows and
    every cell converts to a finite float (an int64 trigger). In a file of
    "\n" and printable ASCII without quotes, a csv row is the line split
    at its commas, and loadtxt converts a cell as float() and int() do or
    refuses it. Any other byte takes the row reader: loadtxt strips the
    bytes 0x1c to 0x1f around a cell, where float() and int() refuse them.
    csv reads \r\n as one line end, so \r\n lines are read as \n lines."""
    import numpy as np

    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not (data.startswith(_PHYSIO_HEAD) and data.endswith(b"\n")):
        return None
    if data.translate(None, _PHYSIO_BYTES) or b'"' in data:
        return None
    dtype = np.dtype({"names": PHYSIO_HEADER, "formats": ["f8", "f8", "f8", "i8"]})
    # a warning refuses the file too: loadtxt warns on a file without rows,
    # and some numpy versions read an integer cell such as 1.0 through
    # float, with a DeprecationWarning, where int() refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
        except (ValueError, Warning):
            return None
    # loadtxt skips a blank line, which csv reads as a row of no cells
    if len(rows) != data.count(b"\n") - 1:
        return None
    # contiguous columns, as the row reader gives, not strided field views
    columns = [rows[name].copy() for name in PHYSIO_HEADER]
    if not all(np.isfinite(c).all() for c in columns[:3]):
        return None
    return columns


def _checked_physio_columns(path):
    """The columns of physio.csv, row by row through read_csv; the first
    cell that is not a finite number (an int64 trigger) raises FormatError
    naming its line and column."""
    import numpy as np

    rows = []
    for line, row in read_csv(path, PHYSIO_HEADER):
        with named(path, line):
            rows.append(_parse_row(_PHYSIO_TYPES, row, PHYSIO_HEADER))
    t, ecg, resp, trig = zip(*rows) if rows else [()] * 4
    return (*(np.array(c, dtype=np.float64) for c in (t, ecg, resp)),
            np.array(trig, dtype=np.int64))


def load_physio_csv(path):
    """Parse `t,ecg,resp,trigger` CSV; the sample rate is inferred from the
    (strictly uniform) time column. A file np.loadtxt cannot vouch for is
    read again row by row, which names what is wrong with it."""
    import numpy as np

    with open(path, "rb") as f:
        columns = _physio_columns(f.read())
    t, ecg, resp, trig = columns or _checked_physio_columns(path)
    with named(path):
        if len(t) < 2:
            raise FormatError("need at least 2 samples to infer a rate")
        dt = t[1] - t[0]
        if dt <= 0:
            raise FormatError("time column not increasing")
        if np.max(np.abs(np.diff(t) - dt)) > _T_TOLERANCE:
            raise FormatError(f"non-uniform timestamps (tolerance {_T_TOLERANCE} s)")
    rate = 1.0 / dt
    return PhysioRecord(sample_rate=rate,
                        ecg=TimeSeries(ecg, rate),
                        resp=TimeSeries(resp, rate),
                        trigger=trig)


def write_physio_csv(f, record, start):
    """Append the rows of `record` to physio.csv open for writing as `f`,
    the first at global sample `start`, after the header when `start` is 0:
    t of global sample i is i * (1 / sample_rate). A row is the text
    write_csv gives it, floats as repr and the trigger as str."""
    dt = 1.0 / record.sample_rate
    if start == 0:
        f.write(_PHYSIO_HEAD.decode("ascii"))
    f.writelines(map("{!r},{!r},{!r},{}\n".format,
                     [i * dt for i in range(start, start + len(record.ecg))],
                     record.ecg.samples.tolist(), record.resp.samples.tolist(),
                     record.trigger.tolist()))
