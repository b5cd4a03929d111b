"""Readers of files the package writes but never reads back, and the
reference parser of the PPM records it reads with a faster method: the
tests use them to check those files and that reader."""

import re

import numpy as np

from camvitals.evaluation import TRIALS_HEADER, TrialRecord, _read_results_csv
from camvitals.geometry import Rect
from camvitals.ingest import FormatError, _finite_float, _parse_row, named, read_csv
from camvitals.synth import TRUTH_HEADER, SynthTruth

_TRUTH_TYPES = (int, _finite_float, _finite_float, int, int, int, int, _finite_float)


def read_trials_csv(path):
    """Parse trials.csv back into its list of TrialRecords."""
    # the number columns follow TrialRecord's field order
    return [TrialRecord(trial_id, condition, task, *numbers, flags=flags)
            for trial_id, (_, condition, task, numbers, flags)
            in _read_results_csv(path, TRIALS_HEADER).items()]


def read_truth_csv(path):
    """Parse truth.csv back into a {trial_id: SynthTruth} mapping."""
    out = {}
    for line, row in read_csv(path, TRUTH_HEADER):
        with named(path, line):
            tid, hr, rr, x, y, w, h, gray = _parse_row(_TRUTH_TYPES, row, TRUTH_HEADER)
        out[tid] = SynthTruth(hr_bpm=hr, rr_brpm=rr, face_box=Rect(x, y, w, h),
                              mean_face_gray=gray)
    return out


# ------------------------- PPM -------------------------

_SEPARATORS = re.compile(rb"(?:\s|#[^\n]*\n?)*")
_TOKEN = re.compile(rb"[^\s#]+")
# ends the last header token: one whitespace byte, or a comment and its newline
_HEADER_END = re.compile(rb"\s|#[^\n]*\n?")


def _parse_ppm_header(buf, pos):
    """(magic, width, height, maxval tokens, offset of the pixel data) of
    the image that starts at `pos`.

    Header tokens may be separated by any whitespace and '#' comments."""
    tokens = []
    while len(tokens) < 4:
        tok = _TOKEN.match(buf, _SEPARATORS.match(buf, pos).end())
        if tok is None:
            raise FormatError("truncated PPM header")
        tokens.append(tok.group())
        pos = tok.end()
    end = _HEADER_END.match(buf, pos)
    return (*tokens, end.end() if end else pos)


def _parse_ppm(buf, pos):
    """(the (H, W, 3) uint8 image of the binary P6 PPM that starts at
    `pos` of `buf`, the offset just past its pixels)."""
    magic, w_tok, h_tok, maxval_tok, offset = _parse_ppm_header(buf, pos)
    if magic != b"P6":
        raise FormatError(f"not a binary P6 PPM (magic {magic!r})")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise FormatError("malformed PPM header") from None
    if maxval != 255:
        raise FormatError(f"maxval {maxval} unsupported (need 255)")
    if width <= 0 or height <= 0:
        raise FormatError("non-positive dimensions")
    size = width * height * 3
    if len(buf) - offset < size:
        raise FormatError("truncated pixel data")
    frame = np.frombuffer(buf, dtype=np.uint8, count=size, offset=offset)
    return frame.reshape(height, width, 3), offset + size


def read_ppm(path):
    """Read the first image of a binary (P6) PPM file into an (H, W, 3)
    uint8 array."""
    with open(path, "rb") as f, named(path):
        return _parse_ppm(f.read(), 0)[0]


def read_ppm_stream(path):
    """Every image of a file of concatenated P6 PPMs, parsed one after
    another, as a list of (H, W, 3) uint8 arrays."""
    with open(path, "rb") as f:
        buf = f.read()
    frames, pos = [], 0
    with named(path):
        while pos < len(buf):
            frame, pos = _parse_ppm(buf, pos)
            frames.append(frame)
    return frames
