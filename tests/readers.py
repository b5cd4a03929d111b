"""Readers of files the package writes but never reads back: the tests
use them to check those files."""

from camvitals.evaluation import TRIALS_HEADER, TrialRecord, _read_results_csv
from camvitals.geometry import Rect
from camvitals.ingest import _finite_float, _parse_row, read_csv
from camvitals.synth import TRUTH_HEADER, SynthTruth

_TRUTH_TYPES = (int, _finite_float, _finite_float, int, int, int, int, _finite_float)


def read_trials_csv(path):
    """Parse trials.csv back into its list of TrialRecords."""
    # the number columns follow TrialRecord's field order
    return [TrialRecord(trial_id, condition, task, *numbers, flags=flags)
            for _, trial_id, condition, task, numbers, flags
            in _read_results_csv(path, TRIALS_HEADER)]


def read_truth_csv(path):
    """Parse truth.csv back into a {trial_id: SynthTruth} mapping."""
    out = {}
    for line, row in read_csv(path, TRUTH_HEADER):
        tid, hr, rr, x, y, w, h, gray = _parse_row(_TRUTH_TYPES, row, TRUTH_HEADER,
                                                   f"{path}:{line}")
        out[tid] = SynthTruth(hr_bpm=hr, rr_brpm=rr, face_box=Rect(x, y, w, h),
                              mean_face_gray=gray)
    return out
