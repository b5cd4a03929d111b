"""Scoring and reporting: trial records, RMSE and boxplot summaries per
condition, the skin-brightness error regression, and deterministic SVG
figures. All numbers in CSVs use shortest round-trip formatting so a
re-parse reproduces the records bit for bit."""

import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ingest import (FormatError, _optional_float, _parse_row, _roi_blocks, read_csv,
                     to_grayscale, write_csv)

FLAGS = frozenset({"out_of_band", "hold_breath_excluded", "roi_failure", "too_short"})

# result CSVs: trial_id, condition, task, optional numbers, then flags
EST_HEADER = ["trial_id", "condition", "task", "hr_est", "rr_est",
              "skin_gray", "flags"]
GT_HEADER = ["trial_id", "condition", "task", "hr_gt", "rr_gt", "flags"]
TRIALS_HEADER = ["trial_id", "condition", "task", "hr_est", "hr_gt",
                 "rr_est", "rr_gt", "skin_gray", "flags"]
SUMMARY_HEADER = ["kind", "signal", "condition", "n", "rmse", "median", "q1",
                  "q3", "whisker_lo", "whisker_hi", "n_outliers", "slope",
                  "intercept", "ci95_slope", "ci95_intercept"]


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    condition: str
    task_id: int
    hr_est: float | None = None
    hr_gt: float | None = None
    rr_est: float | None = None
    rr_gt: float | None = None
    skin_gray: float | None = None
    flags: frozenset = frozenset()

    def __post_init__(self):
        bad = set(self.flags) - FLAGS
        if bad:
            raise ValueError(f"unknown flags {sorted(bad)}")
        object.__setattr__(self, "flags", frozenset(self.flags))
        has_hr = self.hr_est is not None and self.hr_gt is not None
        has_rr = self.rr_est is not None and self.rr_gt is not None
        if not (has_hr or has_rr or self.flags):
            raise ValueError(
                f"trial {self.trial_id}: no complete estimate/truth pair and no flags")
        if self.skin_gray is not None and not (0 <= self.skin_gray <= 255):
            raise ValueError(f"skin_gray {self.skin_gray} outside [0, 255]")


@dataclass(frozen=True)
class BoxplotStats:
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple


@dataclass(frozen=True)
class ConditionSummary:
    signal: str
    condition: str
    abs_errors: tuple
    rmse: float
    stats: BoxplotStats

    @property
    def n(self):
        return len(self.abs_errors)


@dataclass
class EvaluationReport:
    hr_summaries: list
    rr_summaries: list
    skin_points: list = field(default_factory=list)   # (gray, abs hr error)
    skin_fit: tuple | None = None                     # linear_fit output


def segment_trials(physio, manifest):
    """Align manifest trials with the physio channels via trigger codes.

    Returns one (start_sample, end_sample) pair per manifest entry. Each
    trigger code must occur exactly once.
    """
    pairs = []
    for entry in manifest.entries:
        hits = np.flatnonzero(physio.trigger == entry.trigger_code)
        if hits.size == 0:
            raise ValueError(f"trigger code {entry.trigger_code} not found")
        if hits.size > 1:
            raise ValueError(
                f"trigger code {entry.trigger_code} occurs {hits.size} times")
        s0 = int(hits[0])
        n = int(round(entry.frame_count / manifest.fps * physio.sample_rate))
        if s0 + n > len(physio.trigger):
            raise ValueError(
                f"trial {entry.trial_id}: physio record ends before trial does")
        pairs.append((s0, s0 + n))
    return pairs


def rmse(pairs):
    if not pairs:
        raise ValueError("rmse of an empty pair list")
    diffs = np.array([est - truth for est, truth in pairs], dtype=np.float64)
    return float(np.sqrt(np.mean(diffs ** 2)))


def skin_tone_gray(clip, rois):
    """Mean gray level over the face pixels of every frame.

    `rois` holds one Rect per frame. Uses the same rounded Rec.601
    conversion as the rest of the pipeline, weighting every pixel equally,
    so concatenated clips average by pixel count.
    """
    total = 0.0
    count = 0
    for _, block in _roi_blocks(clip, rois):
        gray = to_grayscale(block)
        # integer sums: exact in any grouping of frames
        total += float(gray.sum())
        count += gray.size
    return total / count


def _ols(x, y):
    """(slope, intercept, xbar, sxx, s2, tcrit) of the OLS fit of float
    arrays: s2 and the 97.5% t quantile tcrit are on n-2 degrees of freedom."""
    # scipy.special, not scipy.stats: the same quantile (t.ppf calls
    # stdtrit) at under half the import cost
    from scipy.special import stdtrit

    n = len(x)
    xbar, ybar = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are all equal; fit is degenerate")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (slope * x + intercept)
    s2 = float(np.sum(resid ** 2)) / (n - 2)
    tcrit = float(stdtrit(n - 2, 0.975))
    return slope, intercept, xbar, sxx, s2, tcrit


def linear_fit(x, y):
    """OLS fit y = slope*x + intercept with 95% CI half-widths from the
    t-distribution on n-2 degrees of freedom."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 3 or len(y) != n:
        raise ValueError("need at least 3 (x, y) points")
    slope, intercept, xbar, sxx, s2, tcrit = _ols(x, y)
    ci_slope = tcrit * np.sqrt(s2 / sxx)
    ci_intercept = tcrit * np.sqrt(s2 * (1.0 / n + xbar ** 2 / sxx))
    return slope, intercept, float(ci_slope), float(ci_intercept)


def boxplot_stats(values):
    """Median/quartiles (linear interpolation) plus whiskers at the most
    extreme points within 1.5 IQR of the quartiles; the rest are outliers."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("boxplot of an empty list")
    median = float(statistics.median(vals))
    q1, q3 = (float(q) for q in np.percentile(vals, [25.0, 75.0]))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [v for v in vals if lo_fence <= v <= hi_fence]
    # quartiles are interpolated, so they always bracket at least one point
    whisker_lo, whisker_hi = inside[0], inside[-1]
    outliers = tuple(v for v in vals if v < lo_fence or v > hi_fence)
    return BoxplotStats(median, q1, q3, whisker_lo, whisker_hi, outliers)


def _scored_pairs(records, signal):
    """(est, truth) abs-error inputs for one signal, honoring flag semantics:
    roi_failure drops the trial entirely, hold_breath_excluded drops it from
    RR scoring, out_of_band is informational only."""
    out = []
    for r in records:
        if "roi_failure" in r.flags:
            continue
        if signal == "hr":
            est, gt = r.hr_est, r.hr_gt
        else:
            if "hold_breath_excluded" in r.flags:
                continue
            est, gt = r.rr_est, r.rr_gt
        if est is not None and gt is not None:
            out.append((r, est, gt))
    return out


def _condition_order(records):
    seen = []
    for r in records:
        if r.condition not in seen:
            seen.append(r.condition)
    return seen


def build_report(records):
    """Aggregate TrialRecords into per-condition summaries and the
    skin-brightness regression over absolute HR errors."""
    if not records:
        raise ValueError("no trial records to evaluate")
    report = EvaluationReport(hr_summaries=[], rr_summaries=[])
    scored = {signal: _scored_pairs(records, signal) for signal in ("hr", "rr")}
    for signal, summaries in (("hr", report.hr_summaries),
                              ("rr", report.rr_summaries)):
        for condition in _condition_order(records):
            sub = [(e, g) for r, e, g in scored[signal] if r.condition == condition]
            if not sub:
                continue
            errs = tuple(abs(e - g) for e, g in sub)
            summaries.append(ConditionSummary(
                signal=signal, condition=condition, abs_errors=errs,
                rmse=rmse(sub), stats=boxplot_stats(errs)))
    for r, est, gt in scored["hr"]:
        if r.skin_gray is not None:
            report.skin_points.append((r.skin_gray, abs(est - gt)))
    xs = [p[0] for p in report.skin_points]
    if len(report.skin_points) >= 3 and len(set(xs)) > 1:
        report.skin_fit = linear_fit(xs, [p[1] for p in report.skin_points])
    return report


# ------------------------- CSV round trip -------------------------

def _read_results_csv(path, header):
    """Rows of a result CSV written under `header`, as ("path:line",
    trial_id, condition, task, numbers, flags)."""
    types = (int, str, int) + (_optional_float,) * (len(header) - 4)
    rows = []
    for line, row in read_csv(path, header):
        where = f"{path}:{line}"
        trial_id, condition, task, *numbers = _parse_row(types, row[:-1], header, where)
        flags = frozenset(row[-1].split(";")) if row[-1] else frozenset()
        if flags - FLAGS:
            raise FormatError(f"{where}: unknown flags {sorted(flags - FLAGS)}")
        rows.append((where, trial_id, condition, task, numbers, flags))
    return rows


def _by_trial_id(rows):
    """{trial_id: (where, *rest)} of _read_results_csv rows, in file order."""
    out = {}
    for where, trial_id, *rest in rows:
        if trial_id in out:
            raise FormatError(f"{where}: duplicate trial_id {trial_id}")
        out[trial_id] = (where, *rest)
    return out


def join_results(est_path, gt_path):
    """One TrialRecord per trial of an est.csv and a gt.csv, in est.csv
    order. Both files must list the same trials, once each, with the same
    condition and task."""
    est_by_id = _by_trial_id(_read_results_csv(est_path, EST_HEADER))
    gt_by_id = _by_trial_id(_read_results_csv(gt_path, GT_HEADER))
    records = []
    for trial_id, (where, condition, task, (hr_est, rr_est, skin_gray), flags) \
            in est_by_id.items():
        gt = gt_by_id.pop(trial_id, None)
        if gt is None:
            raise FormatError(f"{where}: trial_id {trial_id} present in estimates only")
        _, gt_condition, gt_task, (hr_gt, rr_gt), gt_flags = gt
        if (condition, task) != (gt_condition, gt_task):
            raise FormatError(
                f"{where}: trial_id {trial_id}: condition/task mismatch between files "
                f"({condition}/{task} vs {gt_condition}/{gt_task})")
        try:
            records.append(TrialRecord(
                trial_id, condition, task, hr_est=hr_est, hr_gt=hr_gt, rr_est=rr_est,
                rr_gt=rr_gt, skin_gray=skin_gray, flags=flags | gt_flags))
        except ValueError as e:
            raise FormatError(f"{where}: {e}") from None
    if gt_by_id:
        raise FormatError(f"{gt_path}: trial_id {min(gt_by_id)} present in ground truth only")
    return records


def write_trials_csv(path, records):
    write_csv(path, TRIALS_HEADER, [
        (r.trial_id, r.condition, r.task_id, r.hr_est, r.hr_gt, r.rr_est,
         r.rr_gt, r.skin_gray, r.flags) for r in records])


def read_trials_csv(path):
    # the number columns follow TrialRecord's field order
    return [TrialRecord(trial_id, condition, task, *numbers, flags=flags)
            for _, trial_id, condition, task, numbers, flags
            in _read_results_csv(path, TRIALS_HEADER)]


def write_summary_csv(path, report):
    rows = []
    for summ in report.hr_summaries + report.rr_summaries:
        st = summ.stats
        rows.append(["condition_stats", summ.signal, summ.condition, summ.n, summ.rmse,
                     st.median, st.q1, st.q3, st.whisker_lo, st.whisker_hi,
                     len(st.outliers), None, None, None, None])
    if report.skin_fit is not None:
        rows.append(["skin_regression", "hr", "all", len(report.skin_points),
                     None, None, None, None, None, None, None, *report.skin_fit])
    write_csv(path, SUMMARY_HEADER, rows)


# ------------------------- SVG rendering -------------------------
# Figures are written by hand (no plotting dependency) so that identical
# inputs produce byte-identical files.

_SVG_FONT = "font-family=\"sans-serif\""


def _f(v):
    return f"{v:.2f}"


def _esc(s):
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


class SvgCanvas:
    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>']

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0):
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"/>')

    def rect(self, x, y, w, h, fill="none", stroke="#000000", width=1.0):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_f(width)}"/>')

    def circle(self, cx, cy, r, fill="#000000"):
        self.parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"/>')

    def poly(self, points, fill="none", stroke="#000000", width=1.0, closed=False):
        tag = "polygon" if closed else "polyline"
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(
            f'<{tag} points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_f(width)}"/>')

    def text(self, x, y, s, size=11, anchor="start", rotate=None):
        extra = ""
        if rotate is not None:
            extra = f' transform="rotate({_f(rotate)} {_f(x)} {_f(y)})"'
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" {_SVG_FONT} '
            f'text-anchor="{anchor}"{extra}>{_esc(s)}</text>')

    def to_string(self):
        return "\n".join(self.parts) + "\n</svg>\n"


class _Axes:
    """Maps data coordinates onto an SVG plot box and draws the frame."""

    def __init__(self, canvas, x_range, y_range, margins=(60, 20, 30, 45)):
        left, right, top, bottom = margins
        self.canvas = canvas
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.px0, self.px1 = left, canvas.width - right
        self.py0, self.py1 = canvas.height - bottom, top
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0

    def x(self, v):
        t = (v - self.x0) / (self.x1 - self.x0)
        return self.px0 + t * (self.px1 - self.px0)

    def y(self, v):
        t = (v - self.y0) / (self.y1 - self.y0)
        return self.py0 + t * (self.py1 - self.py0)

    def frame(self, title, xlabel, ylabel):
        c = self.canvas
        c.rect(self.px0, self.py1, self.px1 - self.px0, self.py0 - self.py1,
               stroke="#333333")
        c.text((self.px0 + self.px1) / 2, self.py1 - 10, title, size=13,
               anchor="middle")
        c.text((self.px0 + self.px1) / 2, c.height - 8, xlabel, anchor="middle")
        c.text(14, (self.py0 + self.py1) / 2, ylabel, anchor="middle",
               rotate=-90.0)

    def y_ticks(self, n=5):
        c = self.canvas
        for v in np.linspace(self.y0, self.y1, n):
            py = self.y(float(v))
            c.line(self.px0 - 4, py, self.px0, py, stroke="#333333")
            c.text(self.px0 - 7, py + 4, f"{v:.3g}", anchor="end", size=10)

    def x_ticks(self, n=5):
        c = self.canvas
        for v in np.linspace(self.x0, self.x1, n):
            px = self.x(float(v))
            c.line(px, self.py0, px, self.py0 + 4, stroke="#333333")
            c.text(px, self.py0 + 16, f"{v:.3g}", anchor="middle", size=10)


def render_boxplot(summaries, title, ylabel):
    """One box per condition over that condition's absolute errors."""
    canvas = SvgCanvas(110 + 90 * max(1, len(summaries)), 320)
    if not summaries:
        canvas.text(canvas.width / 2, 160, "no scored trials", anchor="middle")
        return canvas.to_string()
    tops = [max((s.stats.whisker_hi,) + s.stats.outliers) for s in summaries]
    y_hi = max(max(tops) * 1.1, 1e-6)
    ax = _Axes(canvas, (0.0, float(len(summaries))), (0.0, y_hi))
    ax.frame(title, "", ylabel)
    ax.y_ticks()
    for i, summ in enumerate(summaries):
        cx = ax.x(i + 0.5)
        half = (ax.x(0.3) - ax.x(0.0))
        st = summ.stats
        canvas.line(cx, ax.y(st.whisker_lo), cx, ax.y(st.q1), stroke="#444444")
        canvas.line(cx, ax.y(st.q3), cx, ax.y(st.whisker_hi), stroke="#444444")
        for wv in (st.whisker_lo, st.whisker_hi):
            canvas.line(cx - half / 2, ax.y(wv), cx + half / 2, ax.y(wv),
                        stroke="#444444")
        canvas.rect(cx - half, ax.y(st.q3), 2 * half, ax.y(st.q1) - ax.y(st.q3),
                    fill="#c6dbef", stroke="#2b5d8a")
        canvas.line(cx - half, ax.y(st.median), cx + half, ax.y(st.median),
                    stroke="#b03030", width=1.5)
        for ov in st.outliers:
            canvas.circle(cx, ax.y(ov), 2.5, fill="#666666")
        canvas.text(cx, ax.py0 + 16, f"{summ.condition} (n={summ.n})",
                    anchor="middle", size=10)
    return canvas.to_string()


def render_scatter(points, fit, title, xlabel, ylabel):
    """Scatter of (x, y) points; when `fit` (the linear_fit of the points)
    is given, adds the OLS line and the pointwise 95% confidence band of
    the mean response."""
    canvas = SvgCanvas(460, 340)
    if not points:
        canvas.text(canvas.width / 2, 170, "no data points", anchor="middle")
        return canvas.to_string()
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    pad = 0.05 * (x_hi - x_lo or 1.0)
    x_lo, x_hi = x_lo - pad, x_hi + pad
    y_lo, y_hi = 0.0, float(ys.max()) * 1.15 + 1e-9

    band = None
    if fit is not None:
        slope, intercept, xbar, sxx, s2, tcrit = _ols(xs, ys)
        gx = np.linspace(x_lo, x_hi, 50)
        gy = slope * gx + intercept
        half = tcrit * np.sqrt(s2 * (1.0 / len(xs) + (gx - xbar) ** 2 / sxx))
        band = (gx, gy, half)
        y_hi = max(y_hi, float((gy + half).max()) * 1.05)
        y_lo = min(y_lo, float((gy - half).min()))

    ax = _Axes(canvas, (x_lo, x_hi), (y_lo, y_hi))
    ax.frame(title, xlabel, ylabel)
    ax.y_ticks()
    ax.x_ticks()
    if band is not None:
        gx, gy, half = band
        upper = [(ax.x(float(x)), ax.y(float(y + h)))
                 for x, y, h in zip(gx, gy, half)]
        lower = [(ax.x(float(x)), ax.y(float(y - h)))
                 for x, y, h in zip(reversed(gx), reversed(gy), reversed(half))]
        canvas.poly(upper + lower, fill="#f4c7c3", stroke="none", closed=True)
        canvas.poly([(ax.x(float(x)), ax.y(float(y))) for x, y in zip(gx, gy)],
                    stroke="#c0392b", width=1.5)
    for x, y in points:
        canvas.circle(ax.x(float(x)), ax.y(float(y)), 3.0, fill="#2b5d8a")
    return canvas.to_string()


def render_signals(labeled_series, title):
    """Stacked line panels, one per (label, TimeSeries) pair."""
    if not labeled_series:
        raise ValueError("no series to plot")
    panel_h = 110
    canvas = SvgCanvas(640, 40 + panel_h * len(labeled_series))
    canvas.text(canvas.width / 2, 20, title, size=13, anchor="middle")
    for i, (label, ts) in enumerate(labeled_series):
        top = 34 + i * panel_h
        lo = float(np.min(ts.samples)) if len(ts) else 0.0
        hi = float(np.max(ts.samples)) if len(ts) else 1.0
        if hi - lo < 1e-12:
            hi = lo + 1.0
        x0, x1 = 50.0, canvas.width - 15.0
        y0, y1 = top + panel_h - 18.0, top + 8.0
        canvas.rect(x0, y1, x1 - x0, y0 - y1, stroke="#333333")
        t_end = ts.duration if len(ts) else 1.0
        pts = []
        for j in range(len(ts)):
            fx = x0 + (j / ts.sample_rate) / t_end * (x1 - x0)
            fy = y0 + (float(ts.samples[j]) - lo) / (hi - lo) * (y1 - y0)
            pts.append((fx, fy))
        if pts:
            canvas.poly(pts, stroke="#2b5d8a")
        canvas.text(x0 + 4, y1 + 12, label, size=10)
    return canvas.to_string()


def emit_report(records, out_dir):
    """Write trials.csv, summary.csv and the three report figures.
    Returns the EvaluationReport that backs them."""
    report = build_report(records)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trials_csv(out_dir / "trials.csv", records)
    write_summary_csv(out_dir / "summary.csv", report)
    figures = {
        "hr_boxplot.svg": render_boxplot(
            report.hr_summaries, "Absolute HR error by condition", "error (bpm)"),
        "rr_boxplot.svg": render_boxplot(
            report.rr_summaries, "Absolute RR error by condition", "error (brpm)"),
        "skin_scatter.svg": render_scatter(
            report.skin_points, report.skin_fit,
            "HR error vs face brightness", "mean face gray", "abs error (bpm)"),
    }
    for name, svg in figures.items():
        with open(out_dir / name, "w", encoding="ascii") as f:
            f.write(svg)
    return report
