"""Scoring and reporting: trial records, RMSE and boxplot summaries per
condition, the skin-brightness error regression, and deterministic SVG
figures. All numbers in CSVs use shortest round-trip formatting so a
re-parse reproduces the records bit for bit."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ingest import (FormatError, _optional_float, _parse_row, _roi_blocks, named,
                     read_csv, to_grayscale, write_csv)
from .series import median, percentile

FLAGS = frozenset({"out_of_band", "hold_breath_excluded", "roi_failure", "too_short"})


def flags_cell(flags):
    """The flags cell of a result CSV, which _read_results_csv splits: sorted, ";"-joined."""
    return ";".join(sorted(flags))


# result CSVs: trial_id, condition, task, optional numbers, then flags_cell
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
    skin_fit: tuple | None = None                     # _ci95 of skin_ols
    skin_ols: tuple | None = None                     # _ols output of the same fit


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
        # capped, as a subnormal fps overflows the span to inf: a span past
        # the record's length fails the check below all the same
        n = int(round(min(entry.frame_count / manifest.fps * physio.sample_rate,
                          len(physio.trigger) + 1)))
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


# The 97.5% quantile of Student's t on df = 1..198 degrees of freedom (fits
# of 3..200 points): float(scipy.special.stdtrit(df, 0.975)) under scipy
# 1.17.1, written with repr. scipy's quantile is not correctly rounded, so
# no independent algorithm reproduces its bits; the table spares evaluate
# the scipy.special import. One string rather than 198 float literals:
# compiling those raised the start-up peak RSS of every CLI process by
# about 0.3 MB. test_evaluation's test_t_quantile_table_is_scipy_stdtrit
# checks every entry.
_T975 = tuple(float(t) for t in """
    12.706204736174694 4.302652729749462 3.1824463052837078 2.7764451051977934
    2.5705818356363146 2.4469118511449786 2.364624251592784 2.306004135204166
    2.262157162798205 2.228138851986274 2.200985160091639 2.1788128296672284
    2.1603686564627913 2.144786687917804 2.131449545559776 2.1199052992212546
    2.1098155778333156 2.1009220402410382 2.0930240544083087 2.085963447265864
    2.0796138447276795 2.0738730679040254 2.0686576104190486 2.0638985616280245
    2.0595385527532972 2.0555294386428735 2.0518305164802846 2.0484071417952454
    2.045229642132703 2.0422724563012378 2.039513446396408 2.0369333434601016
    2.0345152974493383 2.0322445093177186 2.030107928250343 2.0280940009804502
    2.0261924630291093 2.0243941639119694 2.022690920036761 2.021075390306273
    2.019540970441376 2.0180817028184443 2.016692199227824 2.0153675744437636
    2.014103388880846 2.012895598919429 2.0117405137297655 2.010634757624232
    2.0095752371292392 2.008559112100761 2.007583770315836 2.006646805061688
    2.0057459953178687 2.0048792881880564 2.0040447832891455 2.003240718847872
    2.002465459291007 2.0017174841452356 2.000995378088267 2.0002978220142604
    1.999623584994939 1.9989715170333788 1.998340542520741 1.997729654317693
    1.9971379083920038 1.9965644189523117 1.996008354025296 1.9954689314298435
    1.9949454151072374 1.994437111771186 1.9939433678456255 1.9934635666618719
    1.992997125889855 1.992543495180932 1.9921021540022417 1.9916726096446642
    1.9912543953883846 1.9908470688116906 1.9904502102301285 1.990063421254446
    1.9896863234569029 1.989318557136572 1.9889597801751624 1.9886096669757083
    1.9882679074772216 1.98793420623902 1.9876082815890708 1.9872898648311692
    1.986978699506281 1.9866745407037683 1.9863771544186177 1.98608631695113
    1.9858018143458227 1.985523441866604 1.9852510035054978 1.984984311522457
    1.9847231860139845 1.9844674545084815 1.9842169515864174 1.9839715185235518
    1.983731002955606 1.9834952585628793 1.9832641447734565 1.9830375264837259
    1.9828152737950475 1.9825972617655006 1.9823833701756908 1.982173483307727
    1.9819674897364825 1.981765282132372 1.9815667570749007 1.9813718148763053
    1.981180359414661 1.9809922979758567 1.9808075411039094 1.9806260024590894
    1.9804475986834025 1.980272249272974 1.9800998764569397 1.9799304050824402
    1.9797637625053868 1.9795998784866382 1.9794386850933035 1.9792801166048548
    1.9791241094237977 1.9789706019906281 1.9788195347028539 1.978670849837835
    1.9785244914792577 1.9783804054470222 1.9782385392303798 1.9780988419241303
    1.9779612641677262 1.9778257580871244 1.9776922772392527 1.977560776558935
    1.9774312123081748 1.9773035420276506 1.977177724490333 1.9770537196570985
    1.9769314886342528 1.9768109936328597 1.976692197929798 1.9765750658304433
    1.9764595626329178 1.9763456545938125 1.976233308895327 1.9761224936137445
    1.976013177689192 1.9759053308966201 1.9757989238179392 1.97569392781527
    1.9755903150052492 1.9754880582343404 1.9753871310551152 1.9752875077034489
    1.9751891630765912 1.9750920727120844 1.9749962127674756 1.9749015600007986
    1.974808091751787 1.974715785923791 1.974624620966361 1.9745345758584756
    1.9744456300923825 1.9743577636580294 1.9742709570280557 1.9741851911433248
    1.9741004473989765 1.9740167076309703 1.973933954103107 1.9738521694945061
    1.973771336887522 1.9736914397560734 1.9736124619543842 1.9735343877061042
    1.9734572015938032 1.9733808885488238 1.9733054338414737 1.9732308230715456
    1.9731570421591593 1.973084077335903 1.973011915136267 1.9729405423893598
    1.9728699462108963 1.9728001139954416 1.9727310334089099 1.9726626923813002
    1.9725950790996682 1.972528182001318 1.972461989767211 1.9723964913155805
    1.9723316757957499 1.9722675325821355 1.9722040512684433 1.9721412216620415
    1.9720790337785026 1.9720174778363146
""".split())


def _t975(df):
    """97.5% quantile of Student's t on df degrees of freedom, bit-equal to
    scipy.stats.t.ppf(0.975, df)."""
    if df <= len(_T975):
        return _T975[df - 1]
    # scipy.special, not scipy.stats: the same quantile (t.ppf calls
    # stdtrit) at under half the import cost
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.975))


def _ols(x, y):
    """(slope, intercept, xbar, sxx, s2, tcrit) of the OLS fit of float
    arrays: s2 and the 97.5% t quantile tcrit are on n-2 degrees of freedom."""
    n = len(x)
    xbar, ybar = float(np.mean(x)), float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are all equal; fit is degenerate")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (slope * x + intercept)
    s2 = float(np.sum(resid ** 2)) / (n - 2)
    return slope, intercept, xbar, sxx, s2, _t975(n - 2)


def _ci95(n, ols):
    """(slope, intercept, ci95_slope, ci95_intercept) of an _ols result on
    n points: the line and the half-widths of its 95% intervals."""
    slope, intercept, xbar, sxx, s2, tcrit = ols
    ci_slope = tcrit * np.sqrt(s2 / sxx)
    ci_intercept = tcrit * np.sqrt(s2 * (1.0 / n + xbar ** 2 / sxx))
    return slope, intercept, float(ci_slope), float(ci_intercept)


def boxplot_stats(values):
    """Median/quartiles (linear interpolation) plus whiskers at the most
    extreme points within 1.5 IQR of the quartiles; the rest are outliers."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("boxplot of an empty list")
    q1, q3 = (float(percentile(vals, q)) for q in (25.0, 75.0))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = [v for v in vals if lo_fence <= v <= hi_fence]
    # quartiles are interpolated, so they always bracket at least one point
    whisker_lo, whisker_hi = inside[0], inside[-1]
    outliers = tuple(v for v in vals if v < lo_fence or v > hi_fence)
    return BoxplotStats(float(median(vals)), q1, q3, whisker_lo, whisker_hi, outliers)


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
        # one fit: the summary row and the figure's band both use it
        report.skin_ols = _ols(np.array(xs, dtype=np.float64),
                               np.array([p[1] for p in report.skin_points],
                                        dtype=np.float64))
        report.skin_fit = _ci95(len(xs), report.skin_ols)
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
    if not est_by_id:
        raise FormatError(f"{est_path}: no trial records to evaluate")
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
        with named(where):
            records.append(TrialRecord(
                trial_id, condition, task, hr_est=hr_est, hr_gt=hr_gt, rr_est=rr_est,
                rr_gt=rr_gt, skin_gray=skin_gray, flags=flags | gt_flags))
    if gt_by_id:
        raise FormatError(f"{gt_path}: trial_id {min(gt_by_id)} present in ground truth only")
    return records


def write_trials_csv(path, records):
    write_csv(path, TRIALS_HEADER, [
        (r.trial_id, r.condition, r.task_id, r.hr_est, r.hr_gt, r.rr_est,
         r.rr_gt, r.skin_gray, flags_cell(r.flags)) for r in records])


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

    def rect(self, x, y, w, h, fill="none", stroke="#000000"):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.00"/>')

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

    def __init__(self, canvas, x_range, y_range):
        left, right, top, bottom = 60, 20, 30, 45   # plot box inset
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

    def y_ticks(self):
        c = self.canvas
        for v in np.linspace(self.y0, self.y1, 5):
            py = self.y(float(v))
            c.line(self.px0 - 4, py, self.px0, py, stroke="#333333")
            c.text(self.px0 - 7, py + 4, f"{v:.3g}", anchor="end", size=10)

    def x_ticks(self):
        c = self.canvas
        for v in np.linspace(self.x0, self.x1, 5):
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


def render_scatter(points, ols, title, xlabel, ylabel):
    """Scatter of (x, y) points; when `ols` (the _ols fit of the points)
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
    if ols is not None:
        slope, intercept, xbar, sxx, s2, tcrit = ols
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
            report.skin_points, report.skin_ols,
            "HR error vs face brightness", "mean face gray", "abs error (bpm)"),
    }
    for name, svg in figures.items():
        with open(out_dir / name, "w", encoding="ascii") as f:
            f.write(svg)
    return report
