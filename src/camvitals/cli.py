"""Command line front end.

Subcommands: synth (generate a dataset), estimate (video to HR/RR
estimates), groundtruth (physio channels to reference rates), evaluate
(join + report), convert-cascade (OpenCV XML to the JSON cascade format).
Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

import argparse
import csv
import dataclasses
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import PipelineConfig, load_config
from .detect import (CascadeFormatError, DetectionError, convert_opencv_xml,
                     load_cascade, save_cascade, track_roi)
from .dsp import BandpassSpec, TimeSeries, bandpass
from .evaluation import (TrialRecord, emit_report, render_signals,
                         segment_trials, skin_tone_gray)
from .geometry import Rect
from .groundtruth import gt_hr_flagged, gt_rr_flagged
from .ingest import (FormatError, check_crop, crop_clip, format_number,
                     load_physio_csv, parse_manifest, read_frame_range)
from .synth import (SynthConfig, TrialPlan, paper_protocol, synth_dataset)
from .vitals import (estimate_hr_flagged, estimate_rr_flagged, hr_roi,
                     mean_gray_trace, pulse_trace, rr_roi)

EST_HEADER = ["trial_id", "condition", "task", "hr_est", "rr_est",
              "skin_gray", "flags"]
GT_HEADER = ["trial_id", "condition", "task", "hr_gt", "rr_gt", "flags"]


def _roi_spec(text):
    prefix = "manual:"
    if not text.startswith(prefix):
        raise argparse.ArgumentTypeError(
            f"ROI must look like manual:x,y,w,h (got {text!r})")
    parts = text[len(prefix):].split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"ROI needs 4 integers (got {text!r})")
    try:
        return Rect(*(int(p) for p in parts))
    except ValueError:
        raise argparse.ArgumentTypeError(f"ROI coordinates must be integers (got {text!r})")


def _crop_spec(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"crop must be left,right,top,bottom (got {text!r})")
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"crop margins must be integers (got {text!r})")
    if any(v < 0 for v in vals):
        raise argparse.ArgumentTypeError("crop margins must be >= 0")
    return tuple(vals)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="camvitals",
        description="Contact-free heart and respiration rate estimation "
                    "from webcam video, with a synthetic test bench.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", formatter_class=fmt,
                       help="generate a synthetic dataset with known vitals")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--protocol", choices=["paper", "single"], default="single",
                   help="paper: 30 respiratory-part + 50 gaze-part trials; "
                        "single: one trial with the rates given below")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--width", type=int, default=64, help="frame width")
    p.add_argument("--height", type=int, default=64, help="frame height")
    p.add_argument("--fps", type=float, default=30.0, help="frame rate")
    p.add_argument("--tone", type=float, default=1.0,
                   help="skin brightness factor in (0, 1]")
    p.add_argument("--pulse-amp", type=float, default=0.01,
                   help="relative red-channel pulse amplitude")
    p.add_argument("--chest-amp", type=float, default=1.5,
                   help="chest edge motion amplitude in pixels")
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="additive Gaussian pixel noise sigma")
    p.add_argument("--blur", type=int, default=0, help="box blur radius")
    p.add_argument("--hr", type=float, default=72.0,
                   help="heart rate in bpm (single protocol)")
    p.add_argument("--rr", type=float, default=15.0,
                   help="respiration rate in brpm (single protocol)")
    p.add_argument("--duration", type=float, default=20.0,
                   help="trial length in seconds (single protocol)")
    p.add_argument("--task", type=int, default=1,
                   help="task id 1-7; 2 = hold breath (single protocol)")
    p.add_argument("--condition", default="respiration",
                   choices=["respiration", "workout", "gaze"],
                   help="condition label (single protocol)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("estimate", formatter_class=fmt,
                       help="estimate HR/RR per trial from a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output estimates CSV")
    p.add_argument("--config", help="pipeline config file (key = value lines)")
    p.add_argument("--cascade", help="face cascade JSON file")
    p.add_argument("--roi", type=_roi_spec, metavar="manual:X,Y,W,H",
                   help="fixed face box in cropped-frame coordinates "
                        "(alternative to --cascade)")
    p.add_argument("--crop", type=_crop_spec, metavar="L,R,T,B",
                   help="override crop margins left,right,top,bottom")
    p.add_argument("--plots", help="directory for per-trial signal SVGs")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("groundtruth", formatter_class=fmt,
                       help="reference HR/RR per trial from the physio channels")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output ground-truth CSV")
    p.add_argument("--config", help="pipeline config file")
    p.set_defaults(func=cmd_groundtruth)

    p = sub.add_parser("evaluate", formatter_class=fmt,
                       help="join estimates with ground truth and write the report")
    p.add_argument("--estimates", required=True, help="estimates CSV")
    p.add_argument("--groundtruth", required=True, help="ground-truth CSV")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("convert-cascade", formatter_class=fmt,
                       help="convert an OpenCV haarcascade XML to cascade JSON")
    p.add_argument("--xml", required=True, help="OpenCV XML input")
    p.add_argument("--out", required=True, help="JSON output path")
    p.set_defaults(func=cmd_convert_cascade)
    return parser


# ------------------------- synth -------------------------

def cmd_synth(args):
    base_cfg = SynthConfig(width=args.width, height=args.height, fps=args.fps,
                           tone=args.tone, pulse_amp=args.pulse_amp,
                           chest_amp=args.chest_amp, noise_sigma=args.noise_sigma,
                           blur_radius=args.blur, seed=args.seed)
    if args.protocol == "paper":
        plans = paper_protocol(args.seed)
        rates = None
    else:
        plans = [TrialPlan(1, args.condition, args.task, args.duration)]
        rates = {1: (args.hr, args.rr)}
    synth_dataset(plans, base_cfg, args.out, seed=args.seed, rates=rates)

    from .synth import read_truth_csv
    truth = read_truth_csv(Path(args.out) / "truth.csv")
    total_s = 0.0
    total_frames = 0
    for plan in plans:
        t = truth[plan.trial_id]
        print(f"trial {plan.trial_id} {plan.condition} task {plan.task_id} "
              f"{plan.duration:g}s hr={t.hr_bpm:.2f} rr={t.rr_brpm:.2f}")
        total_s += plan.duration
        total_frames += int(round(plan.duration * args.fps))
    print(f"wrote {len(plans)} trials ({total_frames} frames, {total_s:g} s) "
          f"to {args.out}")
    return 0


# ------------------------- estimate -------------------------

def _estimate_trial(data_dir, manifest, entry, cfg, cascade, manual_box, plots_dir):
    clip = read_frame_range(data_dir, manifest, entry.start_frame, entry.frame_count)
    clip = crop_clip(clip, *cfg.crop)
    flags = set()
    if entry.is_hold_breath:
        flags.add("hold_breath_excluded")
    row = {"trial_id": entry.trial_id, "condition": entry.condition,
           "task": entry.task_id, "hr_est": None, "rr_est": None,
           "skin_gray": None, "flags": flags}
    try:
        faces = track_roi(clip, cascade=cascade, manual_box=manual_box,
                          scale_factor=cfg.scale_factor,
                          min_neighbors=cfg.min_neighbors, min_size=cfg.min_size)
    except DetectionError:
        flags.add("roi_failure")
        return row
    hr_rois = [hr_roi(f) for f in faces]
    rr_rois = [rr_roi(f, clip.height, clip.width) for f in faces]
    hr_est, hr_flags = estimate_hr_flagged(clip, hr_rois, cfg)
    rr_est, rr_flags = estimate_rr_flagged(clip, rr_rois, cfg)
    row["hr_est"] = hr_est
    row["rr_est"] = rr_est
    row["skin_gray"] = skin_tone_gray(clip, faces)
    flags |= hr_flags | rr_flags

    if plots_dir is not None:
        raw_pulse = pulse_trace(clip, hr_rois, cfg)
        filt_pulse = bandpass(raw_pulse, BandpassSpec(*cfg.hr_band, cfg.filter_order))
        raw_chest = mean_gray_trace(clip, rr_rois)
        filt_chest = bandpass(raw_chest, BandpassSpec(*cfg.rr_band, cfg.filter_order))
        svg = render_signals(
            [("pulse scalar (raw)", raw_pulse),
             ("pulse scalar (bandpassed)", filt_pulse),
             ("chest mean gray (raw)", raw_chest),
             ("chest mean gray (bandpassed)", filt_chest)],
            f"trial {entry.trial_id} signals")
        with open(Path(plots_dir) / f"signals_trial_{entry.trial_id:03d}.svg",
                  "w", encoding="ascii") as f:
            f.write(svg)
    return row


def _load_pipeline_config(args):
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "crop", None) is not None:
        left, right, top, bottom = args.crop
        cfg = dataclasses.replace(cfg, crop_left=left, crop_right=right,
                                  crop_top=top, crop_bottom=bottom)
    return cfg


@contextmanager
def _naming_trial(entry):
    """Prefix a data error raised while analysing one trial with its id."""
    try:
        yield
    except FormatError as e:
        raise FormatError(f"trial {entry.trial_id}: {e}") from e
    except ValueError as e:
        raise ValueError(f"trial {entry.trial_id}: {e}") from e


def _fmt_opt(v):
    return "" if v is None else format_number(v)


def cmd_estimate(args):
    if (args.cascade is None) == (args.roi is None):
        print("error: exactly one of --cascade / --roi is required", file=sys.stderr)
        return 2
    cfg = _load_pipeline_config(args)
    cascade = load_cascade(args.cascade) if args.cascade else None
    data_dir = Path(args.data)
    manifest = parse_manifest(data_dir / "manifest.txt")
    # a crop that does not fit is a setting error, not one trial's
    check_crop(manifest.width, manifest.height, *cfg.crop)
    if args.plots is not None:
        Path(args.plots).mkdir(parents=True, exist_ok=True)

    # serial: the per-trial work holds the interpreter lock, and threads
    # measured slower than this loop
    rows = []
    for entry in manifest.entries:
        with _naming_trial(entry):
            rows.append(_estimate_trial(data_dir, manifest, entry, cfg,
                                        cascade, args.roi, args.plots))

    with open(args.out, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(EST_HEADER)
        for row in rows:
            w.writerow([row["trial_id"], row["condition"], row["task"],
                        _fmt_opt(row["hr_est"]), _fmt_opt(row["rr_est"]),
                        _fmt_opt(row["skin_gray"]), ";".join(sorted(row["flags"]))])

    ok = 0
    for row in rows:
        if "roi_failure" in row["flags"]:
            print(f"trial {row['trial_id']}: no face found (roi_failure)")
        else:
            ok += 1
            print(f"trial {row['trial_id']}: hr={row['hr_est']:.2f} "
                  f"rr={row['rr_est']:.2f} flags={';'.join(sorted(row['flags']))}")
    print(f"estimated {ok}/{len(rows)} trials -> {args.out}")
    if ok == 0:
        print("error: face detection failed on every trial", file=sys.stderr)
        return 1
    return 0


# ------------------------- groundtruth -------------------------

def cmd_groundtruth(args):
    cfg = load_config(args.config) if args.config else PipelineConfig()
    data_dir = Path(args.data)
    manifest = parse_manifest(data_dir / "manifest.txt")
    physio = load_physio_csv(data_dir / "physio.csv")
    segments = segment_trials(physio, manifest, manifest.fps)

    rows = []
    for entry, (_, (s0, s1)) in zip(manifest.entries, segments):
        with _naming_trial(entry):
            ecg_seg = TimeSeries(physio.ecg.samples[s0:s1], physio.sample_rate)
            hr_gt, flags = gt_hr_flagged(ecg_seg, cfg)
            rr_gt = None
            if entry.is_hold_breath:
                flags = set(flags) | {"hold_breath_excluded"}
            else:
                resp_seg = TimeSeries(physio.resp.samples[s0:s1], physio.sample_rate)
                rr_gt, rr_flags = gt_rr_flagged(resp_seg, cfg)
                flags = set(flags) | rr_flags
        rows.append((entry, hr_gt, rr_gt, flags))
        rr_text = "excluded" if rr_gt is None else f"{rr_gt:.2f}"
        print(f"trial {entry.trial_id}: hr_gt={hr_gt:.2f} rr_gt={rr_text}")

    with open(args.out, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(GT_HEADER)
        for entry, hr_gt, rr_gt, flags in rows:
            w.writerow([entry.trial_id, entry.condition, entry.task_id,
                        _fmt_opt(hr_gt), _fmt_opt(rr_gt), ";".join(sorted(flags))])
    print(f"ground truth for {len(rows)} trials -> {args.out}")
    return 0


# ------------------------- evaluate -------------------------

def _read_csv_rows(path, expected_header):
    with open(path, "r", newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != expected_header:
            raise FormatError(f"{path}: expected header {expected_header}, "
                              f"got {header}")
        return [row for row in reader]


def cmd_evaluate(args):
    est_rows = _read_csv_rows(args.estimates, EST_HEADER)
    gt_rows = _read_csv_rows(args.groundtruth, GT_HEADER)
    opt = lambda s: None if s == "" else float(s)
    flagset = lambda s: frozenset(s.split(";")) if s else frozenset()

    gt_by_id = {}
    for row in gt_rows:
        tid = int(row[0])
        if tid in gt_by_id:
            raise FormatError(f"{args.groundtruth}: duplicate trial_id {tid}")
        gt_by_id[tid] = row

    records = []
    for row in est_rows:
        tid = int(row[0])
        gt = gt_by_id.pop(tid, None)
        if gt is None:
            raise FormatError(f"trial_id {tid} present in estimates only")
        if (row[1], row[2]) != (gt[1], gt[2]):
            raise FormatError(
                f"trial_id {tid}: condition/task mismatch between files "
                f"({row[1]}/{row[2]} vs {gt[1]}/{gt[2]})")
        records.append(TrialRecord(
            trial_id=tid, condition=row[1], task_id=int(row[2]),
            hr_est=opt(row[3]), hr_gt=opt(gt[3]),
            rr_est=opt(row[4]), rr_gt=opt(gt[4]), skin_gray=opt(row[5]),
            flags=flagset(row[6]) | flagset(gt[5])))
    if gt_by_id:
        missing = sorted(gt_by_id)
        raise FormatError(f"trial_id {missing[0]} present in ground truth only")

    report = emit_report(records, args.out)
    for summ in report.hr_summaries + report.rr_summaries:
        print(f"{summ.signal} {summ.condition}: n={summ.n} "
              f"rmse={summ.rmse:.3f} median_abs_err={summ.stats.median:.3f}")
    if report.skin_fit is not None:
        slope, intercept, ci_s, _ = report.skin_fit
        print(f"skin regression: slope={slope:.5f} +- {ci_s:.5f} "
              f"intercept={intercept:.3f}")
    print(f"report written to {args.out}")
    return 0


# ------------------------- convert-cascade -------------------------

def cmd_convert_cascade(args):
    cascade = convert_opencv_xml(args.xml)
    save_cascade(args.out, cascade)
    n_trees = sum(len(s.trees) for s in cascade.stages)
    print(f"converted cascade: window {cascade.window_w}x{cascade.window_h}, "
          f"{len(cascade.stages)} stages, {n_trees} trees -> {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, CascadeFormatError, DetectionError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
