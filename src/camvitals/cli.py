"""Command line front end.

Subcommands: synth (generate a dataset), estimate (video to HR/RR
estimates), groundtruth (physio channels to reference rates), evaluate
(join + report), convert-cascade (OpenCV XML to the JSON cascade format).
Exit codes: 0 success, 1 runtime or data error, 2 usage error.

Each subcommand imports the modules it runs inside its `cmd_` function,
so a process loads only those: `evaluate` loads no detector, signal
toolbox or renderer, and `groundtruth` no detector or renderer. At module
level this file imports only what the parser and the trial loop need:
`geometry` (the ROI box and DetectionError), `ingest`, and `scene` (the
synth option defaults, without the renderer).
"""

import argparse
import errno
import os
import sys
from contextlib import closing
from pathlib import Path

from .geometry import DetectionError, Rect, validate_rect
from .ingest import (CONDITIONS, MANIFEST_FILE, PHYSIO_FILE, check_crop,
                     check_frames_file, crop_clip, in_order, load_physio_csv, named,
                     parse_manifest, read_frame_range, write_csv)
from .scene import SynthConfig


def _four_ints(text, what):
    """The four comma-separated integers of a --roi or --crop value."""
    parts = text.split(",")
    if len(parts) == 4:
        try:
            return [int(p) for p in parts]
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"{what} must be 4 comma-separated integers (got {text!r})")


def _roi_spec(text):
    prefix = "manual:"
    if not text.startswith(prefix):
        raise argparse.ArgumentTypeError(
            f"ROI must look like manual:x,y,w,h (got {text!r})")
    return Rect(*_four_ints(text[len(prefix):], "ROI"))


def _crop_spec(text):
    margins = _four_ints(text, "crop margins left,right,top,bottom")
    if min(margins) < 0:
        raise argparse.ArgumentTypeError(f"crop margins must be >= 0 (got {text!r})")
    return tuple(margins)


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
    d = SynthConfig()
    p.add_argument("--seed", type=int, default=d.seed, help="master random seed")
    p.add_argument("--width", type=int, default=d.width, help="frame width")
    p.add_argument("--height", type=int, default=d.height, help="frame height")
    p.add_argument("--fps", type=float, default=d.fps, help="frame rate")
    p.add_argument("--tone", type=float, default=d.tone,
                   help="skin brightness factor in (0, 1]")
    p.add_argument("--pulse-amp", type=float, default=d.pulse_amp,
                   help="relative red-channel pulse amplitude")
    p.add_argument("--chest-amp", type=float, default=d.chest_amp,
                   help="chest edge motion amplitude in pixels")
    p.add_argument("--noise-sigma", type=float, default=d.noise_sigma,
                   help="additive Gaussian pixel noise sigma")
    p.add_argument("--blur", type=int, default=d.blur_radius, help="box blur radius")
    p.add_argument("--hr", type=float, default=d.hr_bpm,
                   help="heart rate in bpm (single protocol)")
    p.add_argument("--rr", type=float, default=d.rr_brpm,
                   help="respiration rate in brpm (single protocol)")
    p.add_argument("--duration", type=float, default=d.duration,
                   help="trial length in seconds (single protocol)")
    p.add_argument("--task", type=int, default=1,
                   help="task id 1-7; 2 = hold breath (single protocol)")
    p.add_argument("--condition", default="respiration", choices=CONDITIONS,
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
    p.add_argument("--crop", type=_crop_spec, default="300,300,200,0", metavar="L,R,T,B",
                   help="crop margins left,right,top,bottom, cut from every frame "
                        "before the face search; the default suits 1920x1080 frames")
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
    from .synth import TrialPlan, paper_protocol, synth_dataset

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
    manifest, rates = synth_dataset(plans, base_cfg, args.out, seed=args.seed, rates=rates)

    total_s = 0.0
    for plan in plans:
        hr, rr = rates[plan.trial_id]
        print(f"trial {plan.trial_id} {plan.condition} task {plan.task_id} "
              f"{plan.duration:g}s hr={hr:.2f} rr={rr:.2f}")
        total_s += plan.duration
    total_frames = sum(e.frame_count for e in manifest.entries)
    print(f"wrote {len(plans)} trials ({total_frames} frames, {total_s:g} s) "
          f"to {args.out}")
    return 0


# ------------------------- trials -------------------------

def _load_pipeline_config(args):
    from .config import PipelineConfig, load_config

    return load_config(args.config) if args.config else PipelineConfig()


def _check_out_file(path):
    """Raise the OSError that writing the file `path` at the end of the
    trial loop would, where its directory is missing or not a directory,
    or `path` is a directory; the file itself is not created."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _check_bands(cfg, sample_rate, stft_spec):
    """Raise ValueError unless estimate_rate can filter and peak-track both
    bands of cfg at sample_rate: the checks each of its calls makes, on
    the filter designs it uses, built here."""
    from .dsp import band_bins, check_bandpass

    for spec in (cfg.hr_bandpass, cfg.rr_bandpass):
        check_bandpass(spec, sample_rate)
        band_bins((spec.low, spec.high), sample_rate, stft_spec)


def _run_trials(entries, analyse, header, out, describe):
    """Analyse each trial in ingest.in_order's worker processes, print its
    line, write one row per trial under `header` to `out`, and return each
    row's flags.

    analyse(entry) -> (*values, flags), and the line of such a trial is
    describe(*values, flags). A trial with no face found gets roi_failure,
    one too short for its analysis windows too_short, both with empty
    values; any other data error ends the command, prefixed with the trial."""
    from .dsp import SignalTooShort
    from .evaluation import flags_cell

    empty = [None] * (len(header) - 4)   # all but trial_id, condition, task_id, flags

    def attempt(entry):
        """(values, flags, the line if describe does not give it) of a trial."""
        try:
            *values, flags = analyse(entry)
            return values, flags, None
        except DetectionError:
            return empty, {"roi_failure"}, "no face found (roi_failure)"
        except SignalTooShort as e:
            return empty, {"too_short"}, f"{e} (too_short)"

    rows, flag_sets = [], []
    with closing(in_order(attempt, entries)) as outcomes:
        for entry in entries:
            try:
                values, flags, line = next(outcomes)
            except ValueError as e:
                raise ValueError(f"trial {entry.trial_id}: {e}") from e
            if entry.is_hold_breath:
                flags = flags | {"hold_breath_excluded"}
            print(f"trial {entry.trial_id}: {line or describe(*values, flags)}")
            rows.append((entry.trial_id, entry.condition, entry.task_id, *values,
                         flags_cell(flags)))
            flag_sets.append(flags)
    write_csv(out, header, rows)
    return flag_sets


# ------------------------- estimate -------------------------

def cmd_estimate(args):
    # evaluation first: it loads no numpy, and compiled before numpy's
    # import (by detect or dsp) rather than after it, it left the peak RSS
    # of `estimate --roi` on the benchmark's paper-manual dataset 0.6 MB lower
    from .evaluation import EST_HEADER, flags_cell, render_signals, skin_tone_gray

    if args.cascade is not None:
        from .detect import (check_frame_fits, check_min_size, detect_trials, load_cascade,
                             track_roi)
    from .dsp import bandpass, filtered_rate
    from .vitals import hr_roi, mean_gray_trace, pulse_trace, rr_roi

    if (args.cascade is None) == (args.roi is None):
        print("error: exactly one of --cascade / --roi is required", file=sys.stderr)
        return 2
    cfg = _load_pipeline_config(args)
    if args.cascade is not None:
        cascade = load_cascade(args.cascade)
    else:
        cascade = None
    data_dir = Path(args.data)
    manifest = parse_manifest(data_dir / MANIFEST_FILE)
    check_frames_file(data_dir, manifest)
    # settings that do not fit the frames are setting errors, not one trial's
    width, height = check_crop(manifest.width, manifest.height, *args.crop)
    if args.roi is not None:
        rr_roi(validate_rect(args.roi, width, height, "manual ROI"), height, width)
    with named(args.config or data_dir / MANIFEST_FILE):
        _check_bands(cfg, manifest.fps, cfg.video_stft)
    if cascade is not None:
        with named(args.cascade):
            check_frame_fits(cascade, width, height)
        # min_size comes from --config; the default 0 keeps the base window
        with named(args.config):
            check_min_size(cascade, width, height, cfg.scale_factor, cfg.min_size)
    _check_out_file(args.out)
    if args.plots is not None:
        Path(args.plots).mkdir(parents=True, exist_ok=True)
    if cascade is not None:
        # a detection pass spreads every trial's frames over the CPUs before
        # the trial loop starts
        raw_boxes = detect_trials(data_dir, manifest, args.crop, cascade, cfg.scale_factor,
                                  cfg.min_neighbors, cfg.min_size)

    def pixel_stage(entry):
        """(pulse trace, chest gray trace, skin gray) of one trial: all
        that estimate computes from its frames, which die with this call.
        A face with no chest region below it gives its ValueError in
        place of the chest trace, for analyse to raise."""
        if cascade is None:
            faces = [args.roi] * entry.frame_count
        else:
            faces = track_roi(raw_boxes[entry.trial_id])
        clip = read_frame_range(data_dir, manifest, entry.start_frame, entry.frame_count)
        clip = crop_clip(clip, *args.crop)
        # each ROI built once per distinct face box, in the order the boxes
        # first appear, so the first box with no chest region raises
        boxes = dict.fromkeys(faces)
        hr_rois = {f: hr_roi(f) for f in boxes}
        raw_pulse = pulse_trace(clip, [hr_rois[f] for f in faces])
        try:
            rr_rois = {f: rr_roi(f, clip.height, clip.width) for f in boxes}
        except ValueError as e:
            # without its traceback, whose frames hold the clip
            return raw_pulse, e.with_traceback(None), None
        return (raw_pulse, mean_gray_trace(clip, [rr_rois[f] for f in faces]),
                skin_tone_gray(clip, faces))

    def analyse(entry):
        """(hr_est, rr_est, skin_gray, flags) of one trial."""
        raw_pulse, raw_chest, skin_gray = pixel_stage(entry)
        # each trace filtered once: the rate estimates and the plots share it
        filt_pulse = bandpass(raw_pulse, cfg.hr_bandpass)
        hr_est, hr_flags = filtered_rate(filt_pulse, cfg.hr_bandpass, cfg.video_stft)
        if isinstance(raw_chest, ValueError):
            # after the pulse's rate, so that a trial too short for it is
            # too_short whatever its chest
            raise raw_chest
        filt_chest = bandpass(raw_chest, cfg.rr_bandpass)
        rr_est, rr_flags = filtered_rate(filt_chest, cfg.rr_bandpass, cfg.video_stft)

        if args.plots is not None:
            svg = render_signals(
                [("pulse scalar (raw)", raw_pulse),
                 ("pulse scalar (bandpassed)", filt_pulse),
                 ("chest mean gray (raw)", raw_chest),
                 ("chest mean gray (bandpassed)", filt_chest)],
                f"trial {entry.trial_id} signals")
            with open(Path(args.plots) / f"signals_trial_{entry.trial_id:03d}.svg",
                      "w", encoding="ascii") as f:
                f.write(svg)
        return hr_est, rr_est, skin_gray, hr_flags | rr_flags

    def describe(hr_est, rr_est, _skin_gray, flags):
        return f"hr={hr_est:.2f} rr={rr_est:.2f} flags={flags_cell(flags)}"

    flags = _run_trials(manifest.entries, analyse, EST_HEADER, args.out, describe)
    ok = sum(not f & {"roi_failure", "too_short"} for f in flags)
    print(f"estimated {ok}/{len(flags)} trials -> {args.out}")
    if ok == 0:
        if all("roi_failure" in f for f in flags):
            print("error: face detection failed on every trial", file=sys.stderr)
        else:
            print("error: no trial gave an estimate", file=sys.stderr)
        return 1
    return 0


# ------------------------- groundtruth -------------------------

def cmd_groundtruth(args):
    from .dsp import check_detrend_window, estimate_rate
    from .evaluation import GT_HEADER, segment_trials
    from .groundtruth import gt_hr_flagged
    from .series import TimeSeries

    cfg = _load_pipeline_config(args)
    data_dir = Path(args.data)
    manifest = parse_manifest(data_dir / MANIFEST_FILE)
    physio = load_physio_csv(data_dir / PHYSIO_FILE)
    # settings that do not fit the physio rate are setting errors, not one trial's
    with named(args.config or data_dir / PHYSIO_FILE):
        _check_bands(cfg, physio.sample_rate, cfg.physio_stft)
        check_detrend_window(cfg.ecg_detrend_s, physio.sample_rate)
    _check_out_file(args.out)
    with named(data_dir / PHYSIO_FILE):
        segments = dict(zip(manifest.entries, segment_trials(physio, manifest)))

    def analyse(entry):
        s0, s1 = segments[entry]
        ecg_seg = TimeSeries(physio.ecg.samples[s0:s1], physio.sample_rate)
        hr_gt, flags = gt_hr_flagged(ecg_seg, cfg)
        if entry.is_hold_breath:
            return hr_gt, None, flags
        resp_seg = TimeSeries(physio.resp.samples[s0:s1], physio.sample_rate)
        rr_gt, rr_flags = estimate_rate(resp_seg, cfg.rr_bandpass, cfg.physio_stft)
        return hr_gt, rr_gt, flags | rr_flags

    def describe(hr_gt, rr_gt, _flags):
        rr_text = "excluded" if rr_gt is None else f"{rr_gt:.2f}"
        return f"hr_gt={hr_gt:.2f} rr_gt={rr_text}"

    flags = _run_trials(manifest.entries, analyse, GT_HEADER, args.out, describe)
    print(f"ground truth for {len(flags)} trials -> {args.out}")
    if all("too_short" in f for f in flags):
        print("error: no trial gave a reference rate", file=sys.stderr)
        return 1
    return 0


# ------------------------- evaluate -------------------------

def cmd_evaluate(args):
    from .evaluation import emit_report, join_results

    report = emit_report(join_results(args.estimates, args.groundtruth), args.out)
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
    from .detect import convert_opencv_xml, save_cascade

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
    except (ValueError, OSError) as e:
        # a system error on a file as "<file>: <reason>", as the package
        # words its own file errors
        if getattr(e, "filename", None) is not None:
            e = f"{e.filename}: {e.strerror}"
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
