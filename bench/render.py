"""The `cascade-face` dataset, which `camvitals synth` cannot express,
and the face-matched cascade it is scanned with.

Run as a script, one process per rendering, so the benchmark can time it
and read its peak RSS:

    python3 bench/render.py render --seed 3 --out DIR
    python3 bench/render.py hits --data DIR

`render` writes the dataset and DIR/cascade.json. `hits` scans every
frame of DIR with DIR/cascade.json and exits 1 unless every frame yields
the face box this cascade is built to find.

The frames are noise-free at fixed rates: with one trial, seed-drawn
rates or pixel noise make hr_mae_bpm swing by more than 100% between
seeds, so it could not be held to a bound. The seed still drives the
physio channels (ECG beat jitter, belt noise).
"""

import argparse
import sys
from pathlib import Path

from camvitals.detect import (Cascade, Stage, Tree, detect_faces, load_cascade,
                              save_cascade)
from camvitals.geometry import Rect
from camvitals.ingest import parse_manifest, read_frame_range, to_grayscale
from camvitals.synth import SynthConfig, TrialPlan, scene_geometry, synth_dataset

CASCADE_FILE = "cascade.json"

# 270 frames: at least the 256-frame video STFT window
PLANS = [TrialPlan(1, "respiration", 1, 9.0)]
RATES = {1: (72.0, 15.0)}
WIDTH = HEIGHT = 24


def face_box(width, height):
    """The rendered face, widened by the one-pixel background ring that
    the cascade window needs for contrast: the box `face_cascade` finds."""
    face, _ = scene_geometry(width, height)
    return Rect(face.x - 1, face.y - 1, face.w + 2, face.h + 2)


def face_cascade(width, height):
    """Two-stage cascade matched to the rendered face at 24x24.

    The base window is the face plus a one-pixel ring. Stage 1 is a
    template (face interior brighter than the ring) that rejects almost
    every window; stage 2 is a small off-centre patch that rejects the
    survivors other than the exact window, its four one-pixel shifts and
    the four first-scale windows centred on the face. Those nine group to
    exactly `face_box`. Thresholds come from a search over the noise-free
    frames of this workload; `hits` verifies them on every frame.
    """
    if (width, height) != (24, 24):
        raise ValueError("face_cascade is tuned for 24x24 frames")
    face, _ = scene_geometry(width, height)
    win = Rect(0, 0, face.w + 2, face.h + 2)
    template = Tree(rects=((win, -1.0), (Rect(1, 1, face.w, face.h), 1.0)),
                    threshold=21.4, pass_value=1.0, fail_value=0.0)
    patch = Tree(rects=((win, 1.0), (Rect(2, 3, 3, 4), -1.0)),
                 threshold=-10.6, pass_value=1.0, fail_value=0.0)
    return Cascade(window_w=win.w, window_h=win.h,
                   stages=(Stage(0.5, (template,)), Stage(0.5, (patch,))))


def render(seed, out):
    cfg = SynthConfig(width=WIDTH, height=HEIGHT, noise_sigma=0.0, seed=seed)
    synth_dataset(PLANS, cfg, out, seed=seed, rates=RATES)
    save_cascade(Path(out) / CASCADE_FILE, face_cascade(WIDTH, HEIGHT))


def check_hits(data):
    """(face_box, frames on which the dataset's cascade misses it)."""
    data = Path(data)
    manifest = parse_manifest(data / "manifest.txt")
    cascade = load_cascade(data / CASCADE_FILE)
    want = face_box(manifest.width, manifest.height)
    misses = []
    for entry in manifest.entries:
        clip = read_frame_range(data, manifest, entry.start_frame, entry.frame_count)
        for i, gray in enumerate(to_grayscale(clip)):
            boxes = detect_faces(cascade, gray)
            if not boxes or boxes[0] != want:
                misses.append((entry.start_frame + i, boxes[:1]))
    return want, misses


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("render")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("hits")
    p.add_argument("--data", required=True)
    args = parser.parse_args(argv)
    if args.command == "render":
        render(args.seed, args.out)
        return 0
    want, misses = check_hits(args.data)
    for frame, boxes in misses[:5]:
        print(f"frame {frame}: cascade found {boxes}, want {want}", file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
