"""Haar-cascade face detection on integral images, with grouping of raw
detections, a detection pass over a dataset's frames on every CPU,
per-frame tracking with a hold-last failure policy, and a JSON cascade
format (plus a converter from the OpenCV XML layout)."""

import json
import math
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .geometry import (DEFAULT_MIN_NEIGHBORS, DEFAULT_SCALE_FACTOR, DetectionError, Rect,
                       check_scale_factor)
from .ingest import (FormatError, crop_clip, in_order, named, not_ascii, read_frame_range,
                     to_grayscale)

GROUP_EPS = 0.2
# most scales one frame's scan may slide over: the default scale_factor
# needs 40 for a 24-px window in a 1080-px frame
MAX_SCALES = 1000


# ------------------------- integral images -------------------------

def integral_image(gray, squared=False):
    """(H+1, W+1) int64 summed-area table; first row and column are zero.

    Entry [y, x] holds the sum of all pixels strictly above and left of
    (x, y). With squared=True the squares of the pixels are summed
    (needed for window variance).
    """
    g = np.asarray(gray, dtype=np.int64)
    if g.ndim != 2 or g.size == 0:
        raise ValueError("expected a non-empty 2-D grayscale frame")
    if squared:
        g = g * g
    ii = np.zeros((g.shape[0] + 1, g.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(g, axis=0), axis=1, out=ii[1:, 1:])
    return ii


def rect_sum(ii, r):
    """Pixel sum inside r via 4 table lookups."""
    if r.w <= 0 or r.h <= 0:
        raise ValueError(f"rect must have positive size: {r}")
    if r.x < 0 or r.y < 0 or r.y + r.h >= ii.shape[0] or r.x + r.w >= ii.shape[1]:
        raise ValueError(f"rect {r} out of bounds for image {ii.shape[1]-1}x{ii.shape[0]-1}")
    x0, y0, x1, y1 = r.x, r.y, r.x + r.w, r.y + r.h
    return int(ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0])


# ------------------------- cascade model -------------------------

@dataclass(frozen=True)
class Tree:
    rects: tuple          # ((Rect, weight), ...)
    threshold: float
    pass_value: float
    fail_value: float


@dataclass(frozen=True)
class Stage:
    threshold: float
    trees: tuple


@dataclass(frozen=True)
class Cascade:
    window_w: int
    window_h: int
    stages: tuple

    def __post_init__(self):
        if self.window_w <= 0 or self.window_h <= 0:
            raise FormatError("window dimensions must be positive")
        if not self.stages:
            raise FormatError("cascade has no stages")
        for si, stage in enumerate(self.stages):
            if not stage.trees:
                raise FormatError(f"stage {si} has no trees")
            for ti, tree in enumerate(stage.trees):
                if not tree.rects:
                    raise FormatError(f"stage {si} tree {ti} has no rects")
                for r, _w in tree.rects:
                    if r.w <= 0 or r.h <= 0 or not r.inside(self.window_w, self.window_h):
                        raise FormatError(
                            f"stage {si} tree {ti}: rect {tuple(r)} outside "
                            f"{self.window_w}x{self.window_h} base window")
        # hashed once: _scan_plans' cache hashes its cascade on every
        # detect_faces call, and hashing the fields of a 2,913-tree cascade
        # (the size of OpenCV's frontal-face one) takes 1.3 ms
        object.__setattr__(self, "_hash", hash((self.window_w, self.window_h, self.stages)))

    def __hash__(self):
        return self._hash


def cascade_to_dict(c):
    return {
        "window": [c.window_w, c.window_h],
        "stages": [
            {
                "threshold": s.threshold,
                "trees": [
                    {
                        "rects": [[r.x, r.y, r.w, r.h, w] for r, w in t.rects],
                        "threshold": t.threshold,
                        "pass": t.pass_value,
                        "fail": t.fail_value,
                    }
                    for t in s.trees
                ],
            }
            for s in c.stages
        ],
    }


def cascade_from_dict(d):
    if not isinstance(d, dict):
        raise FormatError("cascade must be a JSON object")
    try:
        window = d["window"]
        stages_raw = d["stages"]
    except KeyError as e:
        raise FormatError(f"missing cascade key: {e}") from None
    if not (isinstance(window, list) and len(window) == 2):
        raise FormatError(f"window must be [w, h], got {window!r}")
    try:
        window_w, window_h = int(window[0]), int(window[1])
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"window must be two integers, got {window!r}") from None
    stages = []
    try:
        for s in stages_raw:
            trees = []
            for t in s["trees"]:
                rects = tuple((Rect(int(r[0]), int(r[1]), int(r[2]), int(r[3])), float(r[4]))
                              for r in t["rects"])
                trees.append(Tree(rects=rects, threshold=float(t["threshold"]),
                                  pass_value=float(t["pass"]), fail_value=float(t["fail"])))
            stages.append(Stage(threshold=float(s["threshold"]), trees=tuple(trees)))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
        raise FormatError(f"malformed cascade structure: {e}") from None
    return Cascade(window_w=window_w, window_h=window_h, stages=tuple(stages))


def load_cascade(path):
    """Read and validate a cascade from its JSON file format."""
    try:
        d = json.loads(Path(path).read_text(encoding="ascii"))
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise FormatError(f"{path}: invalid JSON: nested too deeply") from None
    except UnicodeDecodeError as e:
        raise FormatError(not_ascii(path, e)) from None
    with named(path):
        return cascade_from_dict(d)


def save_cascade(path, c):
    """Write a cascade as canonical JSON (sorted keys, 2-space indent)."""
    Path(path).write_text(canonical_cascade_json(c), encoding="ascii")


def canonical_cascade_json(c):
    return json.dumps(cascade_to_dict(c), sort_keys=True, indent=2) + "\n"


# ------------------------- window evaluation -------------------------

def _scaled_rects(tree, scale, room_w, room_h):
    """A tree's rects scaled to a window of this scale.

    Returns ((left, top, right, bottom, weight), ...) with corners as
    offsets from the window origin. Each rect is clipped to room_w x
    room_h, the part of the image right of and below the window origin
    (pass math.inf for no clip). The first weight is rebalanced so the
    weighted areas still sum to zero; otherwise uniform regions would
    score nonzero at non-integer scales.
    """
    scaled = []
    for r, weight in tree.rects:
        ox = int(round(r.x * scale))
        oy = int(round(r.y * scale))
        sw = min(int(round(r.w * scale)), room_w - ox)
        sh = min(int(round(r.h * scale)), room_h - oy)
        scaled.append((ox, oy, ox + sw, oy + sh, weight))
    left, top, right, bottom, _ = scaled[0]
    area = (right - left) * (bottom - top)
    if area > 0:
        w0 = -sum(w * ((r - l) * (b - t)) for l, t, r, b, w in scaled[1:]) / area
        scaled[0] = (left, top, right, bottom, w0)
    return tuple(scaled)


def _corner_offsets(scaled, stride):
    """`_scaled_rects` as (top-left, top-right, bottom-left, bottom-right,
    weight): each corner's offset from the window origin in a row-major
    integral image `stride` entries wide."""
    return tuple((t * stride + l, t * stride + r, b * stride + l, b * stride + r, w)
                 for l, t, r, b, w in scaled)


def scale_plan(c, scale, img_w, img_h):
    """Tree geometry shared by every window of one scale.

    Returns (img_w, img_h, stages), with one (stage threshold, trees)
    pair per stage and one (tree, x_limit, y_limit, rects) entry per tree:
    rects are the tree's unclipped `_scaled_rects` as `_corner_offsets`
    into the img_w + 1 wide integral image, valid for every window whose
    origin lies at or before (x_limit, y_limit); a window further right or
    down clips some rect at the image edge.
    """
    stages = []
    for stage in c.stages:
        trees = []
        for tree in stage.trees:
            rects = _scaled_rects(tree, scale, math.inf, math.inf)
            trees.append((tree, img_w - max(r[2] for r in rects),
                          img_h - max(r[3] for r in rects),
                          _corner_offsets(rects, img_w + 1)))
        stages.append((stage.threshold, tuple(trees)))
    return img_w, img_h, tuple(stages)


def evaluate_window(c, ii, ii_sq, win, scale, plan):
    """Run the stage cascade on one window.

    Feature sums are divided by scale^2 (rect areas grow with the window)
    and by the window's pixel standard deviation (contrast normalization;
    sigma = 0 falls back to 1), then compared against tree thresholds.
    Rects are scaled and rebalanced by `_scaled_rects`. A window passes
    when every stage's summed tree outputs reach that stage's threshold.

    ii and ii_sq are the integral images flattened row-major
    (`integral_image(...).ravel()`; `detect_faces` passes them as lists,
    whose items are faster to read). win is any (x, y, w, h) sequence, a
    Rect or a plain tuple. plan is this scale's `scale_plan`.
    """
    x, y, w, h = win
    img_w, img_h, stages = plan
    stride = img_w + 1
    p = y * stride + x
    q = p + h * stride
    n = w * h
    s1 = ii[q + w] - ii[p + w] - ii[q] + ii[p]
    s2 = ii_sq[q + w] - ii_sq[p + w] - ii_sq[q] + ii_sq[p]
    mean = s1 / n
    var = s2 / n - mean * mean
    sigma = math.sqrt(var) if var > 0.0 else 1.0
    inv_norm = 1.0 / (scale * scale * sigma)

    for stage_threshold, trees in stages:
        total = 0.0
        for tree, x_limit, y_limit, rects in trees:
            if x > x_limit or y > y_limit:
                rects = _corner_offsets(
                    _scaled_rects(tree, scale, img_w - x, img_h - y), stride)
            # a loop, not sum() over a generator per tree: the same
            # additions, from the same int 0, in the same order
            raw = 0
            for tl, tr, bl, br, weight in rects:
                raw += weight * (ii[p + br] - ii[p + tr] - ii[p + bl] + ii[p + tl])
            if raw * inv_norm >= tree.threshold:
                total += tree.pass_value
            else:
                total += tree.fail_value
        if total < stage_threshold:
            return False
    return True


def check_frame_fits(c, img_w, img_h):
    """Raise ValueError unless a img_w x img_h frame holds the cascade's
    base window."""
    if img_w < c.window_w or img_h < c.window_h:
        raise ValueError(f"frame {img_w}x{img_h} smaller than base window "
                         f"{c.window_w}x{c.window_h}")


def scan_sizes(c, img_w, img_h, scale_factor, min_size):
    """(scale, window w, window h) of each scale the scan slides over: the
    window grows geometrically by scale_factor from the cascade's base size
    while it fits the frame; windows narrower or shorter than min_size are
    skipped. Raises ValueError, before the first scale, when the scan
    would step through more than MAX_SCALES scales."""
    # scales before the unrounded window reaches a pixel past the frame,
    # where the loop below stops at the latest
    reach = min((img_w + 1) / c.window_w, (img_h + 1) / c.window_h)
    n_scales = math.floor(math.log(reach) / math.log(scale_factor)) + 1
    if n_scales > MAX_SCALES:
        raise ValueError(f"scale_factor {scale_factor} makes a scan of {n_scales} scales "
                         f"of the {c.window_w}x{c.window_h} cascade in a {img_w}x{img_h} "
                         f"frame, more than {MAX_SCALES}")
    scale = 1.0
    while True:
        # such a window cannot round to one that fits, and an overflowed
        # scale would make int() raise
        if c.window_w * scale >= img_w + 1 or c.window_h * scale >= img_h + 1:
            return
        ww = int(round(c.window_w * scale))
        wh = int(round(c.window_h * scale))
        if ww > img_w or wh > img_h:
            return
        if ww >= min_size and wh >= min_size:
            yield scale, ww, wh
        scale *= scale_factor


def check_min_size(c, img_w, img_h, scale_factor, min_size):
    """Raise ValueError unless min_size leaves a window to scan in an
    img_w x img_h frame."""
    if next(scan_sizes(c, img_w, img_h, scale_factor, min_size), None) is None:
        raise ValueError(f"min_size {min_size} leaves no window of the "
                         f"{c.window_w}x{c.window_h} cascade to scan in a "
                         f"{img_w}x{img_h} frame")


# every frame of a clip shares one entry
@lru_cache(maxsize=4)
def _scan_plans(c, img_w, img_h, scale_factor, min_size):
    """(scale, window w, window h, slide step, `scale_plan`) of each scale
    of `scan_sizes`."""
    return tuple((scale, ww, wh, max(1, int(round(scale))), scale_plan(c, scale, img_w, img_h))
                 for scale, ww, wh in scan_sizes(c, img_w, img_h, scale_factor, min_size))


def detect_faces(c, gray, scale_factor=DEFAULT_SCALE_FACTOR,
                 min_neighbors=DEFAULT_MIN_NEIGHBORS, min_size=0):
    """Multiscale sliding-window detection over one grayscale frame.

    The scales are those of `scan_sizes`; the slide step is
    max(1, round(scale)). Raw hits are merged by group_rects and returned
    sorted by descending area (ties by x, then y).
    """
    gray = np.asarray(gray)
    check_scale_factor(scale_factor)
    img_h, img_w = gray.shape
    check_frame_fits(c, img_w, img_h)
    # flat lists: reading their items per window is faster than the arrays
    ii = integral_image(gray).ravel().tolist()
    ii_sq = integral_image(gray, squared=True).ravel().tolist()

    candidates = []
    for scale, ww, wh, step, plan in _scan_plans(c, img_w, img_h, scale_factor, min_size):
        for y in range(0, img_h - wh + 1, step):
            for x in range(0, img_w - ww + 1, step):
                # a plain tuple: a Rect per window costs more than most
                # windows' evaluation
                if evaluate_window(c, ii, ii_sq, (x, y, ww, wh), scale, plan):
                    candidates.append(Rect(x, y, ww, wh))

    grouped = group_rects(candidates, min_neighbors)
    return sorted(grouped, key=lambda r: (-r.area, r.x, r.y))


def _similar(a, b):
    delta = GROUP_EPS * 0.5 * (min(a.w, b.w) + min(a.h, b.h))
    return (abs(a.x - b.x) <= delta and abs(a.y - b.y) <= delta
            and abs(a.w - b.w) <= delta and abs(a.h - b.h) <= delta)


def group_rects(candidates, min_neighbors):
    """Cluster near-identical rectangles and average each cluster.

    Similarity (all four coordinates within GROUP_EPS * mean min-extent) is
    closed transitively; clusters smaller than min_neighbors + 1 are
    dropped; survivors are reduced to the coordinate-wise mean rectangle
    (rounded to integer pixels).
    """
    n = len(candidates)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _similar(candidates[i], candidates[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(candidates[i])

    out = []
    for members in clusters.values():
        if len(members) < min_neighbors + 1:
            continue
        xs = [r.x for r in members]
        ys = [r.y for r in members]
        ws = [r.w for r in members]
        hs = [r.h for r in members]
        out.append(Rect(int(round(sum(xs) / len(members))),
                        int(round(sum(ys) / len(members))),
                        int(round(sum(ws) / len(members))),
                        int(round(sum(hs) / len(members)))))
    return out


# A block of detect_trials ends at _DETECT_BLOCK_FRAMES frames, or sooner
# where its frames' pixels would pass _DETECT_BLOCK_BYTES (never below one
# frame). Blocks are what in_order spreads over the processes, so a small
# cap evens out their shares: on 2 CPUs, the benchmark's 270-frame 24x24
# trial splits 136/134 in 8-frame blocks and 142/128 in 16-frame ones,
# and `estimate` took 0.425 against 0.437 s (medians of 20 alternating runs).
_DETECT_BLOCK_FRAMES = 8
_DETECT_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class _Block:
    """Frames start, ..., start + count - 1 of the trial trial_id."""
    trial_id: int
    start: int
    count: int


def scan_frames(frames, cascade, scale_factor, min_neighbors, min_size):
    """The raw boxes of frames: the largest detection of each, or None
    where there is none. Each frame is converted to gray as it is scanned,
    so the scan holds one frame's gray and integral images besides them."""
    raw = []
    for frame in frames:
        boxes = detect_faces(cascade, to_grayscale(frame), scale_factor=scale_factor,
                             min_neighbors=min_neighbors, min_size=min_size)
        raw.append(boxes[0] if boxes else None)
    return raw


def detect_trials(data_dir, manifest, crop, cascade, scale_factor, min_neighbors, min_size):
    """{trial id: the trial's raw boxes of scan_frames} for every trial of
    a dataset. A trial
    whose frames could not be read has the ValueError of its first such
    block instead, for track_roi to raise.

    The trials' frames are cut into blocks, which ingest.in_order spreads
    over this process and its workers. Each block is read, cropped by the
    margins `crop` and scanned, so a process holds one block's frames and
    one frame's gray and integral images.
    """
    frames = min(_DETECT_BLOCK_FRAMES,
                 max(1, _DETECT_BLOCK_BYTES // (manifest.width * manifest.height * 3)))
    blocks = [_Block(e.trial_id, start, min(frames, e.start_frame + e.frame_count - start))
              for e in manifest.entries
              for start in range(e.start_frame, e.start_frame + e.frame_count, frames)]

    def scan(block):
        try:
            clip = read_frame_range(data_dir, manifest, block.start, block.count)
        except ValueError as e:
            # without its traceback, whose frames hold the block's records
            return e.with_traceback(None)
        return scan_frames(crop_clip(clip, *crop).frames, cascade, scale_factor,
                           min_neighbors, min_size)

    raw = {e.trial_id: [] for e in manifest.entries}
    with closing(in_order(scan, blocks, own_share=True)) as results:
        for block, boxes in zip(blocks, results):
            if not isinstance(raw[block.trial_id], list):
                continue   # after the trial's first data error
            if isinstance(boxes, ValueError):
                raw[block.trial_id] = boxes
            else:
                raw[block.trial_id].extend(boxes)
    return raw


def track_roi(raw):
    """One face box per frame, from one trial's raw boxes: those of
    scan_frames, or the trial's entry of detect_trials.

    Frames with no detection reuse the last successful box, leading
    failures inherit the first success, and a trial with no detection on
    any frame raises DetectionError. The ValueError that stopped the
    trial's detection pass is raised here.
    """
    if isinstance(raw, ValueError):
        raise raw
    first_hit = next((b for b in raw if b is not None), None)
    if first_hit is None:
        raise DetectionError("no face detected in any frame")
    out = []
    last = first_hit
    for b in raw:
        if b is not None:
            last = b
        out.append(last)
    return out


# ------------------------- OpenCV XML conversion -------------------------

def _child_text(el, tag, what, path):
    text = el.findtext(tag)
    if text is None:
        raise FormatError(f"{path}: {what} without <{tag}>")
    return text


def _number(convert, text, tag, path):
    try:
        return convert(text)
    except ValueError:
        raise FormatError(f"{path}: non-numeric value {text!r} in <{tag}>") from None


def convert_opencv_xml(path):
    """Convert an OpenCV haarcascade XML file to this package's Cascade.

    Handles the stump-based HAAR layout (cascade/stages/weakClassifiers
    with a shared feature list). Structure and thresholds are carried over
    verbatim; tilted features are rejected. Engines normalize feature
    values differently, so converted models may need threshold
    recalibration before use here.
    """
    # here, not at the top: only convert-cascade reads XML
    import xml.etree.ElementTree as ET

    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        raise FormatError(f"{path}: invalid XML: {e}") from None
    casc = root.find("cascade")
    if casc is None:
        raise FormatError(f"{path}: no <cascade> element")
    window_w = _number(int, casc.findtext("width", "0"), "width", path)
    window_h = _number(int, casc.findtext("height", "0"), "height", path)

    features = []
    feats_el = casc.find("features")
    if feats_el is None:
        raise FormatError(f"{path}: no <features> element")
    for feat in feats_el:
        if feat.findtext("tilted", "0").strip() == "1":
            raise FormatError(f"{path}: tilted features unsupported")
        rects = []
        rects_el = feat.find("rects")
        if rects_el is None:
            raise FormatError(f"{path}: feature without <rects>")
        for r_el in rects_el:
            parts = (r_el.text or "").split()
            if len(parts) != 5:
                raise FormatError(f"{path}: rect needs 5 fields, got {r_el.text!r}")
            x, y, w, h = (_number(int, p, "rects", path) for p in parts[:4])
            rects.append((Rect(x, y, w, h), _number(float, parts[4], "rects", path)))
        features.append(tuple(rects))

    stages = []
    stages_el = casc.find("stages")
    if stages_el is None:
        raise FormatError(f"{path}: no <stages> element")
    for st in stages_el:
        threshold = _number(float, _child_text(st, "stageThreshold", "stage", path),
                            "stageThreshold", path)
        weak_el = st.find("weakClassifiers")
        if weak_el is None:
            raise FormatError(f"{path}: stage without <weakClassifiers>")
        trees = []
        for weak in weak_el:
            nodes = _child_text(weak, "internalNodes", "classifier", path).split()
            leaves = _child_text(weak, "leafValues", "classifier", path).split()
            if len(nodes) != 4 or len(leaves) != 2:
                raise FormatError(f"{path}: only stump classifiers supported")
            feat_idx = _number(int, nodes[2], "internalNodes", path)
            if not (0 <= feat_idx < len(features)):
                raise FormatError(f"{path}: feature index {feat_idx} out of range")
            split = _number(float, nodes[3], "internalNodes", path)
            fail_value, pass_value = (_number(float, v, "leafValues", path) for v in leaves)
            # leaf order: value when the feature falls below the split, then above
            trees.append(Tree(rects=features[feat_idx], threshold=split,
                              fail_value=fail_value, pass_value=pass_value))
        stages.append(Stage(threshold=threshold, trees=tuple(trees)))

    with named(path):
        return Cascade(window_w=window_w, window_h=window_h, stages=tuple(stages))
