"""Differential tests: the Haar scan with per-scale rect geometry against
the scalar scan it replaces, which rebuilt every rect for every window.

The reference below is that scalar `evaluate_window`, its arithmetic kept
verbatim, and its scan loop. `detect_faces` must hand `group_rects` the same candidate
list, in the same order, on every case: a decision that flips on a last
bit shows up here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from camvitals import detect
from camvitals.detect import (Cascade, Stage, Tree, integral_image, rect_sum,
                              scale_plan)
from camvitals.geometry import Rect

from conftest import blob_frame, make_toy_cascade


def ref_tree_values(c, ii, ii_sq, win, scale):
    """Per stage, each tree's normalized feature value on one window, in
    the scalar scan's arithmetic."""
    n = win.w * win.h
    s1 = rect_sum(ii, win)
    s2 = rect_sum(ii_sq, win)
    mean = s1 / n
    sigma = math.sqrt(max(0.0, s2 / n - mean * mean))
    if sigma == 0.0:
        sigma = 1.0
    inv_norm = 1.0 / (scale * scale * sigma)

    img_h = ii.shape[0] - 1
    img_w = ii.shape[1] - 1
    values = []
    for stage in c.stages:
        values.append([])
        for tree in stage.trees:
            scaled = []
            for r, weight in tree.rects:
                rx = win.x + int(round(r.x * scale))
                ry = win.y + int(round(r.y * scale))
                rw = min(int(round(r.w * scale)), img_w - rx)
                rh = min(int(round(r.h * scale)), img_h - ry)
                scaled.append((Rect(rx, ry, rw, rh), weight))
            first, rest = scaled[0], scaled[1:]
            if first[0].area > 0:
                w0 = -sum(w * r.area for r, w in rest) / first[0].area
                scaled[0] = (first[0], w0)
            raw = sum(w * rect_sum(ii, r) for r, w in scaled)
            values[-1].append(raw * inv_norm)
    return values


def ref_evaluate_window(c, ii, ii_sq, win, scale):
    for stage, values in zip(c.stages, ref_tree_values(c, ii, ii_sq, win, scale)):
        total = 0.0
        for tree, value in zip(stage.trees, values):
            if value >= tree.threshold:
                total += tree.pass_value
            else:
                total += tree.fail_value
        if total < stage.threshold:
            return False
    return True


def ref_candidates(c, gray, scale_factor, min_size):
    ii = integral_image(gray)
    ii_sq = integral_image(gray, squared=True)
    img_h, img_w = gray.shape
    candidates = []
    scale = 1.0
    while True:
        ww = int(round(c.window_w * scale))
        wh = int(round(c.window_h * scale))
        if ww > img_w or wh > img_h:
            return candidates
        if ww >= min_size and wh >= min_size:
            step = max(1, int(round(scale)))
            for y in range(0, img_h - wh + 1, step):
                for x in range(0, img_w - ww + 1, step):
                    if ref_evaluate_window(c, ii, ii_sq, Rect(x, y, ww, wh), scale):
                        candidates.append(Rect(x, y, ww, wh))
        scale *= scale_factor


def scan_candidates(monkeypatch, c, gray, scale_factor, min_size):
    """The list `detect_faces` passes to `group_rects`."""
    seen = []
    group = detect.group_rects

    def capture(candidates, *args, **kwargs):
        seen.append(list(candidates))
        return group(candidates, *args, **kwargs)

    monkeypatch.setattr(detect, "group_rects", capture)
    detect.detect_faces(c, gray, scale_factor=scale_factor, min_size=min_size)
    assert len(seen) == 1
    return seen[0]


def clipped_windows(c, shape, scale_factor):
    """Windows of the scan whose origin lies past some tree's clip limits."""
    img_h, img_w = shape
    count = 0
    scale = 1.0
    while True:
        ww = int(round(c.window_w * scale))
        wh = int(round(c.window_h * scale))
        if ww > img_w or wh > img_h:
            return count
        step = max(1, int(round(scale)))
        _, _, stages = scale_plan(c, scale, img_w, img_h)
        limits = [(xl, yl) for _, trees in stages for _, xl, yl, _ in trees]
        count += sum(any(x > xl or y > yl for xl, yl in limits)
                     for y in range(0, img_h - wh + 1, step)
                     for x in range(0, img_w - ww + 1, step))
        scale *= scale_factor


# integer weights as in trained cascades, and fractional ones, whose
# products round, so the order of every sum matters
WEIGHTS = [-3.0, -1.0, 1.0, 2.0, -0.7, 0.3]


def random_cascade(rng):
    """1-3 stages of 1-3 trees with 2-3 rects each in a 4-9 px window.
    Thresholds are drawn where normalized feature values fall, so trees
    and stages both pass and fail."""
    win_w, win_h = (int(v) for v in rng.integers(4, 10, 2))
    stages = []
    for _ in range(int(rng.integers(1, 4))):
        trees = []
        for _ in range(int(rng.integers(1, 4))):
            rects = []
            for _ in range(int(rng.integers(2, 4))):
                x = int(rng.integers(0, win_w))
                y = int(rng.integers(0, win_h))
                w = int(rng.integers(1, win_w - x + 1))
                h = int(rng.integers(1, win_h - y + 1))
                rects.append((Rect(x, y, w, h), float(rng.choice(WEIGHTS))))
            trees.append(Tree(rects=tuple(rects), threshold=float(rng.normal(0.0, 4.0)),
                              pass_value=float(rng.uniform(0.0, 1.0)),
                              fail_value=float(rng.uniform(-1.0, 0.0))))
        stage_threshold = float(rng.uniform(-0.5, 0.5) * len(trees))
        stages.append(Stage(stage_threshold, tuple(trees)))
    return Cascade(window_w=win_w, window_h=win_h, stages=tuple(stages))


def box_blur(img, radius):
    pad = np.pad(img.astype(np.float64), radius, mode="edge")
    k = 2 * radius + 1
    out = sum(pad[dy:dy + img.shape[0], dx:dx + img.shape[1]]
              for dy in range(k) for dx in range(k)) / (k * k)
    return np.rint(out).astype(np.uint8)


def frames(rng, shape):
    noisy = rng.integers(0, 256, shape, dtype=np.uint8)
    return {"noisy": noisy,
            "blurred": box_blur(noisy, 1),
            "quantised": (rng.integers(0, 3, shape) * 100).astype(np.uint8),
            "flat": np.full(shape, 77, dtype=np.uint8)}


def assert_same_scan(monkeypatch, c, gray, scale_factor, min_size=0):
    want = ref_candidates(c, gray, scale_factor, min_size)
    assert scan_candidates(monkeypatch, c, gray, scale_factor, min_size) == want
    return len(want)


def tie_cascade(rng, gray, scale_factor):
    """A random cascade whose tree and stage thresholds equal the values
    the scalar scan computes on one window of gray: that window passes
    only if every sum is formed in the same order."""
    c = random_cascade(rng)
    img_h, img_w = gray.shape
    scales = [1.0]
    while (round(c.window_w * scales[-1] * scale_factor) <= img_w
           and round(c.window_h * scales[-1] * scale_factor) <= img_h):
        scales.append(scales[-1] * scale_factor)
    scale = scales[int(rng.integers(0, len(scales)))]
    ww, wh = int(round(c.window_w * scale)), int(round(c.window_h * scale))
    step = max(1, int(round(scale)))
    win = Rect(step * int(rng.integers(0, (img_w - ww) // step + 1)),
               step * int(rng.integers(0, (img_h - wh) // step + 1)), ww, wh)
    values = ref_tree_values(c, integral_image(gray), integral_image(gray, squared=True),
                             win, scale)
    stages = []
    for stage, stage_values in zip(c.stages, values):
        trees = tuple(replace(t, threshold=v) for t, v in zip(stage.trees, stage_values))
        total = 0.0
        for t in trees:
            total += t.pass_value
        stages.append(Stage(total, trees))
    return replace(c, stages=tuple(stages)), win


@pytest.mark.parametrize("scale_factor", [1.05, 1.1, 1.25, 1.5])
def test_ties_at_the_thresholds_decide_alike(monkeypatch, scale_factor):
    rng = np.random.default_rng(int(scale_factor * 1000))
    for _ in range(15):
        shape = tuple(int(v) for v in rng.integers(10, 19, 2))
        for name in ("noisy", "blurred"):
            gray = frames(rng, shape)[name]
            c, win = tie_cascade(rng, gray, scale_factor)
            assert win in ref_candidates(c, gray, scale_factor, 0)
            assert_same_scan(monkeypatch, c, gray, scale_factor)


@pytest.mark.parametrize("blob", [Rect(10, 10, 4, 4), Rect(19, 3, 4, 4),
                                  Rect(2, 19, 5, 5), Rect(16, 16, 8, 8)])
@pytest.mark.parametrize("scale_factor", [1.1, 1.25])
def test_toy_cascade_on_blob_frames(monkeypatch, blob, scale_factor):
    c = make_toy_cascade()
    gray = blob_frame(24, 24, blob)
    assert assert_same_scan(monkeypatch, c, gray, scale_factor) > 0
    assert assert_same_scan(monkeypatch, c, box_blur(gray, 1), scale_factor) > 0


@pytest.mark.parametrize("scale_factor", [1.05, 1.1, 1.25, 1.5])
def test_random_cascades_on_noisy_blurred_and_flat_frames(monkeypatch, scale_factor):
    rng = np.random.default_rng(int(scale_factor * 100))
    found = rejected = 0
    for _ in range(10):
        c = random_cascade(rng)
        shape = tuple(int(v) for v in rng.integers(10, 19, 2))
        for gray in frames(rng, shape).values():
            n = assert_same_scan(monkeypatch, c, gray, scale_factor)
            found += n
            rejected += n == 0
    # the cases exercise both outcomes of the cascade
    assert found > 0 and rejected > 0


def test_min_size_skips_the_same_scales(monkeypatch):
    rng = np.random.default_rng(5)
    for min_size in (6, 9, 12):
        for _ in range(4):
            c = random_cascade(rng)
            gray = frames(rng, (16, 17))["noisy"]
            assert_same_scan(monkeypatch, c, gray, 1.1, min_size)


def test_windows_clipped_at_the_right_and_bottom_edge(monkeypatch):
    # at scale 1.5 the rect (1, 1, 1, 1) spans offsets 2..4 of a 3 px
    # window, so windows at the right and bottom edge clip it
    tree = Tree(rects=((Rect(0, 0, 2, 2), 1.0), (Rect(1, 1, 1, 1), -2.0)),
                threshold=0.1, pass_value=1.0, fail_value=0.0)
    c = Cascade(window_w=2, window_h=2, stages=(Stage(0.5, (tree,)),))
    rng = np.random.default_rng(11)
    for shape in ((9, 9), (7, 11), (12, 13)):
        assert clipped_windows(c, shape, 1.5) > 0
        for gray in frames(rng, shape).values():
            assert_same_scan(monkeypatch, c, gray, 1.5)


def test_random_cascades_reach_clipped_windows(monkeypatch):
    rng = np.random.default_rng(23)
    clipped = 0
    for scale_factor in (1.05, 1.1, 1.25, 1.5):
        for _ in range(6):
            c = random_cascade(rng)
            shape = tuple(int(v) for v in rng.integers(10, 17, 2))
            clipped += clipped_windows(c, shape, scale_factor)
            assert_same_scan(monkeypatch, c, frames(rng, shape)["noisy"], scale_factor)
    assert clipped > 0


def test_scan_plans_reused_across_calls_match_a_fresh_scan(monkeypatch):
    # the scan builds its plans once per (cascade, frame size, scale
    # factor, min_size): a call that alternates any one of them must not
    # reuse another's plans
    rng = np.random.default_rng(36)
    cascades = (random_cascade(rng), random_cascade(rng))
    shapes = ((14, 17), (16, 12))
    scale_factors = (1.1, 1.25)
    min_sizes = (0, 7)
    detect._scan_plans.cache_clear()
    keys = [(ci, si, fi, mi) for ci in (0, 1) for si in (0, 1)
            for fi in (0, 1) for mi in (0, 1)]
    # each key once, then four keys, each alternated with every key
    # that differs from it in one place
    sequence = keys + [key for base in keys[:4] for d in range(4)
                       for key in (base, tuple(v ^ (i == d) for i, v in enumerate(base))) * 2]
    for ci, si, fi, mi in sequence:
        gray = frames(rng, shapes[si])["noisy"]
        assert assert_same_scan(monkeypatch, cascades[ci], gray, scale_factors[fi],
                                min_sizes[mi]) > 0
    assert detect._scan_plans.cache_info().hits > 0


def test_clipped_windows_far_from_the_origin(monkeypatch):
    rng = np.random.default_rng(45)
    c = random_cascade(rng)
    gray = frames(rng, (40, 48))["noisy"]
    assert clipped_windows(c, gray.shape, 1.1) > 0
    assert assert_same_scan(monkeypatch, c, gray, 1.1) > 0
