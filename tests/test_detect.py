import json
import re

import numpy as np
import pytest

from camvitals import detect
from camvitals.detect import (DEFAULT_MIN_NEIGHBORS, DEFAULT_SCALE_FACTOR, Cascade,
                              DetectionError, Stage, Tree,
                              canonical_cascade_json, cascade_from_dict, cascade_to_dict,
                              convert_opencv_xml, detect_faces, detect_trials,
                              evaluate_window, group_rects, integral_image,
                              load_cascade, rect_sum, save_cascade, scale_plan,
                              scan_frames, track_roi)
from camvitals.geometry import Rect
from camvitals.ingest import (FRAMES_FILE, MANIFEST_FILE, FormatError, TrialEntry,
                              TrialManifest, VideoClip, crop_clip, read_frame_range,
                              to_grayscale, write_manifest, write_ppm)

from conftest import blob_clip, blob_frame, make_toy_cascade


# ------------------------- integral images -------------------------

def test_rect_sum_matches_brute_force_on_1000_random_cases():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        h = int(rng.integers(1, 13))
        w = int(rng.integers(1, 13))
        img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        ii = integral_image(img)
        ii_sq = integral_image(img, squared=True)
        rw = int(rng.integers(1, w + 1))
        rh = int(rng.integers(1, h + 1))
        r = Rect(int(rng.integers(0, w - rw + 1)), int(rng.integers(0, h - rh + 1)), rw, rh)
        patch = img[r.y:r.bottom, r.x:r.right].astype(np.int64)
        assert rect_sum(ii, r) == int(patch.sum())
        assert rect_sum(ii_sq, r) == int((patch * patch).sum())
        checked += 1


def test_integral_image_shape_and_zero_border():
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    ii = integral_image(img)
    assert ii.shape == (3, 4)
    assert ii.dtype == np.int64
    assert np.all(ii[0] == 0) and np.all(ii[:, 0] == 0)
    assert ii[-1, -1] == img.sum()


def test_rect_sum_rejects_bad_rects():
    ii = integral_image(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        rect_sum(ii, Rect(0, 0, 0, 2))
    with pytest.raises(ValueError):
        rect_sum(ii, Rect(2, 2, 3, 3))


# ------------------------- window evaluation -------------------------

def test_evaluate_window_zero_on_flat_patch():
    # sigma = 0 falls back to 1, raw feature sums cancel -> value 0
    img = np.full((8, 8), 77, dtype=np.uint8)
    ii = integral_image(img).ravel()
    ii_sq = integral_image(img, squared=True).ravel()
    passing = make_toy_cascade(threshold=-0.5)
    failing = make_toy_cascade(threshold=0.5)
    win = Rect(0, 0, 8, 8)
    assert evaluate_window(passing, ii, ii_sq, win, 1.0, scale_plan(passing, 1.0, 8, 8))
    assert not evaluate_window(failing, ii, ii_sq, win, 1.0, scale_plan(failing, 1.0, 8, 8))


def test_evaluate_window_normalized_value_frozen():
    """Bright 4x4 blob (220) centered in dark 20: raw = -4480 + 4*3520 =
    9600, window variance = 12400 - 70^2 = 7500, so the normalized value
    is 9600/sqrt(7500) = 110.85125168440815."""
    img = blob_frame(8, 8, Rect(2, 2, 4, 4))
    ii = integral_image(img).ravel()
    ii_sq = integral_image(img, squared=True).ravel()
    win = Rect(0, 0, 8, 8)
    below = make_toy_cascade(threshold=110.85125168440815 - 1e-9)
    above = make_toy_cascade(threshold=110.85125168440815 + 1e-9)
    assert evaluate_window(below, ii, ii_sq, win, 1.0, scale_plan(below, 1.0, 8, 8))
    assert not evaluate_window(above, ii, ii_sq, win, 1.0, scale_plan(above, 1.0, 8, 8))


def test_stage_threshold_can_reject_despite_tree_pass():
    tree = Tree(rects=((Rect(0, 0, 8, 8), -1.0), (Rect(2, 2, 4, 4), 4.0)),
                threshold=0.0, pass_value=1.0, fail_value=0.0)
    c = Cascade(window_w=8, window_h=8, stages=(Stage(2.0, (tree,)),))
    img = blob_frame(8, 8, Rect(2, 2, 4, 4))
    ii = integral_image(img).ravel()
    ii_sq = integral_image(img, squared=True).ravel()
    assert not evaluate_window(c, ii, ii_sq, Rect(0, 0, 8, 8), 1.0, scale_plan(c, 1.0, 8, 8))


# ------------------------- detection -------------------------

def test_detect_planted_blob_center_within_1px(toy_cascade):
    img = blob_frame(24, 24, Rect(10, 10, 4, 4))  # center (12, 12)
    hits = detect_faces(toy_cascade, img, min_neighbors=1)
    assert hits
    best = hits[0]
    cx = best.x + best.w / 2
    cy = best.y + best.h / 2
    assert abs(cx - 12) <= 1 and abs(cy - 12) <= 1


def test_detect_blob_at_double_scale(toy_cascade):
    img = blob_frame(40, 40, Rect(16, 16, 8, 8))  # center (20, 20)
    hits = detect_faces(toy_cascade, img, min_neighbors=1)
    assert hits
    best = hits[0]
    assert best.w >= 12  # found at an enlarged window, not the base size
    assert abs(best.x + best.w / 2 - 20) <= 1
    assert abs(best.y + best.h / 2 - 20) <= 1


def test_detect_empty_on_blank_frame(toy_cascade):
    img = np.full((24, 24), 20, dtype=np.uint8)
    assert detect_faces(toy_cascade, img) == []


def test_detect_rejects_frame_smaller_than_window(toy_cascade):
    with pytest.raises(ValueError):
        detect_faces(toy_cascade, np.zeros((4, 4), dtype=np.uint8))


def test_detect_min_size_skips_small_scales():
    # threshold 60: the blob scores ~110 at the base window but only ~52
    # once the window grows to 16, so min_size=16 leaves nothing
    cascade = make_toy_cascade(threshold=60.0)
    img = blob_frame(24, 24, Rect(10, 10, 4, 4))
    assert detect_faces(cascade, img, min_neighbors=1)
    assert detect_faces(cascade, img, min_neighbors=1, min_size=16) == []


def test_detect_bounds_the_number_of_scales(toy_cascade):
    img = blob_frame(24, 24, Rect(10, 10, 4, 4))
    # about 1.1e9 scales lie between the 8-px window and the 24-px frame
    with pytest.raises(ValueError, match=r"^scale_factor 1\.000000001 makes a scan of "
                                         r"\d+ scales .* more than 1000$"):
        detect_faces(toy_cascade, img, scale_factor=1.000000001)
    # a factor too large to round its second window scans the base one only
    base_only = detect_faces(toy_cascade, img, min_neighbors=1, scale_factor=4.0)
    assert base_only
    assert detect_faces(toy_cascade, img, min_neighbors=1, scale_factor=1e308) == base_only


def test_a_cascade_is_hashed_once_not_on_every_detect_faces_call(toy_cascade):
    # the scan plans' cache hashes its cascade on every call; a hash
    # through every stage, tree and rect costs a large cascade 1.6 ms a frame
    hashed = []

    class CountedStage(Stage):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    stage = toy_cascade.stages[0]
    c = Cascade(window_w=8, window_h=8, stages=(CountedStage(stage.threshold, stage.trees),))
    img = blob_frame(24, 24, Rect(10, 10, 4, 4))
    first = detect_faces(c, img, min_neighbors=1)
    assert first
    for _ in range(3):
        assert detect_faces(c, img, min_neighbors=1) == first
    assert len(hashed) == 1
    # the hash is still that of the cascade's fields
    assert hash(c) == hash(toy_cascade) == hash(make_toy_cascade())


# ------------------------- grouping -------------------------

def test_group_rects_merges_cluster_to_mean():
    cluster = [Rect(10, 10, 20, 20), Rect(11, 10, 20, 20), Rect(10, 12, 21, 20)]
    out = group_rects(cluster, min_neighbors=2)
    assert out == [Rect(10, 11, 20, 20)]  # coordinate-wise rounded means


def test_group_rects_drops_underpopulated_clusters():
    assert group_rects([Rect(0, 0, 10, 10)], min_neighbors=2) == []
    out = group_rects([Rect(0, 0, 10, 10), Rect(50, 50, 10, 10),
                       Rect(50, 51, 10, 10)], min_neighbors=1)
    assert out == [Rect(50, 50, 10, 10)]


def test_group_rects_similarity_is_transitive_via_chain():
    # a~b and b~c pull all three into one cluster even if a!~c directly
    a, b, c = Rect(0, 0, 20, 20), Rect(3, 0, 20, 20), Rect(6, 0, 20, 20)
    out = group_rects([a, b, c], min_neighbors=2)
    assert out == [Rect(3, 0, 20, 20)]


def test_group_rects_keeps_distant_clusters_apart():
    far = [Rect(0, 0, 10, 10), Rect(1, 0, 10, 10),
           Rect(40, 40, 10, 10), Rect(41, 40, 10, 10)]
    out = group_rects(far, min_neighbors=1)
    assert len(out) == 2


# ------------------------- ROI tracking -------------------------

def test_track_roi_hold_last_and_leading_inherit(toy_cascade):
    blob = Rect(8, 8, 4, 4)
    clip = blob_clip(24, 24, [None, blob, None, blob])
    rois = track_roi(scan_frames(clip.frames, toy_cascade, DEFAULT_SCALE_FACTOR, 1, 0))
    assert len(rois) == 4
    assert rois[0] == rois[1]          # leading gap inherits first success
    assert rois[2] == rois[1]          # hold-last over the dropout
    center = rois[1]
    assert abs(center.x + center.w / 2 - 10) <= 1


def test_track_roi_all_frames_fail(toy_cascade):
    clip = blob_clip(24, 24, [None, None])
    with pytest.raises(DetectionError):
        track_roi(scan_frames(clip.frames, toy_cascade, DEFAULT_SCALE_FACTOR,
                              DEFAULT_MIN_NEIGHBORS, 0))


def test_track_roi_raises_the_data_error_of_the_detection_pass():
    error = FormatError("frames.ppm: frame 7 (byte 21567): record header b'P6', expected ...")
    with pytest.raises(FormatError) as raised:
        track_roi(error)
    assert raised.value is error


def whole_clip_track_roi(clip, cascade, scale_factor, min_neighbors, min_size):
    """The reference: track_roi as it was when it converted the whole clip
    to gray before it scanned the first frame."""
    grays = to_grayscale(clip)
    raw = []
    for t in range(clip.n_frames):
        boxes = detect_faces(cascade, grays[t], scale_factor=scale_factor,
                             min_neighbors=min_neighbors, min_size=min_size)
        raw.append(boxes[0] if boxes else None)

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


def tinted_blob_clip(rng, blobs, size=24):
    """conftest's blob_clip of size x size in a seeded tint: each channel
    is the scene times its own factor, so that the gray of a pixel is
    rounded from three different values. (Noise would make the toy cascade
    fire on blank frames: it normalises windows by their spread.)"""
    frames = blob_clip(size, size, blobs).frames * rng.uniform(0.5, 1.0, 3)
    return VideoClip(np.rint(frames).astype(np.uint8), 30.0)


def write_dataset(path, clips):
    """A dataset at `path` whose trial k + 1 holds clips[k]: its frames.ppm
    and manifest. Returns the manifest."""
    path.mkdir()
    entries, start = [], 0
    with open(path / FRAMES_FILE, "wb") as f:
        for k, clip in enumerate(clips):
            write_ppm(f, clip.frames)
            entries.append(TrialEntry(k + 1, "gaze", 3, start, clip.n_frames, k + 1))
            start += clip.n_frames
    manifest = TrialManifest(30.0, clips[0].width, clips[0].height, entries)
    write_manifest(path / MANIFEST_FILE, manifest)
    return manifest


def outcome(track, *args):
    """The boxes track(*args) returns, or the class and message of the
    DetectionError or data error it raises."""
    try:
        return track(*args)
    except (DetectionError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("seed", range(4))
def test_track_roi_equals_the_whole_clip_reference(seed, toy_cascade, tmp_path, cpus):
    rng = np.random.default_rng(seed)
    # two leading misses, then a blob of 4 or 8 px that moves, dropping out
    # on about a third of the frames
    blobs = [None, None] + [
        None if rng.random() < 0.3
        else Rect(*rng.integers(0, 16, 2), *[int(rng.choice([4, 8]))] * 2)
        for _ in range(10)]
    clip = tinted_blob_clip(rng, blobs)
    manifest = write_dataset(tmp_path / "ds", [clip])
    cpus(1)
    raw = detect_trials(tmp_path / "ds", manifest, (0, 0, 0, 0), toy_cascade,
                        DEFAULT_SCALE_FACTOR, 1, 0)
    want = whole_clip_track_roi(clip, toy_cascade, DEFAULT_SCALE_FACTOR, 1, 0)
    assert track_roi(raw[1]) == want
    # the clip holds a leading miss, a held frame and a box that moves
    assert want[0] == want[1] == want[2]
    assert any(b is None for b in blobs[3:])
    assert len(set(want)) > 1


def test_track_roi_without_a_face_raises_as_the_whole_clip_reference(toy_cascade, tmp_path,
                                                                      cpus):
    clip = tinted_blob_clip(np.random.default_rng(7), [None] * 6)
    manifest = write_dataset(tmp_path / "ds", [clip])
    cpus(1)
    raw = detect_trials(tmp_path / "ds", manifest, (0, 0, 0, 0), toy_cascade,
                        DEFAULT_SCALE_FACTOR, 1, 0)
    for track in (lambda: whole_clip_track_roi(clip, toy_cascade, DEFAULT_SCALE_FACTOR, 1, 0),
                  lambda: track_roi(raw[1])):
        with pytest.raises(DetectionError, match="^no face detected in any frame$"):
            track()


def moving_blobs(rng, n):
    """n blobs of 4 or 8 px at seeded places of a 26x26 frame, 1 to 17 px
    from its top-left corner, so that they stay whole in its 24x24 crop."""
    return [Rect(*rng.integers(1, 18, 2), *[int(rng.choice([4, 8]))] * 2) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_detection_pass_equals_the_per_frame_scan(n, toy_cascade, tmp_path, monkeypatch,
                                                  cpus):
    """detect_trials and track_roi against one process scanning each trial's
    cropped clip, over blocks of 4 frames: 23 blocks, of which this process
    scans a share at 2 and 4 CPUs."""
    monkeypatch.setattr(detect, "_DETECT_BLOCK_FRAMES", 4)
    rng = np.random.default_rng(11)
    blobs = {
        # the first hit in the third block
        1: [None] * 9 + moving_blobs(rng, 5),
        # held over frames 3-9 and 13-16, across three block boundaries
        2: moving_blobs(rng, 3) + [None] * 7 + moving_blobs(rng, 3) + [None] * 4
           + moving_blobs(rng, 2),
        # no hit in any frame
        3: [None] * 10,
        # a blob on about two frames in three
        4: [None if rng.random() < 0.35 else b for b in moving_blobs(rng, 23)],
        # one frame
        5: moving_blobs(rng, 1),
        # the last frame holds the only hit
        6: [None] * 12 + moving_blobs(rng, 1),
    }
    clips = [tinted_blob_clip(rng, blobs[k], size=26) for k in sorted(blobs)]
    manifest = write_dataset(tmp_path / "ds", clips)
    crop = (1, 1, 1, 1)
    scan = (toy_cascade, DEFAULT_SCALE_FACTOR, 1, 0)
    want = [outcome(whole_clip_track_roi, crop_clip(clip, *crop), *scan) for clip in clips]
    cpus(n)
    scanned = []   # the frames scanned in this process
    monkeypatch.setattr(detect, "detect_faces",
                        lambda *args, **kwargs: scanned.append(1) or detect_faces(*args, **kwargs))
    raw = detect_trials(tmp_path / "ds", manifest, crop, *scan)
    assert [outcome(track_roi, raw[e.trial_id]) for e in manifest.entries] == want
    # this process scans blocks 0, n, 2n, ... of the 23
    sizes = [min(4, len(clip.frames) - start) for clip in clips
             for start in range(0, len(clip.frames), 4)]
    assert len(sizes) == 23
    assert len(scanned) == sum(sizes[::n])
    # the cases the clips are made for
    assert want[0][0] == want[0][9] != want[0][10]
    assert want[1][2] == want[1][9] != want[1][10]
    assert want[2] == (DetectionError, "no face detected in any frame")
    assert len(set(want[3])) > 3
    assert want[5][0] == want[5][12]


def test_detection_pass_keeps_each_trials_first_data_error(toy_cascade, tmp_path, monkeypatch,
                                                           cpus):
    """A bad record in trial 2 gives trial 2, and only trial 2, the error
    of reading its whole range: the first bad record's."""
    monkeypatch.setattr(detect, "_DETECT_BLOCK_FRAMES", 4)
    rng = np.random.default_rng(5)
    clips = [tinted_blob_clip(rng, moving_blobs(rng, 13), size=26) for _ in range(3)]
    data = tmp_path / "ds"
    manifest = write_dataset(data, clips)
    record = (data / FRAMES_FILE).stat().st_size // 39
    with open(data / FRAMES_FILE, "r+b") as f:
        for frame in (13 + 6, 13 + 11):
            f.seek(frame * record)
            f.write(b"P5")
    with pytest.raises(FormatError) as whole:
        read_frame_range(data, manifest, 13, 13)
    scan = (toy_cascade, DEFAULT_SCALE_FACTOR, 1, 0)
    want = [outcome(whole_clip_track_roi, clips[0], *scan), (FormatError, str(whole.value)),
            outcome(whole_clip_track_roi, clips[2], *scan)]
    for n in (1, 2, 4):
        cpus(n)
        raw = detect_trials(data, manifest, (0, 0, 0, 0), *scan)
        assert [outcome(track_roi, raw[e.trial_id]) for e in manifest.entries] == want


# ------------------------- serialization -------------------------

def test_cascade_json_round_trip(tmp_path, toy_cascade):
    p = tmp_path / "cascade.json"
    save_cascade(p, toy_cascade)
    assert load_cascade(p) == toy_cascade
    assert cascade_from_dict(cascade_to_dict(toy_cascade)) == toy_cascade


def test_canonical_json_is_stable(toy_cascade):
    a = canonical_cascade_json(toy_cascade)
    b = canonical_cascade_json(cascade_from_dict(json.loads(a)))
    assert a == b
    assert a.endswith("\n")


def test_load_cascade_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        load_cascade(p)
    p.write_text(json.dumps({"window": [8, 8]}))
    with pytest.raises(FormatError):
        load_cascade(p)


@pytest.mark.parametrize("text, message", [
    ('{"window": [8, 8]}', "missing cascade key: 'stages'"),
    ('{"window": ["a", 8], "stages": []}', "window must be two integers, got ['a', 8]"),
    ('{"window": [Infinity, 8], "stages": []}', "window must be two integers, got [inf, 8]"),
    ('{"window": [8, 8], "stages": []}', "cascade has no stages"),
    ('{"window": [8, 8], "stages": [{"threshold": 0, "trees": [{"rects": '
     '[[Infinity, 0, 1, 1, 1]], "threshold": 0, "pass": 1, "fail": 0}]}]}',
     "malformed cascade structure: cannot convert float infinity to integer"),
    ("[1, 2]", "cascade must be a JSON object"),
], ids=["missing key", "non-integer window", "infinite window", "no stages",
        "infinite rect", "not an object"])
def test_load_cascade_names_the_file_of_a_structural_error(tmp_path, text, message):
    p = tmp_path / "c.json"
    p.write_text(text)
    with pytest.raises(FormatError) as e:
        load_cascade(p)
    assert str(e.value) == f"{p}: {message}"


def test_cascade_rejects_rect_outside_window():
    tree = Tree(rects=((Rect(4, 4, 8, 8), 1.0),), threshold=0.0,
                pass_value=1.0, fail_value=0.0)
    with pytest.raises(FormatError):
        Cascade(window_w=8, window_h=8, stages=(Stage(0.0, (tree,)),))


# ------------------------- OpenCV XML conversion -------------------------

OPENCV_XML = """<?xml version="1.0"?>
<opencv_storage>
<cascade type_id="opencv-cascade-classifier">
  <stageType>BOOST</stageType>
  <featureType>HAAR</featureType>
  <height>8</height>
  <width>8</width>
  <stages>
    <_>
      <maxWeakCount>1</maxWeakCount>
      <stageThreshold>5.0000000000000000e-01</stageThreshold>
      <weakClassifiers>
        <_>
          <internalNodes>0 -1 0 4.0000000000000000e+01</internalNodes>
          <leafValues>0. 1.</leafValues>
        </_>
      </weakClassifiers>
    </_>
  </stages>
  <features>
    <_>
      <rects>
        <_>0 0 8 8 -1.</_>
        <_>2 2 4 4 4.</_>
      </rects>
    </_>
  </features>
</cascade>
</opencv_storage>
"""


def test_convert_opencv_xml_stump_cascade(tmp_path):
    p = tmp_path / "haar.xml"
    p.write_text(OPENCV_XML)
    c = convert_opencv_xml(p)
    assert (c.window_w, c.window_h) == (8, 8)
    assert len(c.stages) == 1
    tree = c.stages[0].trees[0]
    assert tree.threshold == 40.0
    assert (tree.fail_value, tree.pass_value) == (0.0, 1.0)
    assert tree.rects == ((Rect(0, 0, 8, 8), -1.0), (Rect(2, 2, 4, 4), 4.0))
    # structurally equal to the hand-built toy cascade, so it detects too
    img = blob_frame(24, 24, Rect(10, 10, 4, 4))
    assert detect_faces(c, img, min_neighbors=1)


def test_convert_opencv_xml_rejects_tilted(tmp_path):
    xml = OPENCV_XML.replace("</rects>", "</rects>\n      <tilted>1</tilted>")
    p = tmp_path / "tilted.xml"
    p.write_text(xml)
    with pytest.raises(FormatError):
        convert_opencv_xml(p)


def test_convert_opencv_xml_rejects_non_stump(tmp_path):
    xml = OPENCV_XML.replace("0 -1 0 4.0000000000000000e+01",
                             "0 1 2 0 4.0e+01 5.0e+01")
    p = tmp_path / "deep.xml"
    p.write_text(xml)
    with pytest.raises(FormatError):
        convert_opencv_xml(p)


@pytest.mark.parametrize("element,what", [
    ("<stageThreshold>5.0000000000000000e-01</stageThreshold>", "stage without <stageThreshold>"),
    ("<internalNodes>0 -1 0 4.0000000000000000e+01</internalNodes>",
     "classifier without <internalNodes>"),
    ("<leafValues>0. 1.</leafValues>", "classifier without <leafValues>"),
    (re.search(r"<weakClassifiers>.*</weakClassifiers>", OPENCV_XML, re.S).group(),
     "stage without <weakClassifiers>"),
])
def test_convert_opencv_xml_names_missing_element(tmp_path, element, what):
    p = tmp_path / "partial.xml"
    p.write_text(OPENCV_XML.replace(element, ""))
    with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: {what}$"):
        convert_opencv_xml(p)


@pytest.mark.parametrize("old,new,tag", [
    ("<width>8</width>", "<width>abc</width>", "width"),
    ("<height>8</height>", "<height>8px</height>", "height"),
    ("<_>2 2 4 4 4.</_>", "<_>x 2 4 4 4.</_>", "rects"),
    ("<_>2 2 4 4 4.</_>", "<_>2 2 4 4 w</_>", "rects"),
    ("<stageThreshold>5.0000000000000000e-01</stageThreshold>",
     "<stageThreshold>abc</stageThreshold>", "stageThreshold"),
    ("0 -1 0 4.0000000000000000e+01", "0 -1 a 4.0000000000000000e+01", "internalNodes"),
    ("0 -1 0 4.0000000000000000e+01", "0 -1 0 forty", "internalNodes"),
    ("<leafValues>0. 1.</leafValues>", "<leafValues>0. one</leafValues>", "leafValues"),
])
def test_convert_opencv_xml_names_non_numeric_value(tmp_path, old, new, tag):
    p = tmp_path / "garbled.xml"
    assert old in OPENCV_XML
    p.write_text(OPENCV_XML.replace(old, new))
    with pytest.raises(FormatError,
                       match=f"^{re.escape(str(p))}: non-numeric value '.*' in <{tag}>$"):
        convert_opencv_xml(p)


@pytest.mark.parametrize("old,new,what", [
    (re.search(r"<stages>.*</stages>", OPENCV_XML, re.S).group(), "<stages></stages>",
     "cascade has no stages"),
    (re.search(r"<weakClassifiers>.*</weakClassifiers>", OPENCV_XML, re.S).group(),
     "<weakClassifiers></weakClassifiers>", "stage 0 has no trees"),
    ("<_>2 2 4 4 4.</_>", "<_>2 2 8 4 4.</_>",
     "stage 0 tree 0: rect (2, 2, 8, 4) outside 8x8 base window"),
    ("<width>8</width>", "<width>0</width>", "window dimensions must be positive"),
], ids=["no stages", "stage with no trees", "rect outside window", "zero window"])
def test_convert_opencv_xml_names_the_file_of_a_cascade_check(tmp_path, old, new, what):
    p = tmp_path / "haar.xml"
    assert old in OPENCV_XML
    p.write_text(OPENCV_XML.replace(old, new))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: {what}')}$"):
        convert_opencv_xml(p)


def test_convert_opencv_xml_rejects_empty_rect(tmp_path):
    p = tmp_path / "partial.xml"
    p.write_text(OPENCV_XML.replace("<_>2 2 4 4 4.</_>", "<_></_>"))
    with pytest.raises(FormatError, match="rect needs 5 fields"):
        convert_opencv_xml(p)
