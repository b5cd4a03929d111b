"""In-process tracer for the benchmark's traced run.

`Tracer.installed()` replaces public functions of the camvitals modules
with timing wrappers in every camvitals namespace that binds them (the
package imports names with `from .x import y`, so a function is looked
up in its callers' modules, not only its own). No file of the package
changes. Each wrapper records busy (self) time: its span's duration minus
the time of traced calls made inside it on the same thread, summed across
threads. Work counters are computed from each call's arguments, so the
tracer never wraps per-window or per-pixel functions.
"""

import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import camvitals.cli
from camvitals import detect, dsp, evaluation, groundtruth, ingest, synth, vitals

_MODULES = {m.__name__.rsplit(".", 1)[-1]: m
            for m in (camvitals.cli, detect, dsp, evaluation, groundtruth,
                      ingest, synth, vitals)}


def scan_windows(cascade, shape, scale_factor, min_size):
    """Windows `detect.detect_faces` evaluates on a frame of `shape`,
    from the scan geometry in its docstring: the window grows by
    scale_factor from the cascade's base size while it fits, windows
    smaller than min_size are skipped, and the slide step is
    max(1, round(scale))."""
    img_h, img_w = shape
    total = 0
    scale = 1.0
    while True:
        ww = int(round(cascade.window_w * scale))
        wh = int(round(cascade.window_h * scale))
        if ww > img_w or wh > img_h:
            return total
        if ww >= min_size and wh >= min_size:
            step = max(1, int(round(scale)))
            total += (len(range(0, img_h - wh + 1, step))
                      * len(range(0, img_w - ww + 1, step)))
        scale *= scale_factor


def stft_windows(n_samples, spec):
    """Windows `dsp.stft_peak_freqs` analyses in a signal of n_samples."""
    return len(range(0, n_samples - spec.window_len + 1, spec.hop))


def ppm_file_bytes(width, height):
    """Size of one frame file as `ingest.write_ppm` writes it."""
    return len(b"P6\n%d %d\n255\n" % (width, height)) + width * height * 3


# counters: (bound arguments, result) -> {counter: increment}

def _frames_read(a, _):
    m = a["manifest"]
    return {"ingest.frames_read": a["frame_count"],
            "ingest.ppm_bytes_read": a["frame_count"] * ppm_file_bytes(m.width, m.height)}


def _scan(a, boxes):
    return {"detect.frames_scanned": 1, "detect.hits": int(bool(boxes)),
            "detect.windows_scanned": scan_windows(a["c"], a["gray"].shape,
                                                   a["scale_factor"], a["min_size"])}


def _roi_pixels(a, _):
    return {"vitals.roi_pixels": sum(r.w * r.h for r in a["rois"])}


# (module, function, counter); span metric "<module>.<function>_s"
SPANS = (
    ("ingest", "read_frame_range", _frames_read),
    ("ingest", "load_physio_csv", lambda a, rec: {"ingest.physio_rows": len(rec.ecg)}),
    ("ingest", "to_grayscale", None),
    ("ingest", "crop_clip", None),
    ("ingest", "write_ppm", None),
    ("ingest", "write_physio_csv", None),
    ("synth", "synth_clip", lambda a, res: {"synth.frames_rendered": res[0].n_frames}),
    ("detect", "track_roi", None),
    ("detect", "detect_faces", _scan),
    ("detect", "group_rects", lambda a, _: {"detect.candidates": len(a["candidates"])}),
    ("vitals", "pulse_trace", _roi_pixels),
    ("vitals", "mean_gray_trace", _roi_pixels),
    ("evaluation", "skin_tone_gray", None),
    ("evaluation", "segment_trials", None),
    ("evaluation", "emit_report", None),
    ("dsp", "bandpass", lambda a, _: {"dsp.bandpass_calls": 1}),
    ("dsp", "stft_peak_freqs",
     lambda a, _: {"dsp.stft_windows": stft_windows(len(a["ts"]), a["spec"])}),
    ("groundtruth", "ecg_peaks", None),
    ("groundtruth", "ppg_like", None),
)

# per-layer metrics of the traced run: (name, unit, better)
COUNTERS = (
    ("ingest.frames_read", "count", "lower"),
    ("ingest.ppm_bytes_read", "B", "lower"),
    ("ingest.physio_rows", "count", "lower"),
    ("synth.frames_rendered", "count", "lower"),
    ("detect.frames_scanned", "count", "lower"),
    ("detect.windows_scanned", "count", "lower"),
    ("detect.candidates", "count", "lower"),
    ("vitals.roi_pixels", "px", "lower"),
    ("dsp.bandpass_calls", "count", "lower"),
    ("dsp.stft_windows", "count", "lower"),
)
COMPUTED_COUNTERS = ("detect.windows_scanned", "dsp.stft_windows",
                     "ingest.ppm_bytes_read", "vitals.roi_pixels")


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.busy[name] += dt - children
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                increments = counter(bound.arguments, result)
                with self._lock:
                    for key, n in increments.items():
                        self.counts[key] += n
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function into each camvitals namespace that
        binds it; restore the originals on exit."""
        patched = []
        for module, function, counter in SPANS:
            original = getattr(_MODULES[module], function)
            wrapper = self._wrap(f"{module}.{function}_s", original, counter)
            for mod in _MODULES.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def metrics(self):
        """{name: (value, unit)} for every span and counter."""
        out = {f"{m}.{f}_s": (self.busy[f"{m}.{f}_s"], "s") for m, f, _ in SPANS}
        out.update({name: (self.counts[name], unit) for name, unit, _ in COUNTERS})
        scanned = self.counts["detect.frames_scanned"]
        out["detect.hit_frac"] = (self.counts["detect.hits"] / scanned if scanned else 0.0, "1")
        return out
