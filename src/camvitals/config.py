"""Pipeline configuration: defaults follow the reference acquisition setup
(full-HD 30 Hz video cropped by (300,300,200,0), physio at 128 Hz), with a
flat `key = value` file format and CLI override."""

import math
from dataclasses import dataclass, fields

from .detect import DEFAULT_MIN_NEIGHBORS, DEFAULT_SCALE_FACTOR, check_scale_factor
from .dsp import PHYSIO_STFT, VIDEO_STFT, DEFAULT_FILTER_ORDER, BandpassSpec, StftSpec
from .ingest import FormatError, named, not_ascii


@dataclass(frozen=True)
class PipelineConfig:
    # crop margins applied to every frame before detection (pixels)
    crop_left: int = 300
    crop_right: int = 300
    crop_top: int = 200
    crop_bottom: int = 0

    # detection
    scale_factor: float = DEFAULT_SCALE_FACTOR
    min_neighbors: int = DEFAULT_MIN_NEIGHBORS
    min_size: int = 0

    # rate estimation bands (Hz) and filtering
    hr_low: float = 0.7
    hr_high: float = 2.5
    rr_low: float = 0.2
    rr_high: float = 0.5
    filter_order: int = DEFAULT_FILTER_ORDER

    # spectral estimation, video-rate and physio-rate regimes
    video_window: int = VIDEO_STFT.window_len
    video_hop: int = VIDEO_STFT.hop
    video_fft: int = VIDEO_STFT.fft_size
    physio_window: int = PHYSIO_STFT.window_len
    physio_hop: int = PHYSIO_STFT.hop
    physio_fft: int = PHYSIO_STFT.fft_size

    # ECG peak detection
    ecg_detrend_s: float = 0.5
    ecg_refractory_s: float = 0.25
    ecg_percentile: float = 95.0
    ecg_threshold_factor: float = 0.5

    def __post_init__(self):
        check_scale_factor(self.scale_factor)
        # written as `not (x >= 0)` so that a NaN fails too
        if not (0 <= self.ecg_percentile <= 100):
            raise ValueError(f"ecg_percentile must be in [0, 100], got {self.ecg_percentile}")
        for name in ("ecg_refractory_s", "ecg_threshold_factor", "min_neighbors", "min_size"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # built here, so that a bad STFT shape or filter order is a config
        # error, which load_config names the file of, and not the first trial's
        video = StftSpec(self.video_window, self.video_hop, self.video_fft)
        physio = StftSpec(self.physio_window, self.physio_hop, self.physio_fft)
        object.__setattr__(self, "video_stft", video)
        object.__setattr__(self, "physio_stft", physio)
        object.__setattr__(self, "hr_bandpass",
                           BandpassSpec(self.hr_low, self.hr_high, self.filter_order))
        object.__setattr__(self, "rr_bandpass",
                           BandpassSpec(self.rr_low, self.rr_high, self.filter_order))

    @property
    def crop(self):
        return (self.crop_left, self.crop_right, self.crop_top, self.crop_bottom)


def load_config(path):
    """Parse a flat `key = value` config file over the PipelineConfig defaults.

    Blank lines and '#' comments are ignored; unknown keys are errors.
    """
    known = {f.name: f.type for f in fields(PipelineConfig)}
    updates = {}
    try:
        with open(path, "r", encoding="ascii") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected `key = value`")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in known:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    updates[key] = known[key](value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: config key {key}: cannot parse {value!r} "
                        f"as {known[key].__name__}") from None
                if known[key] is float and not math.isfinite(updates[key]):
                    raise ValueError(
                        f"{path}:{lineno}: config key {key}: {value!r} is not a number")
    except UnicodeDecodeError as e:
        raise FormatError(not_ascii(path, e)) from None
    with named(path):
        return PipelineConfig(**updates)
