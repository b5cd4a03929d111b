"""Pipeline configuration: defaults follow the reference acquisition setup
(30 Hz video, physio at 128 Hz), with a flat `key = value` file format;
the crop margins are no key, `estimate --crop` sets them."""

import math
from dataclasses import dataclass, fields

from .dsp import PHYSIO_STFT, VIDEO_STFT, DEFAULT_FILTER_ORDER, BandpassSpec, StftSpec
from .geometry import DEFAULT_MIN_NEIGHBORS, DEFAULT_SCALE_FACTOR, check_scale_factor
from .ingest import FormatError, named


@dataclass(frozen=True)
class PipelineConfig:
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


def load_config(path):
    """Parse a flat `key = value` config file over the PipelineConfig defaults.

    Blank lines and '#' comments are ignored; unknown keys are errors.
    """
    known = {f.name: f.type for f in fields(PipelineConfig)}
    updates = {}
    with named(path):
        with open(path, "r", encoding="ascii") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FormatError("expected `key = value`", lineno)
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in known:
                    raise FormatError(f"unknown config key {key!r}", lineno)
                try:
                    updates[key] = known[key](value)
                except ValueError:
                    raise FormatError(f"config key {key}: cannot parse {value!r} "
                                      f"as {known[key].__name__}", lineno) from None
                if known[key] is float and not math.isfinite(updates[key]):
                    raise FormatError(f"config key {key}: {value!r} is not a number", lineno)
        return PipelineConfig(**updates)
