"""Axis-aligned pixel rectangles shared by detection, ROI selection and
synth, and the face search's shared terms: its default scale step and
neighbour count, the scale check and DetectionError. The config and the
CLI read these without loading the detector."""

from typing import NamedTuple

DEFAULT_SCALE_FACTOR = 1.1
DEFAULT_MIN_NEIGHBORS = 3


class DetectionError(RuntimeError):
    """Face tracking failed on every frame of a clip."""


class Rect(NamedTuple):
    x: int
    y: int
    w: int
    h: int

    @property
    def right(self):
        return self.x + self.w

    @property
    def bottom(self):
        return self.y + self.h

    @property
    def area(self):
        return self.w * self.h

    def inside(self, width, height):
        """True if the rectangle lies fully within a width x height frame."""
        return self.x >= 0 and self.y >= 0 and self.right <= width and self.bottom <= height


def validate_rect(r, width, height, what):
    if r.w <= 0 or r.h <= 0:
        raise ValueError(f"{what} has non-positive size: {r}")
    if not r.inside(width, height):
        raise ValueError(f"{what} {r} outside {width}x{height} frame")
    return r


def check_scale_factor(scale_factor):
    """Raise ValueError unless the window grows by scale_factor > 1."""
    if not scale_factor > 1:
        raise ValueError(f"scale_factor must be > 1, got {scale_factor}")
