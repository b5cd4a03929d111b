"""Axis-aligned pixel rectangles shared by detection, ROI selection and synth."""

from typing import NamedTuple


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
