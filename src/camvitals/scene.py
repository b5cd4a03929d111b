"""The synthetic scene's settings and layout: `SynthConfig` and
`scene_geometry`, which `synth` renders and the `synth` subcommand's
options default to. They sit apart from the renderer, so that building
the command line parser loads no renderer."""

import math
from dataclasses import dataclass

from .geometry import Rect


@dataclass(frozen=True)
class SynthConfig:
    width: int = 64
    height: int = 64
    fps: float = 30.0
    duration: float = 20.0
    hr_bpm: float = 72.0
    rr_brpm: float = 15.0
    tone: float = 1.0
    pulse_amp: float = 0.01
    chest_amp: float = 1.5
    noise_sigma: float = 0.0
    blur_radius: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.tone <= 1):
            raise ValueError(f"tone must be in (0, 1], got {self.tone}")
        if not (30 <= self.hr_bpm <= 220):
            raise ValueError(f"hr_bpm {self.hr_bpm} outside [30, 220]")
        if not (6 <= self.rr_brpm <= 60):
            raise ValueError(f"rr_brpm {self.rr_brpm} outside [6, 60]")
        if self.noise_sigma < 0 or self.blur_radius < 0 or self.chest_amp < 0:
            raise ValueError("noise_sigma, blur_radius and chest_amp must be >= 0")
        if not (0 < self.fps < math.inf and 0 <= self.duration < math.inf):
            raise ValueError("fps must be positive and duration non-negative, both finite")
        w, h = self.width, self.height
        face, chest_top = scene_geometry(w, h)
        if not face.inside(w, h) or face.h < 2:
            raise ValueError(f"face {face} does not fit a {w}x{h} frame")
        if chest_top - self.chest_amp < face.bottom or chest_top + self.chest_amp > h - 1:
            raise ValueError(
                f"chest band (top {chest_top} +- {self.chest_amp}px) does not fit "
                f"between face bottom {face.bottom} and frame bottom {h}")

    @property
    def n_frames(self):
        """Frames of the clip: duration * fps, rounded."""
        return int(round(self.duration * self.fps))


def scene_geometry(width, height):
    """Face box (centered, one third of the frame height) and the resting
    top edge of the chest band."""
    face_h = height // 3
    face_w = max(2, int(round(face_h * 0.75)))
    face = Rect((width - face_w) // 2, height // 6, face_w, face_h)
    chest_top = face.bottom + max(2, height // 16)
    return face, chest_top
