"""Sampled signals and the order statistics of sample sets: the TimeSeries
that every layer passes on, and the one median and percentile of the
package (rate estimates, their flags, the ECG peak threshold and the
report's boxplots).

The median and percentile give the bits of `statistics.median`,
`np.median` and `np.percentile`. Those load modules that no subcommand
otherwise needs: the first `np.median` or `np.percentile` call imports
`numpy.ma`, and `statistics` imports `fractions` and `decimal`.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class TimeSeries:
    """Uniformly sampled scalar signal.

    Parameters
    ----------
    samples : array_like
        1-D float samples, all finite.
    sample_rate : float
        Samples per second, > 0.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if not (self.sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = float(self.sample_rate)

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate


def _sorted(values):
    """The values as a sorted float64 array; ValueError if there are none."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.ndim != 1 or len(v) == 0:
        raise ValueError(f"need a non-empty 1-D set of values, got shape {v.shape}")
    return v


def median(values):
    """The middle of the sorted values, or (a + b) / 2 of the two middle
    values a and b of an even count."""
    v = _sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) of the values by numpy's default
    "linear" rule: at index (n - 1) * (q / 100) of the n sorted values,
    interpolated between its two neighbours as numpy's `_lerp` does it,
    from the nearer neighbour."""
    v = _sorted(values)
    n = len(v)
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        # numpy takes the last value for both neighbours, at index -1
        lo, a, b = -1, v[-1], v[-1]
    else:
        lo = math.floor(index)
        a, b = v[lo], v[lo + 1]
    t = index - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t
