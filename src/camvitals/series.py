"""Sampled signals and the statistics of sample sets: the TimeSeries that
every layer passes on, the one median and percentile of the package (rate
estimates, their flags, the ECG peak threshold and the report's
boxplots), and the sum, mean and linspace of the report's arithmetic.

The median and percentile give the bits of `statistics.median`,
`np.median` and `np.percentile`. Those load modules that no subcommand
otherwise needs: the first `np.median` or `np.percentile` call imports
`numpy.ma`, and `statistics` imports `fractions` and `decimal`. The sum,
mean and linspace give the bits of `np.sum`, `np.mean` and `np.linspace`
on float64, in plain floats, so that `evaluate` loads no numpy. Nothing
here imports numpy at module level: `cli` imports this module.
"""

import math
from dataclasses import dataclass
from functools import reduce
from operator import add


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

    samples: "np.ndarray"
    sample_rate: float

    def __post_init__(self):
        import numpy as np

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
    """The values sorted: an array as a float64 array by numpy's sort, 30
    times as fast as a list sort on a 20 s ECG trial's 2,560 values, and
    any other sequence as a list of floats; ValueError unless they are a
    non-empty 1-D set."""
    v = values.astype("f8") if hasattr(values, "astype") else [float(x) for x in values]
    if len(v) == 0 or getattr(v, "ndim", 1) != 1:
        raise ValueError("need a non-empty 1-D set of values")
    v.sort()
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


def _pairwise_sum(v):
    """numpy's pairwise sum of a list of floats, in its order of additions:
    below 8 values in sequence from -0.0; up to 128 in eight strided
    accumulators, joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    rest in sequence; above 128 split at n/2 rounded down to a multiple
    of 8. A left fold of `add`, not `sum()`, which compensates its
    rounding from Python 3.12 on."""
    n = len(v)
    if n < 8:
        return reduce(add, v, -0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, v[j:m:8]) for j in range(8)]
        joined = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, v[m:], joined)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])


def total(values):
    """The sum of a list of floats as np.sum of the float64 array: the
    reduction adds the pairwise sum to 0.0."""
    return 0.0 + _pairwise_sum(values)


def mean(values):
    """The mean of a non-empty list of floats as np.mean gives it."""
    return total(values) / len(values)


def linspace(start, stop, n):
    """np.linspace(start, stop, n) of floats, n >= 2, as a list: value i is
    i * step + start, step = (stop - start) / (n - 1), and the last value
    is stop. A step that underflows to 0 is numpy's too: then value i is
    i / (n - 1) * (stop - start) + start."""
    delta = stop - start
    step = delta / (n - 1)
    values = [i * step + start if step else i / (n - 1) * delta + start for i in range(n)]
    values[-1] = stop
    return values
