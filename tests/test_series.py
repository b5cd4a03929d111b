"""The package's median and percentile give the bits of statistics.median,
np.median and np.percentile, which they replace on the CLI path."""

import statistics

import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.dsp import detrend
from camvitals.series import median, percentile
from camvitals.synth import PHYSIO_RATE, synth_ecg

QS = (0, 25, 75, 95, 100)


def bits(x):
    return np.float64(x).tobytes()


def seeded_sets():
    """Float arrays of 1 to 50 values: normal draws over six decades, with
    ties (rounded draws and repeats) and negative values."""
    rng = np.random.default_rng(29)
    for n in range(1, 51):
        for kind in range(4):
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            if kind == 1:
                x = np.round(x)
                # no signed-zero ties, whose order numpy's partition leaves open
                x[x == 0] = 0.0
            elif kind == 2:
                x = rng.choice(x[:max(1, n // 3)], size=n)
            elif kind == 3:
                x = -np.abs(x)
            yield x


def test_median_is_statistics_and_numpy_median_bit_for_bit():
    for x in seeded_sets():
        got = median(x)
        assert bits(got) == bits(np.median(x)) == bits(statistics.median(x.tolist())), x


def test_percentile_is_numpy_percentile_bit_for_bit():
    rng = np.random.default_rng(30)
    for x in seeded_sets():
        for q in QS + tuple(rng.uniform(0.0, 100.0, size=3)):
            assert bits(percentile(x, q)) == bits(np.percentile(x, q)), (x, q)


def test_percentile_of_synth_ecg_derivatives_at_the_default_q():
    cfg = PipelineConfig()
    rng = np.random.default_rng(31)
    for seed in range(20):
        hr = rng.uniform(60.0, 130.0)
        duration = (10.0, 20.0)[seed % 2]
        # synth's ECG channel of a trial, as the ECG peak search sees it
        ecg = synth_ecg(hr, PHYSIO_RATE, duration, jitter=0.05, seed=seed + 50_000)
        d = np.abs(np.diff(detrend(ecg, cfg.ecg_detrend_s).samples))
        assert bits(percentile(d, cfg.ecg_percentile)) == \
            bits(np.percentile(d, cfg.ecg_percentile))


@pytest.mark.parametrize("statistic", [median, lambda x: percentile(x, 50.0)])
def test_no_values_is_a_value_error(statistic):
    with pytest.raises(ValueError):
        statistic([])
