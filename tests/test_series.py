"""The package's median and percentile give the bits of statistics.median,
np.median and np.percentile, and its sum, mean and linspace those of
np.sum, np.mean and np.linspace on float64, which they replace on the CLI
path."""

import statistics

import numpy as np
import pytest

from camvitals.config import PipelineConfig
from camvitals.dsp import detrend
from camvitals.series import linspace, mean, median, percentile, total
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


def test_median_and_percentile_of_a_list_are_those_of_its_array():
    # evaluate passes lists, which are sorted as lists
    for x in seeded_sets():
        assert bits(median(x.tolist())) == bits(median(x)), x
        for q in QS:
            assert bits(percentile(x.tolist(), q)) == bits(percentile(x, q)), (x, q)


def test_total_and_mean_are_numpy_sum_and_mean_bit_for_bit():
    # every length from 1 to 400 crosses numpy's 8-, 128- and 256-value
    # splits of its pairwise sum
    rng = np.random.default_rng(34)
    for n in range(1, 401):
        for kind in range(4):
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
            if kind == 1:
                x[rng.random(n) < 0.3] = -0.0
                x[rng.random(n) < 0.2] = 0.0
            elif kind == 2:
                x = -np.abs(x)
            elif kind == 3:
                x = np.full(n, -0.0)
                x[rng.random(n) < 0.1] = 0.0
            assert bits(total(x.tolist())) == bits(np.sum(x)), x
            assert bits(mean(x.tolist())) == bits(np.mean(x)), x


def test_linspace_is_numpy_linspace_bit_for_bit():
    rng = np.random.default_rng(35)
    ends = [tuple(rng.normal(size=2) * 10.0 ** rng.integers(-3, 4, size=2)) for _ in range(500)]
    # equal ends, and a step that underflows to 0
    ends += [(1.5, 1.5), (0.0, 5e-324), (-1e-322, 1e-322)]
    for start, stop in ends:
        for n in (5, 50):   # the report's tick and band counts
            want = np.linspace(start, stop, n)
            assert [bits(v) for v in linspace(start, stop, n)] == [bits(v) for v in want], \
                (start, stop, n)


@pytest.mark.parametrize("statistic", [median, lambda x: percentile(x, 50.0)])
def test_no_values_is_a_value_error(statistic):
    with pytest.raises(ValueError):
        statistic([])
