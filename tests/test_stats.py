"""Interval and goodness-of-fit helpers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta

import singmat
from oracles import chi_square_uniform
from singmat.stats import binomial_sigma, clopper_pearson


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 20, confidence=0.99)
    assert lo == 0.0
    # hi solves (1-hi)^20 = 0.005
    assert abs((1 - hi) ** 20 - 0.005) < 1e-9
    lo, hi = clopper_pearson(20, 20, confidence=0.99)
    assert hi == 1.0
    assert abs(lo**20 - 0.005) < 1e-9


def test_clopper_pearson_contains_point_estimate():
    for k, n in ((1, 10), (5, 10), (37, 100), (99, 100)):
        lo, hi = clopper_pearson(k, n)
        assert lo <= k / n <= hi


# Every trial count up to 60, which covers the benchmark's sweep chunks
# and the test sweeps, plus larger ones such as the 200-trial acceptance
# sweep.
_GRID_TRIALS = (*range(1, 61), 100, 200, 500, 1000)


@pytest.mark.parametrize("confidence", [0.99, 0.95])
def test_clopper_pearson_matches_the_beta_quantiles(confidence):
    """The betaincinv bounds equal scipy.stats.beta.ppf's, bit for bit,
    on every successes count of every grid trial count."""
    alpha = 1 - confidence
    for t in _GRID_TRIALS:
        k = np.arange(t + 1)
        lo = np.where(k == 0, 0.0, beta.ppf(alpha / 2, np.maximum(k, 1), t - k + 1))
        hi = np.where(k == t, 1.0, beta.ppf(1 - alpha / 2, k + 1, np.maximum(t - k, 1)))
        got = [clopper_pearson(int(j), t, confidence) for j in k]
        assert got == list(zip(lo.tolist(), hi.tolist())), t


def test_one_cell_sweep_leaves_scipy_stats_unloaded(tmp_path):
    """The sweep's intervals need scipy.special only."""
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from singmat.harness import SweepConfig, run_sweep\n"
        f"cfg = SweepConfig('bernoulli', (12,), (Fraction(1),), 3, 1, {str(tmp_path / 'cell.csv')!r})\n"
        "aggs, _ = run_sweep(cfg)\n"
        "print(len(aggs), 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
    )
    src = str(Path(singmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["1", "True", "False"], proc.stderr


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


def test_binomial_sigma():
    assert binomial_sigma(0, 100) == 0.0
    assert abs(binomial_sigma(50, 100) - 0.05) < 1e-12


def test_chi_square_uniform_extremes():
    _, p_flat = chi_square_uniform([100, 100, 100, 100])
    assert p_flat > 0.99
    _, p_skew = chi_square_uniform([400, 0, 0, 0])
    assert p_skew < 1e-6
