"""Interval and goodness-of-fit helpers."""

import pytest

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
