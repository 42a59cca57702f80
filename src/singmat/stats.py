"""Small statistics helpers: exact binomial intervals and chi-square
goodness of fit.  Thin wrappers over scipy.stats."""

from __future__ import annotations

from math import sqrt
from typing import Sequence

from scipy import stats as _sp


def clopper_pearson(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided binomial confidence interval."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    alpha = 1 - confidence
    lo = 0.0 if successes == 0 else float(_sp.beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(_sp.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi


def binomial_sigma(successes: int, trials: int) -> float:
    """Plug-in standard error of a binomial proportion."""
    phat = successes / trials
    return sqrt(phat * (1 - phat) / trials)


def chi_square_uniform(counts: Sequence[int]) -> tuple[float, float]:
    """Chi-square goodness-of-fit statistic and p-value against the
    uniform distribution over len(counts) categories."""
    stat, pvalue = _sp.chisquare(list(counts))
    return float(stat), float(pvalue)
