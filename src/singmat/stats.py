"""Small statistics helpers: exact binomial intervals and the plug-in
standard error.  ``clopper_pearson`` wraps scipy.stats, imported on
first use so that importing the package does not pay for it."""

from __future__ import annotations

from math import sqrt


def clopper_pearson(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided binomial confidence interval."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    from scipy.stats import beta

    alpha = 1 - confidence
    lo = 0.0 if successes == 0 else float(beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi


def binomial_sigma(successes: int, trials: int) -> float:
    """Plug-in standard error of a binomial proportion."""
    phat = successes / trials
    return sqrt(phat * (1 - phat) / trials)
