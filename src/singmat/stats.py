"""Small statistics helpers: exact binomial intervals and the plug-in
standard error.  ``clopper_pearson`` inverts the regularized incomplete
beta function with ``scipy.special.betaincinv``, imported on first use
so that importing the package does not pay for it; scipy.special loads
in about a third of the time and half the memory of scipy.stats, whose
``beta.ppf`` gives the same bounds."""

from __future__ import annotations

from math import sqrt


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided 99% binomial confidence interval,
    the level of every interval the harness reports."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    from scipy.special import betaincinv

    alpha = 1 - 0.99  # not 0.01, a different float: the sweep CSV pins these bounds
    k, t = successes, trials
    lo = 0.0 if k == 0 else float(betaincinv(k, t - k + 1, alpha / 2))
    hi = 1.0 if k == t else float(betaincinv(k + 1, t - k, 1 - alpha / 2))
    return lo, hi


def binomial_sigma(successes: int, trials: int) -> float:
    """Plug-in standard error of a binomial proportion."""
    phat = successes / trials
    return sqrt(phat * (1 - phat) / trials)
