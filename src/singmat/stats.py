"""Small statistics helpers: exact binomial intervals and the plug-in
standard error.

``clopper_pearson`` inverts the regularized incomplete beta function.
At an all-or-nothing count, k = 0 or k = t, the one bound it needs has
a = 1 or b = 1, where the inverse has a closed form: I_x(t, 1) = x**t
and I_x(1, t) = 1 - (1 - x)**t.  These closed forms give the same
floats as ``scipy.special.betaincinv`` bit for bit (tested for every
t <= 10**5 and for log-spaced t up to 10**12), so a sweep whose counts
are all 0 or all t never imports scipy, which would be most of its
start-up time and memory.  Only an interior count 0 < k < t imports
``scipy.special.betaincinv``, on first use: its interior bounds are not
always correctly rounded, so an independent inverse would move the
sweep CSV's bytes.  scipy.special loads in about a third of the time
and half the memory of scipy.stats, whose ``beta.ppf`` gives the same
bounds."""

from __future__ import annotations

from math import expm1, log1p, sqrt

from .errors import InvalidInput


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided 99% binomial confidence interval,
    the level of every interval the harness reports."""
    if not 0 <= successes <= trials or trials < 1:
        raise InvalidInput("need 0 <= successes <= trials, trials >= 1")
    alpha = 1 - 0.99  # not 0.01, a different float: the sweep CSV pins these bounds
    k, t = successes, trials
    if k == 0:
        return 0.0, -expm1(log1p(-(1 - alpha / 2)) / t)
    if k == t:
        return float((alpha / 2) ** (1 / t)), 1.0
    from scipy.special import betaincinv

    return float(betaincinv(k, t - k + 1, alpha / 2)), float(betaincinv(k + 1, t - k, 1 - alpha / 2))


def binomial_sigma(successes: int, trials: int) -> float:
    """Plug-in standard error of a binomial proportion."""
    phat = successes / trials
    return sqrt(phat * (1 - phat) / trials)
