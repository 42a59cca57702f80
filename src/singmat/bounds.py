"""Exact evaluation of the closed-form probability bounds.

Everything is computed in rational arithmetic.  Union-bound sums stay
fully exact up to a dimension cutoff; past it, per-term powers are
rounded *up* to 256-significant-bit dyadic rationals (so the result is
still a true upper bound), which keeps numerator sizes tame at any n.
The Bernoulli atom DP carries integer weights over b**m, for p = a/b
and m entries, and divides once at the end.

Vectors are plain sequences of exact rationals (ints or Fractions),
such as the integer kernel vectors of ``exactla``.  Entry probabilities
must lie in [0, 1], atom moduli be at least 1, the union bound's q at
least 2 and its s_max nonnegative; anything else raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import BudgetExceeded, PairingInfeasible
from .models import sample_pairing
from .stats import clopper_pearson

EXACT_UNION_N = 64
ROUND_BITS = 256
ATOM_BERNOULLI_MAX_LEN = 30
ATOM_DP_MAP_BUDGET = 2_000_000
ATOM_COMB_BUDGET = 10**6


def _probability(p) -> Fraction:
    """p as a Fraction, if it lies in [0, 1]."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p = {p} is not a probability")
    return p


def p_even(s: int, p) -> Fraction:
    """Probability that a Binomial(s, p) variable is even:
    1/2 + (1-2p)**s / 2, exactly."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    p = _probability(p)
    return (1 + (1 - 2 * p) ** s) / 2


def _round_up(x: Fraction, bits: int = ROUND_BITS) -> Fraction:
    """Smallest dyadic rational >= x with about ``bits`` significant bits."""
    if x == 0:
        return x
    if x < 0:
        raise ValueError("round-up helper expects nonnegative values")
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    if shift >= 0:
        num = -((-x.numerator << shift) // x.denominator)
        return Fraction(num, 1 << shift)
    num = -((-x.numerator) // (x.denominator << -shift))
    return Fraction(num << -shift)


def _pow_round_up(base: Fraction, exponent: int, bits: int = ROUND_BITS) -> Fraction:
    """Upper bound on base**exponent by square-and-multiply, rounding up
    after every step."""
    result = Fraction(1)
    b = _round_up(base, bits)
    e = exponent
    while e:
        if e & 1:
            result = _round_up(result * b, bits)
        b = _round_up(b * b, bits)
        e >>= 1
    return result


def _check_s_max(n: int, s_max: int) -> None:
    if not 0 <= s_max <= n:
        raise ValueError(f"s_max must lie in [0, n], got {s_max}")


def union_bound_ber(n: int, p, s_max: int) -> Fraction:
    """Sum over s = 1..s_max of C(n, s) * p_even(s, p)**(n-1).

    Exact for n <= 64; above that every power is rounded up to dyadic
    form, so the value remains a valid upper bound.
    """
    p = _probability(p)
    _check_s_max(n, s_max)
    exact = n <= EXACT_UNION_N
    total = Fraction(0)
    for s in range(1, s_max + 1):
        base = p_even(s, p)
        power = base ** (n - 1) if exact else _pow_round_up(base, n - 1)
        total += comb(n, s) * power
    return total


def union_bound_comb(n: int, q: int, s_max: int, P_values: Sequence) -> Fraction:
    """Sum over s = 1..s_max of C(n, s) * q**(s+1) * P_values[s-1]**(n-1),
    with the same round-up policy as union_bound_ber.

    P_values supplies the per-s orthogonality bounds (from exact atom
    enumeration or an analytic surrogate)."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    _check_s_max(n, s_max)
    if len(P_values) < s_max:
        raise ValueError(f"need {s_max} P values, got {len(P_values)}")
    values = [Fraction(v) for v in P_values]
    if any(not 0 <= v <= 1 for v in values):
        raise ValueError("P values must lie in [0, 1]")
    exact = n <= EXACT_UNION_N
    total = Fraction(0)
    for s in range(1, s_max + 1):
        base = values[s - 1]
        power = base ** (n - 1) if exact else _pow_round_up(base, n - 1)
        total += comb(n, s) * q ** (s + 1) * power
    return total


@dataclass(frozen=True)
class AtomResult:
    """Largest point mass of a random weighted sum and where it sits."""

    max_prob: Fraction
    argmax: Fraction | int


def max_atom_bernoulli(x: Sequence, p) -> AtomResult:
    """Exact maximal atom of x_1 xi_1 + ... + x_n xi_n with i.i.d.
    Bernoulli(p) coefficients, by subset-sum dynamic programming over
    the distinct reachable sums (ints for an integer vector).

    With p = a/b in lowest terms, each sum carries an integer weight,
    its probability times b**n: a step sends weight w at sum v to
    w (b - a) at v and w a at v + x_i.
    """
    if len(x) > ATOM_BERNOULLI_MAX_LEN:
        raise BudgetExceeded(
            f"vector length {len(x)} exceeds DP budget {ATOM_BERNOULLI_MAX_LEN}"
        )
    p = _probability(p)
    a, b = p.numerator, p.denominator
    stay = b - a
    dist: dict = {0: 1}
    for xi in x:
        new: dict = {}
        for value, weight in dist.items():
            new[value] = new.get(value, 0) + weight * stay
            shifted = value + xi
            new[shifted] = new.get(shifted, 0) + weight * a
        if len(new) > ATOM_DP_MAP_BUDGET:
            raise BudgetExceeded("distinct-sum map exceeded its budget")
        dist = new
    top = max(dist.values())
    argmax = min(v for v, w in dist.items() if w == top)
    return AtomResult(Fraction(top, b ** len(x)), argmax)


def max_atom_combinatorial(x: Sequence, d: int, modulus: int | None = None) -> AtomResult:
    """Exact maximal atom of x . gamma for gamma a uniform d-subset
    indicator, optionally with sums reduced mod q (integer entries and
    q >= 1 only), by full enumeration of all C(n, d) subsets."""
    n = len(x)
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    total = comb(n, d)
    if total > ATOM_COMB_BUDGET:
        raise BudgetExceeded(f"C({n},{d}) = {total} exceeds budget {ATOM_COMB_BUDGET}")
    entries = x
    if modulus is not None:
        if modulus < 1:
            raise ValueError(f"modulus must be at least 1, got {modulus}")
        if any(Fraction(e).denominator != 1 for e in x):
            raise ValueError("a modulus needs integer entries")
        entries = [int(e) for e in x]
    counts: dict = {}
    for subset in combinations(range(n), d):
        value = sum(entries[i] for i in subset)
        if modulus is not None:
            value %= modulus
        counts[value] = counts.get(value, 0) + 1
    best = max(counts.values())
    argmax = min(v for v, c in counts.items() if c == best)
    return AtomResult(Fraction(best, total), argmax)


def binomial_point_mass(n: int, p, d: int) -> Fraction:
    """C(n, d) p**d (1-p)**(n-d), exactly."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    p = _probability(p)
    return comb(n, d) * p**d * (1 - p) ** (n - d)


@dataclass(frozen=True)
class DisagreementEstimate:
    """Monte Carlo estimate of the probability that some random pair
    straddles two fibres of a fixed vector."""

    hits: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci_high - self.ci_low) / 2


def pairing_disagreement_prob(
    v: Sequence, n: int, d: int, trials: int, seed: int
) -> DisagreementEstimate:
    """Estimate the probability that at least one of d random disjoint
    pairs (i, j) has v_i != v_j, with a 99% Clopper-Pearson interval."""
    if len(v) != n:
        raise ValueError("vector length must equal n")
    if 2 * d > n:
        raise PairingInfeasible(f"cannot place {2 * d} distinct indices in [0, {n})")
    if trials < 1:
        raise ValueError("trials must be positive")
    from .rng import derive_seed

    hits = 0
    for t in range(trials):
        pairing = sample_pairing(n, d, derive_seed(seed, t))
        if any(v[i] != v[j] for i, j in pairing.pairs):
            hits += 1
    lo, hi = clopper_pearson(hits, trials)
    return DisagreementEstimate(hits, trials, hits / trials, lo, hi)
