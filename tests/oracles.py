"""Independent reference implementations used as test oracles.

Deliberately naive: unpacked lists, textbook elimination, exhaustive
enumeration.  These share no code with the package internals; the
sampler oracles read the streams only through the scalar definitions
``value_at``, ``derive_seed`` and ``Stream.below`` of ``singmat.rng``.
``chi_square_uniform`` wraps scipy; only the tests use it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd
from typing import Sequence

import numpy as np
from scipy import stats as _sp

from singmat.rng import Stream, derive_seed, value_at


def unpack_bits(word: int, width: int) -> tuple[int, ...]:
    """Bit j of a packed row as entry j, one shift at a time."""
    return tuple((word >> j) & 1 for j in range(width))


def naive_rank_gf2(rows: list[list[int]]) -> int:
    """Unpacked GF(2) Gaussian elimination on uint8 entries."""
    if not rows or not rows[0]:
        return 0
    R = (np.array(rows, dtype=np.uint8) % 2).copy()
    m, n = R.shape
    rank = 0
    for col in range(n):
        pivot = -1
        for row in range(rank, m):
            if R[row, col]:
                pivot = row
                break
        if pivot < 0:
            continue
        R[[rank, pivot]] = R[[pivot, rank]]
        for row in range(rank + 1, m):
            if R[row, col]:
                R[row] ^= R[rank]
        rank += 1
    return rank


def naive_bernoulli_rows(n: int, p: Fraction, seed: int) -> list[list[int]]:
    """Bernoulli(p) matrix entry by entry: (i, j) is 1 iff output j of
    row stream i is below floor(p * 2**64)."""
    threshold = (p.numerator << 64) // p.denominator
    return [
        [int(value_at(derive_seed(seed, i), j) < threshold) for j in range(n)]
        for i in range(n)
    ]


def naive_combinatorial_rows(n: int, d: int, seed: int) -> list[list[int]]:
    """Weight-d rows by a partial Fisher-Yates pass per row stream, one
    ``Stream.below`` draw per step."""
    rows = []
    for i in range(n):
        stream = Stream(derive_seed(seed, i))
        idx = list(range(n))
        for k in range(d):
            j = k + stream.below(n - k)
            idx[k], idx[j] = idx[j], idx[k]
        ones = set(idx[:d])
        rows.append([int(j in ones) for j in range(n)])
    return rows


def naive_det(rows: list[list]) -> Fraction:
    """Exact determinant by Fraction Gaussian elimination."""
    n = len(rows)
    M = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            det = -det
        det *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det


def naive_matvec(rows: list[list[int]], v: Sequence[int]) -> list[int]:
    """A v over the integers, one row at a time across every column."""
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


def naive_rank(rows: list[list], n_cols: int) -> int:
    """Rank over the rationals by Fraction Gaussian elimination."""
    M = [[Fraction(e) for e in row] for row in rows]
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(M)) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for i in range(rank + 1, len(M)):
            f = M[i][c] / M[rank][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def cleared(vector: Sequence) -> tuple[int, ...]:
    """The primitive integer multiple of a nonzero rational vector whose
    first nonzero entry is positive: scaled by the product of the
    denominators, then divided by the signed gcd of the result."""
    fracs = [Fraction(e) for e in vector]
    scale = 1
    for e in fracs:
        scale *= e.denominator
    ints = [int(e * scale) for e in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def naive_lu_product(packed: list[list[int]], p: int) -> list[list[int]]:
    """L U mod p on Python integers, where L is the strict lower part of
    the square ``packed`` plus the identity and U its upper part."""
    n = len(packed)
    L = [[packed[i][k] if k < i else int(k == i) for k in range(n)] for i in range(n)]
    U = [[packed[k][j] if k <= j else 0 for j in range(n)] for k in range(n)]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def naive_lu_solve(
    packed: list[list[int]], perm: list[int], pivots: list[int], p: int, b: list[int]
) -> list[int] | None:
    """y with (L U)[:, :r] y = b[perm] mod p on Python integers, or None
    when no y exists.  Row i of L is packed[i][pivots[k]] for k < i plus
    a one at k = i; row k of U is packed[k][pivots[j]] for j >= k.
    Substitutes row by row, forward through L, then back through U."""
    r = len(pivots)
    c = [b[i] for i in perm]
    z: list[int] = []
    for i, row in enumerate(packed):
        s = (c[i] - sum(row[pivots[k]] * z[k] for k in range(min(i, r)))) % p
        if i < r:
            z.append(s)
        elif s:
            return None
    y = [0] * r
    for k in range(r - 1, -1, -1):
        row = packed[k]
        s = z[k] - sum(row[pivots[j]] * y[j] for j in range(k + 1, r))
        y[k] = s * pow(row[pivots[k]], -1, p) % p
    return y


def brute_gf2_right_kernel(rows: list[list[int]], n_cols: int) -> set[tuple[int, ...]]:
    """All v (including 0) with A v = 0 mod 2, by trying every vector."""
    out = set()
    for bits in product((0, 1), repeat=n_cols):
        if all(sum(r[j] * bits[j] for j in range(n_cols)) % 2 == 0 for r in rows):
            out.add(bits)
    return out


def brute_even_mass(s: int, p: Fraction) -> Fraction:
    """Pr(Binomial(s, p) even) by summing the even-outcome pmf terms."""
    return sum(
        (comb(s, k) * p**k * (1 - p) ** (s - k) for k in range(0, s + 1, 2)),
        Fraction(0),
    )


def brute_even_mass_outcomes(s: int, p: Fraction) -> Fraction:
    """Same quantity by enumerating all 2**s outcome strings."""
    total = Fraction(0)
    for bits in product((0, 1), repeat=s):
        if sum(bits) % 2 == 0:
            prob = Fraction(1)
            for b in bits:
                prob *= p if b else 1 - p
            total += prob
    return total


def brute_atom_bernoulli(xs: list[Fraction], p: Fraction) -> tuple[Fraction, Fraction]:
    """(max point mass, smallest sum carrying it) of sum(x_i xi_i) over
    all 2**n outcomes."""
    masses: dict[Fraction, Fraction] = {}
    for bits in product((0, 1), repeat=len(xs)):
        value = sum((x for x, b in zip(xs, bits) if b), Fraction(0))
        prob = Fraction(1)
        for b in bits:
            prob *= p if b else 1 - p
        masses[value] = masses.get(value, Fraction(0)) + prob
    best = max(masses.values())
    return best, min(v for v, mass in masses.items() if mass == best)


def chi_square_uniform(counts: Sequence[int]) -> tuple[float, float]:
    """Chi-square goodness-of-fit statistic and p-value against the
    uniform distribution over len(counts) categories."""
    stat, pvalue = _sp.chisquare(list(counts))
    return float(stat), float(pvalue)
