"""Random zero-one matrix samplers and related transforms.

Two models: independent Bernoulli(p) entries, and rows drawn uniformly
from the weight-d slice (the combinatorial model).  Both are driven by
the counter-based generator in :mod:`singmat.rng`, with row i of a
matrix read from the child stream ``derive_seed(seed, i)``, so matrices
are reproducible bit for bit and rows can be generated in parallel.

A matrix is drawn in bulk: one ``u64_block`` grid holds every row's
stream outputs, Bernoulli rows are that grid compared with the
threshold, and combinatorial rows run their partial Fisher-Yates swaps
on all rows at once.  A combinatorial draw that ``Stream.below`` would
reject (probability below n / 2**64 per row) sends its row to the scalar
sampler, so every row equals the scalar one.

Probabilities are exact rationals realized by comparing a 64-bit draw
against floor(p * 2**64); the resulting bias is below 2**-64 and is
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PairingInfeasible
from .matrices import BitMatrix, pack_rows
from .rng import MASK64, Stream, bernoulli_threshold, derive_seeds, u64_block


@dataclass(frozen=True)
class SampleSpec:
    """Which model to draw from, at what size, under which seed."""

    model: str  # "bernoulli" | "combinatorial"
    n: int
    seed: int
    p: Fraction | None = None
    d: int | None = None

    def __post_init__(self):
        if self.model not in ("bernoulli", "combinatorial"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.model == "bernoulli":
            if self.p is None or not 0 <= self.p <= 1:
                raise ValueError("bernoulli model needs 0 <= p <= 1")
            object.__setattr__(self, "p", Fraction(self.p))
        else:
            if self.d is None or not 0 <= self.d <= self.n:
                raise ValueError("combinatorial model needs 0 <= d <= n")

    @classmethod
    def bernoulli(cls, n: int, p, seed: int) -> SampleSpec:
        return cls("bernoulli", n, seed, p=Fraction(p))

    @classmethod
    def combinatorial(cls, n: int, d: int, seed: int) -> SampleSpec:
        return cls("combinatorial", n, seed, d=d)


@dataclass(frozen=True)
class PairingSample:
    """d disjoint ordered index pairs plus one fair coin per pair.

    The induced one-set takes pair k's first element where the coin is
    1, else the second; it is a uniform d-subset of [0, n).
    """

    n: int
    pairs: tuple[tuple[int, int], ...]
    choices: tuple[int, ...]

    def __post_init__(self):
        seen = set()
        for i, j in self.pairs:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError("pair index out of range")
            seen.update((i, j))
        if len(seen) != 2 * len(self.pairs):
            raise ValueError("pair indices must be distinct")
        if len(self.choices) != len(self.pairs):
            raise ValueError("one choice bit per pair")
        if any(c not in (0, 1) for c in self.choices):
            raise ValueError("choices must be bits")

    def one_set(self) -> frozenset[int]:
        return frozenset(i if c else j for (i, j), c in zip(self.pairs, self.choices))


def sample(spec: SampleSpec) -> BitMatrix:
    """n x n matrix of the spec's model, row i drawn from the stream
    ``derive_seed(spec.seed, i)``."""
    return BitMatrix(spec.n, spec.n, sample_rows(spec, derive_seeds(spec.seed, spec.n)))


def sample_rows(spec: SampleSpec, row_seeds: np.ndarray) -> tuple[int, ...]:
    """Packed rows of the row law of ``spec`` (model, n and density; its
    seed is not read), row i drawn from the stream ``row_seeds[i]``.

    All rows come from one ``u64_block`` call.
    """
    n = spec.n
    if spec.model == "combinatorial":
        return _subset_rows(u64_block(row_seeds, spec.d), row_seeds, n)
    threshold = bernoulli_threshold(spec.p.numerator, spec.p.denominator)
    if threshold == 0:
        return (0,) * len(row_seeds)
    if threshold > MASK64:
        return ((1 << n) - 1,) * len(row_seeds)
    return pack_rows(u64_block(row_seeds, n) < np.uint64(threshold))


def _subset_rows(draws: np.ndarray, row_seeds: np.ndarray, n: int) -> tuple[int, ...]:
    """Packed uniform d-subsets of [0, n), d = draws.shape[1]: the
    partial Fisher-Yates pass of ``_uniform_subset_row`` run on all rows
    at once, step k of row i taking ``draws[i, k] % (n - k)``.

    ``Stream.below(m)``, m = n - k, rejects a draw at or above
    2**64 - (2**64 mod m), which happens with probability below n / 2**64
    per draw; such a row is recomputed by the scalar path from its stream,
    which draws past the rejected value.  The limit is 2**64 itself
    (nothing rejects) when m is a power of two.
    """
    n_rows, d = draws.shape
    at = np.arange(n_rows)
    idx = np.tile(np.arange(n), (n_rows, 1))
    rejected = np.zeros(n_rows, dtype=bool)
    for k in range(d):
        m = n - k
        if (1 << 64) % m:
            rejected |= draws[:, k] >= np.uint64((1 << 64) - (1 << 64) % m)
        j = k + (draws[:, k] % np.uint64(m)).astype(np.intp)
        picked = idx[at, j]
        idx[at, j] = idx[:, k]
        idx[:, k] = picked
    bits = np.zeros((n_rows, n), dtype=np.uint8)
    bits[at[:, None], idx[:, :d]] = 1
    rows = pack_rows(bits)
    if not rejected.any():
        return rows
    return tuple(
        _uniform_subset_row(Stream(int(row_seeds[i])), n, d) if rejected[i] else row
        for i, row in enumerate(rows)
    )


def _uniform_subset_row(stream: Stream, n: int, d: int) -> int:
    """Packed indicator of a uniform d-subset via partial Fisher-Yates."""
    idx = list(range(n))
    for k in range(d):
        j = k + stream.below(n - k)
        idx[k], idx[j] = idx[j], idx[k]
    row = 0
    for b in idx[:d]:
        row |= 1 << b
    return row


def sample_pairing(n: int, d: int, seed: int) -> PairingSample:
    """d uniformly random disjoint ordered pairs plus d fair coins.

    Pairs come from a partial Fisher-Yates pass (positions 0..2d-1 of a
    random permutation, consecutive positions paired in order), then one
    coin per pair.
    """
    if 2 * d > n:
        raise PairingInfeasible(f"cannot place {2 * d} distinct indices in [0, {n})")
    stream = Stream(seed)
    idx = list(range(n))
    for k in range(2 * d):
        j = k + stream.below(n - k)
        idx[k], idx[j] = idx[j], idx[k]
    pairs = tuple((idx[2 * k], idx[2 * k + 1]) for k in range(d))
    choices = tuple(stream.bit() for _ in range(d))
    return PairingSample(n, pairs, choices)


@dataclass(frozen=True)
class LineReport:
    """Zero and duplicate rows/columns of a matrix.

    Any nonempty field witnesses singularity (for square matrices).
    Duplicate pairs are reported as (first occurrence, later occurrence),
    one pair per later occurrence.
    """

    zero_rows: tuple[int, ...]
    zero_cols: tuple[int, ...]
    duplicate_row_pairs: tuple[tuple[int, int], ...]
    duplicate_col_pairs: tuple[tuple[int, int], ...]


def _scan_lines(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    zeros = tuple(i for i, r in enumerate(rows) if r == 0)
    first_seen: dict[int, int] = {}
    dups = []
    for i, r in enumerate(rows):
        if r in first_seen:
            dups.append((first_seen[r], i))
        else:
            first_seen[r] = i
    return zeros, tuple(dups)


def find_duplicate_or_zero_lines(m: BitMatrix) -> LineReport:
    """Exact zero/duplicate line detection by hashing packed rows."""
    zero_rows, dup_rows = _scan_lines(m.rows)
    zero_cols, dup_cols = _scan_lines(m.transpose().rows)
    return LineReport(zero_rows, zero_cols, dup_rows, dup_cols)
