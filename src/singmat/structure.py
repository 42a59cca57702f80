"""Combinatorial structure of kernel vectors: supports and fibres.

A vector is any sequence of exact rationals: the kernel vectors of the
p-adic lift, primitive integers from ``exactla.kernel_vector_crt`` or
Fractions from ``exactla.kernel_rational`` for ``singmat analyze``.  A
fibre of a vector is a maximal set of indices holding one common value;
the complement size of the largest fibre (here ``s``) measures how far
the vector is from constant.  Fibre equality is exact rational equality
(an int equals the Fraction of the same value), never a tolerance.  The
lightest vector of a GF(2) kernel is found by walking its whole span,
so only small kernels are searched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyVector, InvalidInput, KernelTooLarge, SelfCheckFailed, check_int
from .exactla import kernel_gf2
from .matrices import BitMatrix


@dataclass(frozen=True)
class KernelStructureReport:
    """Support size and fibre histogram of one vector."""

    n: int
    support_size: int
    fibre_histogram: tuple[tuple[Fraction, int], ...]  # (value, count), by value
    largest_fibre_size: int
    s: int

    def histogram(self) -> dict[Fraction, int]:
        return dict(self.fibre_histogram)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "support_size": self.support_size,
            "fibre_histogram": [[str(v), c] for v, c in self.fibre_histogram],
            "largest_fibre_size": self.largest_fibre_size,
            "s": self.s,
        }


def analyze_vector(x: Sequence) -> KernelStructureReport:
    """Exact support and fibre statistics of a vector of rationals."""
    n = len(x)
    if n == 0:
        raise EmptyVector("cannot analyze an empty vector")
    counts = Counter(x)
    largest = max(counts.values())
    hist = tuple(sorted(counts.items()))
    return KernelStructureReport(
        n=n,
        support_size=n - counts.get(0, 0),
        fibre_histogram=hist,
        largest_fibre_size=largest,
        s=n - largest,
    )


@dataclass(frozen=True)
class PropertyPredicate:
    """A thresholded vector property, evaluable in O(n).

    kinds: "support_at_least" (support size >= threshold) and
    "largest_fibre_at_most" (largest fibre size <= threshold).
    Thresholds are exact rationals; counts compare exactly.
    """

    kind: str
    threshold: Fraction

    def __post_init__(self):
        if self.kind not in ("support_at_least", "largest_fibre_at_most"):
            raise InvalidInput(f"unknown predicate kind {self.kind!r}")
        object.__setattr__(self, "threshold", Fraction(self.threshold))

    @classmethod
    def support_at_least(cls, t) -> PropertyPredicate:
        return cls("support_at_least", Fraction(t))

    @classmethod
    def largest_fibre_at_most(cls, bound) -> PropertyPredicate:
        return cls("largest_fibre_at_most", Fraction(bound))

    def describe(self) -> str:
        if self.kind == "support_at_least":
            return f"|supp(x)| >= {self.threshold}"
        return f"largest fibre <= {self.threshold}"


def eval_predicate(pred: PropertyPredicate, x: Sequence) -> bool:
    report = analyze_vector(x)
    if pred.kind == "support_at_least":
        return report.support_size >= pred.threshold
    return report.largest_fibre_size <= pred.threshold


@dataclass(frozen=True)
class MinSupportReport:
    """Result of exhausting a GF(2) kernel for its lightest vector."""

    kernel_dim: int
    trivial: bool
    min_support: int | None
    witness: tuple[int, ...] | None


def enumerate_gf2_kernel_min_support(m: BitMatrix, max_dim: int = 20) -> MinSupportReport:
    """Minimum Hamming weight over the 2**k - 1 nonzero right-kernel
    vectors (pass ``m.transpose()`` for the left kernel).

    Walks the kernel span in Gray-code order (one basis XOR per step).
    Raises InvalidInput for a non-integer or negative max_dim,
    KernelTooLarge when the kernel dimension exceeds max_dim, and
    SelfCheckFailed if the lightest vector fails its kernel check.
    """
    check_int("max_dim", max_dim, 0)
    vectors = kernel_gf2(m)
    k = len(vectors)
    if k == 0:
        return MinSupportReport(0, True, None, None)
    if k > max_dim:
        raise KernelTooLarge(f"kernel dimension {k} exceeds budget {max_dim}")
    current = 0
    best_weight = None
    best_vector = None
    for g in range(1, 1 << k):
        current ^= vectors[(g & -g).bit_length() - 1]
        w = current.bit_count()
        if best_weight is None or w < best_weight:
            best_weight, best_vector = w, current
    if (
        not best_vector
        or best_vector.bit_count() != best_weight
        or any((row & best_vector).bit_count() & 1 for row in m.rows)
    ):
        raise SelfCheckFailed("lightest GF(2) kernel vector fails its check")
    witness = BitMatrix(1, m.n_cols, (best_vector,)).to_bit_array()[0]
    return MinSupportReport(k, False, best_weight, tuple(witness.tolist()))

