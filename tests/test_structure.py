"""Support/fibre analysis and the GF(2) minimum-support search."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singmat.errors import EmptyVector, InvalidInput, KernelTooLarge
from singmat.matrices import BitMatrix
from singmat.structure import (
    PropertyPredicate,
    analyze_vector,
    enumerate_gf2_kernel_min_support,
    eval_predicate,
)


def rv(*values):
    return tuple(Fraction(v) for v in values)


def test_analyze_examples():
    rep = analyze_vector(rv(0, 0, 0))
    assert rep.support_size == 0
    assert rep.largest_fibre_size == 3
    assert rep.s == 0

    rep = analyze_vector(rv(1, 1, 2, 0))
    assert rep.support_size == 3
    assert rep.histogram() == {Fraction(1): 2, Fraction(2): 1, Fraction(0): 1}
    assert rep.largest_fibre_size == 2
    assert rep.s == 2

    rep = analyze_vector((Fraction(1, 2), Fraction(2, 4), Fraction(3)))
    assert rep.histogram()[Fraction(1, 2)] == 2


def test_analyze_integer_vectors_like_their_fractions():
    """Kernel vectors arrive as ints; an int and the Fraction of the
    same value share a fibre."""
    assert analyze_vector((1, 1, 2, 0)) == analyze_vector(rv(1, 1, 2, 0))
    rep = analyze_vector((2, Fraction(2), 0, Fraction(0), Fraction(1, 2)))
    assert rep.support_size == 3
    assert rep.largest_fibre_size == 2
    assert rep.to_json_dict()["fibre_histogram"] == [["0", 2], ["1/2", 1], ["2", 2]]


def test_analyze_empty_vector_raises():
    with pytest.raises(EmptyVector):
        analyze_vector(())


def test_analyze_invariants_hold():
    rep = analyze_vector(rv(3, 3, 0, 5, 5, 5))
    assert sum(c for _, c in rep.fibre_histogram) == rep.n
    assert rep.largest_fibre_size == max(c for _, c in rep.fibre_histogram)
    assert rep.s == rep.n - rep.largest_fibre_size


@given(st.lists(st.fractions(), min_size=1, max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_analyze_permutation_invariance(values, rand):
    before = analyze_vector(tuple(values))
    shuffled = list(values)
    rand.shuffle(shuffled)
    after = analyze_vector(tuple(shuffled))
    assert before == after


@given(
    st.lists(st.fractions(), min_size=1, max_size=10),
    st.fractions().filter(lambda f: f != 0),
)
@settings(max_examples=60, deadline=None)
def test_analyze_scaling_preserves_fibre_sizes(values, scale):
    before = analyze_vector(tuple(values))
    after = analyze_vector(tuple(v * scale for v in values))
    assert before.support_size == after.support_size
    assert sorted(c for _, c in before.fibre_histogram) == sorted(
        c for _, c in after.fibre_histogram
    )
    assert before.largest_fibre_size == after.largest_fibre_size


def test_predicate_examples():
    assert not eval_predicate(PropertyPredicate.support_at_least(2), rv(1, 0, 0))
    assert eval_predicate(PropertyPredicate.support_at_least(1), rv(0, 5, 0))
    # boundary: largest fibre 4 <= floor(0.8 * 5) = 4
    assert eval_predicate(PropertyPredicate.largest_fibre_at_most(4), rv(1, 1, 1, 1, 0))
    assert not eval_predicate(PropertyPredicate.largest_fibre_at_most(3), rv(1, 1, 1, 1, 0))


def test_predicate_validation():
    with pytest.raises(ValueError):
        PropertyPredicate("frobnicate", Fraction(1))


def test_min_support_trivial_kernel():
    rep = enumerate_gf2_kernel_min_support(BitMatrix.identity(4))
    assert rep.trivial and rep.kernel_dim == 0
    assert rep.min_support is None and rep.witness is None


def test_min_support_left_example():
    m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    rep = enumerate_gf2_kernel_min_support(m.transpose())
    assert rep.min_support == 3
    assert rep.witness == (1, 1, 1)


def test_min_support_duplicate_columns():
    m = BitMatrix.from_rows([[1, 1, 0], [0, 0, 1], [1, 1, 1]])
    rep = enumerate_gf2_kernel_min_support(m)
    assert rep.min_support == 2
    assert rep.witness == (1, 1, 0)


def test_min_support_zero_column_gives_one():
    rng = random.Random(0)
    for trial in range(10):
        n = rng.randint(2, 8)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        col = rng.randrange(n)
        for r in rows:
            r[col] = 0
        rep = enumerate_gf2_kernel_min_support(BitMatrix.from_rows(rows))
        assert rep.min_support == 1


def test_min_support_budget():
    with pytest.raises(KernelTooLarge):
        enumerate_gf2_kernel_min_support(BitMatrix.zeros(25, 25), max_dim=20)
    with pytest.raises(InvalidInput, match="max_dim must be an integer"):
        enumerate_gf2_kernel_min_support(BitMatrix.identity(2), max_dim=2.5)


def test_min_support_exhaustive_cross_check():
    rng = random.Random(1)
    for trial in range(25):
        n = rng.randint(1, 6)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        m = BitMatrix.from_rows(rows)
        rep = enumerate_gf2_kernel_min_support(m)
        weights = [
            sum(bits)
            for bits in product((0, 1), repeat=n)
            if any(bits)
            and all(sum(r[j] * bits[j] for j in range(n)) % 2 == 0 for r in rows)
        ]
        if not weights:
            assert rep.trivial
        else:
            assert rep.min_support == min(weights)

