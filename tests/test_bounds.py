"""Closed-form bound evaluators against enumeration oracles."""

import random
from fractions import Fraction
from itertools import product
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_atom_bernoulli, brute_even_mass, brute_even_mass_outcomes
from singmat.bounds import (
    _pow_round_up,
    _round_up,
    binomial_point_mass,
    max_atom_bernoulli,
    max_atom_combinatorial,
    p_even,
    pairing_disagreement_prob,
    union_bound_ber,
    union_bound_comb,
)
from singmat.errors import BudgetExceeded, PairingInfeasible
from singmat.harness import bernoulli_density


def rv(*values):
    return tuple(Fraction(v) for v in values)


# -- even-mass formula -------------------------------------------------------


def test_p_even_examples():
    assert p_even(0, Fraction(7, 10)) == 1
    assert p_even(1, Fraction(1, 2)) == Fraction(1, 2)
    assert p_even(5, Fraction(1, 2)) == Fraction(1, 2)
    assert p_even(3, Fraction(3, 10)) == Fraction(133, 250)


def test_p_even_matches_outcome_enumeration():
    for s in range(0, 9):
        for num in range(1, 10):
            p = Fraction(num, 10)
            assert p_even(s, p) == brute_even_mass_outcomes(s, p)
            assert p_even(s, p) == brute_even_mass(s, p)


# -- union bounds ------------------------------------------------------------


def test_union_bound_ber_examples():
    assert union_bound_ber(10, Fraction(1, 2), 0) == 0
    assert union_bound_ber(10, Fraction(1, 2), 3) == Fraction(175, 512)


def test_union_bound_ber_monotone_in_smax():
    p = Fraction(3, 10)
    values = [union_bound_ber(12, p, s) for s in range(0, 13)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[12] >= values[1]


def test_union_bound_ber_rounded_path_is_upper_bound():
    # Past the exact cutoff the rounded value must dominate the true sum.
    p = Fraction(1, 2)
    n, s_max = 80, 5
    exact = sum(
        comb(n, s) * p_even(s, p) ** (n - 1) for s in range(1, s_max + 1)
    )
    rounded = union_bound_ber(n, p, s_max)
    assert exact <= rounded <= exact * Fraction(101, 100)


def test_round_up_helpers():
    x = Fraction(1, 3)
    up = _round_up(x, 64)
    assert up >= x and up - x < Fraction(1, 2**60)
    big = Fraction(10**40, 3)
    assert _round_up(big, 64) >= big
    assert _pow_round_up(Fraction(1, 3), 10, 64) >= Fraction(1, 3) ** 10
    assert _round_up(Fraction(0)) == 0


def test_union_bound_comb_examples():
    assert union_bound_comb(8, 2, 0, []) == 0
    n, q, s_max = 8, 2, 3
    ones = [Fraction(1)] * s_max
    ceiling = union_bound_comb(n, q, s_max, ones)
    assert ceiling == sum(comb(n, s) * q ** (s + 1) for s in range(1, s_max + 1))


def test_union_bound_comb_matches_second_arithmetic_path():
    n, q, s_max = 8, 2, 2
    pv = [max_atom_combinatorial(rv(*([1] * s + [0] * (n - s))), 2, modulus=q).max_prob
          for s in range(1, s_max + 1)]
    got = union_bound_comb(n, q, s_max, pv)
    # independent big-rational summation
    expect = Fraction(0)
    for s in range(1, s_max + 1):
        term = Fraction(comb(n, s) * q ** (s + 1), 1)
        expect += term * pv[s - 1] ** (n - 1)
    assert got == expect


def test_union_bound_validation():
    with pytest.raises(ValueError):
        union_bound_ber(5, Fraction(1, 2), 6)
    with pytest.raises(ValueError, match="s_max"):
        union_bound_ber(8, Fraction(1, 2), -1)
    for q in (-2, 0, 1):
        with pytest.raises(ValueError, match="q must be at least 2"):
            union_bound_comb(8, q, 3, [Fraction(1)] * 3)
    with pytest.raises(ValueError, match="s_max"):
        union_bound_comb(8, 2, -1, [])
    with pytest.raises(ValueError):
        union_bound_comb(5, 2, 3, [Fraction(1)])
    with pytest.raises(ValueError):
        union_bound_comb(5, 2, 1, [Fraction(3, 2)])


@pytest.mark.parametrize("p", [Fraction(-1, 3), Fraction(3, 2), 2])
def test_probabilities_outside_the_unit_interval_are_rejected(p):
    with pytest.raises(ValueError, match="not a probability"):
        p_even(3, p)
    with pytest.raises(ValueError, match="not a probability"):
        union_bound_ber(5, p, 2)
    with pytest.raises(ValueError, match="not a probability"):
        max_atom_bernoulli(rv(1, 2), p)
    with pytest.raises(ValueError, match="not a probability"):
        binomial_point_mass(4, p, 2)


def test_probabilities_at_the_ends_of_the_unit_interval_are_accepted():
    assert p_even(3, 0) == 1 and p_even(3, 1) == 0
    assert max_atom_bernoulli(rv(1, 2), 1).max_prob == 1
    assert binomial_point_mass(4, 1, 4) == 1


# -- Bernoulli atoms ---------------------------------------------------------


def test_atom_bernoulli_examples():
    res = max_atom_bernoulli(rv(1, 1, 1, 1), Fraction(1, 2))
    assert res.max_prob == Fraction(6, 16)
    assert res.argmax == 2
    res = max_atom_bernoulli(rv(1, 2, 4), Fraction(1, 2))
    assert res.max_prob == Fraction(1, 8)
    res = max_atom_bernoulli(rv(0, 0, 0), Fraction(1, 3))
    assert res.max_prob == 1 and res.argmax == 0


def test_atom_bernoulli_matches_brute_force():
    rng = random.Random(0)
    cases = []
    for _ in range(30):
        n = rng.randint(1, 7)
        xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        cases.append((xs, Fraction(rng.randint(1, 9), 10)))
    # The ends of [0, 1], the density of the small-n benchmark cell, and
    # integer vectors with zeros and repeated entries.
    ps = [Fraction(0), Fraction(1), bernoulli_density(Fraction(1), 50),
          Fraction(1, 2), Fraction(1, 3)]
    cases += [([], p) for p in ps]
    for _ in range(40):
        n = rng.randint(1, 8)
        xs = [rng.choice((0, 0, 1, 1, 2, -1, -3)) for _ in range(n)]
        cases.append((xs, rng.choice(ps)))
    for xs, p in cases:
        atom = max_atom_bernoulli(xs, p)
        assert (atom.max_prob, atom.argmax) == brute_atom_bernoulli(xs, p), (xs, p)


def test_atom_bernoulli_budget():
    with pytest.raises(BudgetExceeded):
        max_atom_bernoulli(rv(*range(31)), Fraction(1, 2))


def test_atom_bernoulli_erdos_bound():
    p = Fraction(1, 2)
    for m in range(1, 11):
        erdos = Fraction(comb(m, m // 2), 2**m)
        assert max_atom_bernoulli(rv(*([1] * m)), p).max_prob == erdos
        xs = [Fraction(rng_val) for rng_val in range(1, m + 1)]
        atom = max_atom_bernoulli(xs, p).max_prob
        assert atom <= erdos


@given(
    st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=8),
    st.integers(1, 9),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_atom_bernoulli_permutation_and_scaling_invariance(xs, pnum, rand):
    p = Fraction(pnum, 10)
    base = max_atom_bernoulli(rv(*xs), p).max_prob
    shuffled = list(xs)
    rand.shuffle(shuffled)
    assert max_atom_bernoulli(rv(*shuffled), p).max_prob == base
    scaled = [3 * x for x in xs]
    assert max_atom_bernoulli(rv(*scaled), p).max_prob == base


@given(st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_atom_bernoulli_negation_invariance_at_half(xs):
    # Sign flips are a measure-preserving substitution only for p = 1/2.
    p = Fraction(1, 2)
    base = max_atom_bernoulli(rv(*xs), p).max_prob
    flipped = [-x for x in xs[:1]] + list(xs[1:])
    assert max_atom_bernoulli(rv(*flipped), p).max_prob == base


# -- combinatorial atoms ------------------------------------------------------


def test_atom_combinatorial_examples():
    res = max_atom_combinatorial(rv(1, 0, 0, 0), 2)
    assert res.max_prob == Fraction(1, 2)
    res = max_atom_combinatorial(rv(5, 5, 5), 2)
    assert res.max_prob == 1 and res.argmax == 10
    res = max_atom_combinatorial(rv(1, 2, 3, 4), 2)
    assert res.max_prob == Fraction(2, 6) and res.argmax == 5


def test_atom_combinatorial_complementation_symmetry():
    for n in (5, 6):
        for bits in product((0, 1), repeat=n):
            x = rv(*bits)
            for d in range(0, n + 1):
                a = max_atom_combinatorial(x, d).max_prob
                b = max_atom_combinatorial(x, n - d).max_prob
                assert a == b


def test_atom_combinatorial_mod_q():
    res = max_atom_combinatorial(rv(1, 1, 2, 0), 2, modulus=3)
    # sums over 2-subsets: {2,3,1,3,1,2} -> residues {2,0,1,0,1,2}
    assert res.max_prob == Fraction(2, 6)
    assert res.argmax == 0


@pytest.mark.parametrize("modulus", [0, -3])
def test_atom_combinatorial_rejects_a_modulus_below_one(modulus):
    with pytest.raises(ValueError, match="modulus"):
        max_atom_combinatorial(rv(1, 2), 1, modulus=modulus)


def test_atom_combinatorial_mod_q_needs_integer_entries():
    assert max_atom_combinatorial(rv(1, 2), 1, modulus=1).max_prob == 1
    assert max_atom_combinatorial((4, 2), 1, modulus=2).argmax == 0
    with pytest.raises(ValueError, match="integer entries"):
        max_atom_combinatorial(rv(1, Fraction(1, 2)), 1, modulus=3)


def test_atom_combinatorial_budget():
    with pytest.raises(BudgetExceeded):
        max_atom_combinatorial(rv(*range(40)), 20)


def test_atom_combinatorial_monotone_in_fibre_deficiency():
    # x_s has one fibre of n-s zeros and s singleton fibres (values 1..s):
    # the maximally spread deficiency-s family.  (Repeated off-fibre
    # values, e.g. all-ones, recreate concentration and break monotone
    # decay at these sizes.)
    n, d = 12, 4
    atoms = []
    for s in range(1, 7):
        x = rv(*(list(range(1, s + 1)) + [0] * (n - s)))
        atoms.append(max_atom_combinatorial(x, d).max_prob)
    assert all(a >= b for a, b in zip(atoms, atoms[1:]))


# -- binomial point mass -----------------------------------------------------


def test_binomial_point_mass_examples():
    assert binomial_point_mass(5, Fraction(0), 0) == 1
    assert binomial_point_mass(4, Fraction(1, 2), 2) == Fraction(6, 16)
    value = binomial_point_mass(100, Fraction(1, 2), 50)
    scaled = float(value) * isqrt(50)
    assert 0.3 <= scaled <= 0.6


# -- pairing disagreement ----------------------------------------------------


def test_disagreement_constant_vector_is_zero():
    est = pairing_disagreement_prob(rv(3, 3, 3, 3), 4, 2, 500, 1)
    assert est.hits == 0 and est.estimate == 0.0


def test_disagreement_two_balanced_fibres_near_one():
    n = 8
    v = rv(*([0] * 4 + [1] * 4))
    est = pairing_disagreement_prob(v, n, 4, 400, 2)
    assert est.estimate > 0.9


def test_disagreement_exact_half_case():
    # v = e_0, n=4, d=1: the pair straddles iff it touches index 0,
    # which happens with probability 1/2.
    est = pairing_disagreement_prob(rv(1, 0, 0, 0), 4, 1, 4000, 3)
    assert est.ci_low <= 0.5 <= est.ci_high


def test_disagreement_infeasible():
    with pytest.raises(PairingInfeasible):
        pairing_disagreement_prob(rv(1, 0, 0), 3, 2, 10, 0)


def test_conditioning_inequality_small_grid():
    # atom <= 1 - ci_low/2 + 4 * halfwidth on every tested instance.
    cases = [
        (12, 4, [1] * 1 + [0] * 11),
        (12, 4, [1] * 3 + [0] * 9),
        (12, 4, [1, 2, 3] + [0] * 9),
        (10, 3, [1] * 5 + [0] * 5),
    ]
    for idx, (n, d, xs) in enumerate(cases):
        x = rv(*xs)
        atom = max_atom_combinatorial(x, d).max_prob
        est = pairing_disagreement_prob(x, n, d, 2000, 100 + idx)
        bound = 1 - est.ci_low / 2 + 4 * est.ci_halfwidth
        assert float(atom) <= bound
