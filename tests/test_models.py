"""Sampler laws, determinism, and degenerate-line detection."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import pytest

from oracles import chi_square_uniform, naive_bernoulli_rows, naive_combinatorial_rows
from singmat.certify import is_singular_exact
from singmat.errors import PairingInfeasible
from singmat.harness import bernoulli_density
from singmat.matrices import BitMatrix
from singmat.models import (
    SampleSpec,
    _subset_rows,
    _uniform_subset_row,
    find_duplicate_or_zero_lines,
    sample,
    sample_bernoulli,
    sample_combinatorial,
    sample_pairing,
    sample_row,
)
from singmat.rng import MASK64, Stream, derive_seeds, u64_block


def test_bernoulli_degenerate_densities():
    zero = sample_bernoulli(SampleSpec.bernoulli(5, 0, 1))
    assert zero.rows == (0,) * 5
    ones = sample_bernoulli(SampleSpec.bernoulli(5, 1, 1))
    assert ones.rows == (31,) * 5


def test_combinatorial_degenerate_densities():
    assert sample_combinatorial(SampleSpec.combinatorial(4, 0, 9)).rows == (0,) * 4
    assert sample_combinatorial(SampleSpec.combinatorial(4, 4, 9)).rows == (15,) * 4


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec.bernoulli(4, Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        SampleSpec.combinatorial(4, 5, 0)
    with pytest.raises(ValueError):
        SampleSpec("gaussian", 4, 0)


def test_sampling_is_deterministic():
    for spec in (
        SampleSpec.bernoulli(33, Fraction(3, 10), 77),
        SampleSpec.combinatorial(33, 7, 77),
    ):
        assert sample(spec).rows == sample(spec).rows
    assert sample_pairing(10, 3, 5) == sample_pairing(10, 3, 5)


def test_known_bernoulli_stream_values():
    # Frozen draw: documents that the stream layout never changes.
    m = sample_bernoulli(SampleSpec.bernoulli(8, Fraction(1, 2), 42))
    again = sample_bernoulli(SampleSpec.bernoulli(8, Fraction(1, 2), 42))
    assert m.rows == again.rows
    assert m.rows == (170, 147, 255, 13, 76, 240, 139, 179)


def test_row_sums_always_d():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 40)
        d = rng.randint(0, n)
        q = sample_combinatorial(SampleSpec.combinatorial(n, d, rng.getrandbits(64)))
        assert all(q.row_sum(i) == d for i in range(n))


def test_sample_row_matches_matrix_first_row():
    for spec in (
        SampleSpec.bernoulli(17, Fraction(2, 7), 123),
        SampleSpec.combinatorial(17, 5, 123),
    ):
        assert sample_row(spec) == sample(spec).rows[0]


_ORACLE_SIZES = [0, 1, 2, 16, 50, 300]


def _packed_first_row(rows: list[list[int]]) -> int:
    return sum(b << j for j, b in enumerate(rows[0])) if rows else 0


@pytest.mark.parametrize("n", _ORACLE_SIZES)
def test_bernoulli_matches_entrywise_oracle(n):
    ps = {Fraction(0), Fraction(1, 3), Fraction(1)}
    if n >= 2:
        ps.add(bernoulli_density(Fraction(1), n))
    for p in sorted(ps):
        spec = SampleSpec.bernoulli(n, p, 1000 + n)
        rows = naive_bernoulli_rows(n, p, spec.seed)
        assert sample(spec).to_lists() == rows, p
        assert sample_row(spec) == _packed_first_row(rows)


@pytest.mark.parametrize("n", _ORACLE_SIZES)
def test_combinatorial_matches_fisher_yates_oracle(n):
    for d in sorted({d for d in (0, 1, n - 1, n) if 0 <= d <= n}):
        spec = SampleSpec.combinatorial(n, d, 2000 + n)
        rows = naive_combinatorial_rows(n, d, spec.seed)
        assert sample(spec).to_lists() == rows, d
        assert sample_row(spec) == _packed_first_row(rows)


def _fisher_yates_row(draws, n: int) -> int:
    idx = list(range(n))
    for k, u in enumerate(draws):
        j = k + int(u) % (n - k)
        idx[k], idx[j] = idx[j], idx[k]
    return sum(1 << b for b in idx[: len(draws)])


def test_rejected_draw_falls_back_to_the_scalar_row():
    # Step 1 of n = 12 draws below 11, whose rejection limit is
    # 2**64 - 5: a crafted draw of MASK64 must send row 1 to the scalar
    # path.  Steps of n = 16, d = 16 draw below 16, a power of two whose
    # limit is 2**64 itself: MASK64 is an ordinary draw there.
    for n, d, step, fallback in ((12, 4, 1, True), (16, 16, 0, False)):
        seeds = derive_seeds(77, 3)
        draws = u64_block(seeds, d)
        draws[1, step] = MASK64
        rows = _subset_rows(draws, seeds, n)
        for i in (0, 2):
            assert rows[i] == _uniform_subset_row(Stream(int(seeds[i])), n, d)
        crafted = _fisher_yates_row(draws[1], n)
        if fallback:
            assert rows[1] == _uniform_subset_row(Stream(int(seeds[1])), n, d) != crafted
        else:
            assert rows[1] == crafted


def test_bernoulli_mean_entry_count():
    # n=64, p=1/2: mean total ones over 10^3 samples within 3 sigma of 2048.
    total = 0
    samples = 1000
    for s in range(samples):
        m = sample_bernoulli(SampleSpec.bernoulli(64, Fraction(1, 2), s))
        total += sum(r.bit_count() for r in m.rows)
    mean = total / samples
    sigma_mean = sqrt(64 * 64 * 0.25) / sqrt(samples)
    assert abs(mean - 2048) <= 3 * sigma_mean


def test_combinatorial_row_uniformity_chi_square():
    # All C(6,3)=20 outcomes at 3*10^4 rows (the 10^5 run is in acceptance).
    n, d, rows_wanted = 6, 3, 30000
    index = {frozenset(c): i for i, c in enumerate(combinations(range(n), d))}
    counts = [0] * comb(n, d)
    seen = 0
    seed = 0
    while seen < rows_wanted:
        q = sample_combinatorial(SampleSpec.combinatorial(n, d, seed))
        seed += 1
        for r in q.rows:
            counts[index[frozenset(j for j in range(n) if (r >> j) & 1)]] += 1
            seen += 1
            if seen == rows_wanted:
                break
    _, pvalue = chi_square_uniform(counts)
    assert pvalue > 1e-3


def test_pairing_matches_subset_law_chi_square():
    n, d, trials = 6, 2, 30000
    index = {frozenset(c): i for i, c in enumerate(combinations(range(n), d))}
    counts = [0] * comb(n, d)
    for t in range(trials):
        counts[index[sample_pairing(n, d, t).one_set()]] += 1
    _, pvalue = chi_square_uniform(counts)
    assert pvalue > 1e-3


def test_pairing_one_set_law_matches_row_law():
    # Both laws are uniform over d-subsets; check each against uniform
    # on (n=6, d=2) and (n=6, d=3).
    n = 6
    for d, seed_base in ((2, 100), (3, 200)):
        index = {frozenset(c): i for i, c in enumerate(combinations(range(n), d))}
        pair_counts = [0] * comb(n, d)
        row_counts = [0] * comb(n, d)
        trials = 20000
        for t in range(trials):
            pair_counts[index[sample_pairing(n, d, seed_base + t).one_set()]] += 1
        seen, seed = 0, 0
        while seen < trials:
            q = sample_combinatorial(SampleSpec.combinatorial(n, d, seed_base + seed))
            seed += 1
            for r in q.rows:
                row_counts[index[frozenset(j for j in range(n) if (r >> j) & 1)]] += 1
                seen += 1
                if seen == trials:
                    break
        _, p_pair = chi_square_uniform(pair_counts)
        _, p_row = chi_square_uniform(row_counts)
        assert p_pair > 1e-3 and p_row > 1e-3


def test_pairing_marginal_probability():
    # Pr(index 0 in one-set) = d/n = 1/3 for n=6, d=2.
    trials = 20000
    hits = sum(0 in sample_pairing(6, 2, t).one_set() for t in range(trials))
    p = 1 / 3
    assert abs(hits / trials - p) <= 3 * sqrt(p * (1 - p) / trials)


def test_pairing_structure():
    ps = sample_pairing(12, 4, 99)
    flat = [i for pair in ps.pairs for i in pair]
    assert len(set(flat)) == 8
    assert len(ps.one_set()) == 4
    empty = sample_pairing(5, 0, 1)
    assert empty.pairs == () and empty.one_set() == frozenset()
    with pytest.raises(PairingInfeasible):
        sample_pairing(5, 3, 0)


def test_complement_examples():
    ident = BitMatrix.identity(2)
    assert ident.complement().to_lists() == [[0, 1], [1, 0]]
    zero = BitMatrix.zeros(3, 3)
    assert zero.complement().rows == (7, 7, 7)
    dup = BitMatrix.from_rows([[1, 0], [1, 0]])
    assert dup.complement().to_lists() == [[0, 1], [0, 1]]


def test_complement_is_involution():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 30)
        m = sample_bernoulli(SampleSpec.bernoulli(n, Fraction(1, 3), rng.getrandbits(64)))
        assert m.complement().complement() == m


def test_complement_preserves_singularity_with_equal_row_sums():
    # Exact certification on both sides for random fixed-row-sum matrices.
    rng = random.Random(2)
    for trial in range(25):
        n = rng.randint(2, 10)
        d = rng.randint(1, n - 1)
        q = sample_combinatorial(SampleSpec.combinatorial(n, d, trial))
        a = is_singular_exact(q, prime_seed=trial)
        b = is_singular_exact(q.complement(), prime_seed=trial + 1)
        assert a.verdict == b.verdict


def test_line_report_examples():
    assert not find_duplicate_or_zero_lines(BitMatrix.identity(4)).any_line
    rep = find_duplicate_or_zero_lines(BitMatrix.from_rows([[1, 1], [1, 1]]))
    assert rep.duplicate_row_pairs == ((0, 1),)
    rep = find_duplicate_or_zero_lines(
        BitMatrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 0, 0]])
    )
    assert rep.duplicate_row_pairs == ((0, 2),)
    assert rep.zero_cols == (2,)


def test_line_report_columns():
    m = BitMatrix.from_rows([[1, 1, 0], [0, 0, 0], [1, 1, 1]])
    rep = find_duplicate_or_zero_lines(m)
    assert rep.zero_rows == (1,)
    assert rep.duplicate_col_pairs == ((0, 1),)
