"""Exact linear algebra against naive oracles."""

import hashlib
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_gf2_right_kernel,
    cleared,
    naive_det,
    naive_lu_product,
    naive_lu_solve,
    naive_rank_gf2,
    naive_rational_kernel,
    unpack_bits,
)
from singmat import exactla
from singmat.errors import KernelLiftFailed
from singmat.exactla import (
    exact_dot,
    kernel_gf2,
    kernel_rational,
    kernel_vector_crt,
    rank_gf2,
    _lu_det,
    _lu_mod,
    _lu_mod_np,
    _lu_mod_py,
    _LU,
    _lu_solve,
    _lu_solve_py,
    _lower_inverses,
)
from singmat.matrices import BitMatrix
from singmat.modular import crt_primes


def bm(rows):
    return BitMatrix.from_rows(rows)


def bma(a: np.ndarray) -> BitMatrix:
    return BitMatrix.from_bit_array(a)


def random_bit_rows(rng, n_rows, n_cols, density=0.5):
    return [[1 if rng.random() < density else 0 for _ in range(n_cols)] for _ in range(n_rows)]


# -- rank over GF(2) --------------------------------------------------------


def test_rank_examples():
    assert rank_gf2(BitMatrix.identity(3)) == 3
    assert rank_gf2(bm([[1, 1, 1]] * 3)) == 1
    assert rank_gf2(bm([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


def test_rank_all_3x3():
    for bits in range(512):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        assert rank_gf2(bm(rows)) == naive_rank_gf2(rows)


def test_rank_random_up_to_64():
    rng = random.Random(1)
    for _ in range(300):
        n_rows = rng.randint(1, 64)
        n_cols = rng.randint(1, 64)
        rows = random_bit_rows(rng, n_rows, n_cols, rng.choice([0.1, 0.5, 0.9]))
        assert rank_gf2(bm(rows)) == naive_rank_gf2(rows)


def test_rank_degenerate_shapes():
    # Empty, wide and tall shapes, some with over 1000 rows or columns.
    rng = random.Random(5)
    for shape in [(0, 0), (3, 0), (0, 3), (0, 1200), (1200, 0), (5, 90), (90, 5), (4, 1100), (1100, 4)]:
        rows = random_bit_rows(rng, *shape)
        assert rank_gf2(BitMatrix.from_rows(rows, shape[1])) == naive_rank_gf2(rows), shape


@pytest.mark.parametrize("n", [999, 1000])
def test_rank_matches_naive_on_large_sparse_squares(n):
    # About seven ones per row: some zero lines, rank a little below n.
    rng = random.Random(n)
    rows = random_bit_rows(rng, n, n, 7 / n)
    assert rank_gf2(bm(rows)) == naive_rank_gf2(rows)


# -- kernels over GF(2) -----------------------------------------------------


def test_kernel_gf2_examples():
    assert kernel_gf2(BitMatrix.identity(4)) == ()
    left = kernel_gf2(bm([[1, 1, 0], [0, 1, 1], [1, 0, 1]]).transpose())
    assert [unpack_bits(v, 3) for v in left] == [(1, 1, 1)]
    assert kernel_gf2(BitMatrix.zeros(2, 2)) == (0b01, 0b10)


def test_kernel_gf2_span_equals_brute_force():
    """Random shapes, then the edges: 0 x k (the whole space), k x 0
    (only the empty vector) and zero rows."""
    rng = random.Random(3)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rng.randint(1, 8)
        cases.append((random_bit_rows(rng, m, n), n))
    cases += [([], 0), ([], 1), ([], 5), ([[]], 0), ([[]] * 3, 0), ([[0] * 4] * 3, 4), ([[0] * 3, [1, 0, 1], [0] * 3], 3)]
    for rows, n in cases:
        basis = kernel_gf2(BitMatrix.from_rows(rows, n))
        span = {0}
        for v in basis:
            span |= {s ^ v for s in span}
        got = {unpack_bits(v, n) for v in span}
        assert got == brute_gf2_right_kernel(rows, n)


def test_kernel_gf2_dimension_identity():
    rng = random.Random(4)
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 30)
        mat = bm(random_bit_rows(rng, n_rows, n_cols))
        r = rank_gf2(mat)
        assert len(kernel_gf2(mat)) == n_cols - r
        assert len(kernel_gf2(mat.transpose())) == n_rows - r


# Digests of the bases that independent eliminations returned on these
# seeded matrices: (seed, n_rows, n_cols, density) -> {side: (dim, digest)}.
# Seeds 1-6 were recorded from a Gauss-Jordan (RREF) elimination, seed 7
# from a numpy uint64 word-matrix echelon, the path that once took every
# shape with 192 or more rows or columns (seeds 4-7).
_GF2_PINNED = {
    (1, 40, 60, 0.1): {"right": (20, "2fe2c5ca1736deef"), "left": (0, "2e38e77b22c314a4")},
    (2, 60, 60, 0.05): {"right": (5, "42d27f76e0b28abb"), "left": (5, "87bd887f853277a5")},
    (3, 150, 170, 0.02): {"right": (25, "c69cc634590220cc"), "left": (5, "920cd9fb7aadc0d5")},
    (4, 200, 230, 0.01): {"right": (51, "7b428b8845322644"), "left": (21, "6fd716dcd0835a61")},
    (5, 256, 256, 0.02): {"right": (4, "98b90802cf240611"), "left": (4, "5325f86e6d28e818")},
    (6, 300, 320, 0.005): {"right": (96, "533a552d538cac50"), "left": (76, "eb0b370b924343a3")},
    (7, 1000, 1000, 0.004): {"right": (35, "fbdc88d3cee8f70e"), "left": (35, "a859c34d073a2344")},
}


@pytest.mark.parametrize("key", sorted(_GF2_PINNED))
def test_kernel_gf2_basis_is_pinned_canonical(key):
    """One vector per free column f: its highest set bit is f and it is
    clear on every other free column; the same basis as before."""
    seed, n_rows, n_cols, density = key
    rng = random.Random(seed)
    rows = [sum(1 << j for j in range(n_cols) if rng.random() < density) for _ in range(n_rows)]
    m = BitMatrix(n_rows, n_cols, tuple(rows))
    for side, (dim, digest) in _GF2_PINNED[key].items():
        basis = kernel_gf2(m if side == "right" else m.transpose())
        free = [v.bit_length() - 1 for v in basis]
        assert free == sorted(set(free))
        free_mask = sum(1 << f for f in free)
        assert all(v & free_mask == 1 << f for v, f in zip(basis, free))
        assert len(basis) == dim
        assert hashlib.sha256(repr(basis).encode()).hexdigest()[:16] == digest


# -- exact determinants -----------------------------------------------------


def _residue(rows):
    """The determinant residue the kernel search reports for the first
    fixed prime, or None when it finds a kernel vector."""
    return kernel_vector_crt(bm(rows), crt_primes(1)).residue


def test_det_examples():
    p = crt_primes(1)[0]
    assert _residue([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 1
    assert _residue([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert _residue([[0, 1], [1, 0]]) == p - 1
    assert _residue([[1, 1], [1, 1]]) is None


def test_det_not_square():
    """Independent columns of a tall matrix: no vector and no residue."""
    p = crt_primes(1)[0]
    assert kernel_vector_crt(bm([[1, 0], [0, 1], [1, 1]]), [p]) == (None, p, None, None)


@pytest.mark.parametrize("n", [3, 5, 12, exactla._MOD_NUMPY_MIN, 30])
def test_bareiss_det_matches_naive_det_with_row_swaps(n):
    """Nonsingular zero-one matrices whose first column starts with a
    zero, so the elimination swaps rows; both signs of the determinant
    occur, and the kernel search's residue is the determinant mod p."""
    rng = random.Random(90 + n)
    p = crt_primes(1)[0]
    signs = set()
    checked = 0
    while checked < 12:
        rows = random_bit_rows(rng, n, n)
        rows[0][0] = 0
        want = naive_det(rows).numerator
        if want == 0:
            continue
        checked += 1
        signs.add(want > 0)
        assert _residue(rows) == want % p
    assert signs == {True, False}


def test_det_mod_p_agrees_for_twenty_random_primes():
    from singmat.modular import random_prime
    from singmat.rng import Stream

    rng = random.Random(6)
    stream = Stream(0xD37)
    primes = [random_prime(stream) for _ in range(20)]
    for _ in range(10):
        n = rng.randint(1, 12)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = naive_det(rows).numerator
        for p in primes:
            assert _lu_det(_lu_mod(np.array(rows, dtype=np.int64), p), n) == d % p


def _late_pivotless(rng, n, p):
    """n x n integer matrix whose last column is a combination of two
    earlier ones: singular, with the first pivotless column late."""
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a, b = rng.sample(range(n - 1), 2)
    k = rng.randint(1, p - 1)
    for row in rows:
        row[-1] = row[a] + k * row[b]
    return rows


def _dets_mod(rows, n, p):
    """Determinant residues from the int64 factorization and the list one."""
    a = np.array(rows, dtype=np.int64).reshape(n, n)
    residues = [[e % p for e in row] for row in rows]
    return _lu_det(_lu_mod(a, p), n), _lu_det(_lu_mod_py(residues, n, p), n)


@pytest.mark.parametrize("n", [0, 1, 2, 5, exactla._MOD_NUMPY_MIN - 1, exactla._MOD_NUMPY_MIN, 30])
def test_det_mod_matches_naive_det_across_the_cut_over(n):
    rng = random.Random(40 + n)
    for p in (2, 3, 7, crt_primes(1)[0]):
        for _ in range(4):
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            want = naive_det(rows)
            assert _dets_mod(rows, n, p) == (want.numerator % p,) * 2
        if n >= 3:
            rows = _late_pivotless(rng, n, p)
            assert naive_det(rows) == 0
            assert _dets_mod(rows, n, p) == (0, 0)


def test_det_mod_array_path_reduces_negative_and_wide_entries():
    """Dense arrays take the int64 loop, whatever the sign of their sum."""
    p = crt_primes(1)[0]
    rng = np.random.default_rng(41)
    for n, bound in ((24, 9), (24, 2**40), (30, 2**40)):
        a = rng.integers(-bound, bound, (n, n), endpoint=True)
        lu = _lu_mod(a, p)
        assert isinstance(lu.factors, np.ndarray)
        assert _lu_det(lu, n) == naive_det(a.tolist()).numerator % p


# Primes past the int64 eliminations' range: the largest 61-bit prime
# and the smallest prime above 2**32.
_WIDE_PRIMES = (2**61 - 1, 4294967311)


def _with_duplicate_column(rng, n):
    a = rng.integers(0, 2, (n, n))
    a[:, -1] = a[:, -2]
    return a


def test_det_mod_with_primes_past_the_int64_range():
    """The list factorization works on Python integers, so it stays
    exact where the int64 one would overflow."""
    rng = np.random.default_rng(3)
    for a in (rng.integers(0, 2, (30, 30)), _with_duplicate_column(rng, 30)):
        want = naive_det(a.tolist()).numerator
        for p in _WIDE_PRIMES:
            assert _lu_det(_lu_mod_py(a.tolist(), 30, p), 30) == want % p


def test_kernel_vector_crt_rejects_primes_past_the_int64_range():
    """The lift's residue updates are int64 arithmetic, so a wide prime
    is refused rather than factored; the default primes find the
    oracle's vector."""
    for seed in range(20):
        a = _with_duplicate_column(np.random.default_rng(seed), 40)
        with pytest.raises(ValueError):
            kernel_vector_crt(bma(a), [_WIDE_PRIMES[seed % 2]])
        if seed < 4:
            assert kernel_vector_crt(bma(a)).vector == _oracle_vector(a)


# -- rational kernels -------------------------------------------------------


def test_kernel_rational_examples():
    assert kernel_rational(BitMatrix.identity(2)) == ()
    basis = kernel_rational(bm([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1]]))
    assert len(basis) == 1
    v = basis[0]
    # the free column is 1 and nothing is multiplied out: spans (1, 1, -1, -2)
    assert v == (Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2), 1)
    assert cleared(v) == (1, 1, -1, -2)
    basis2 = kernel_rational(bm([[1, 1, 0], [1, 0, 1], [0, 0, 0]]))
    assert len(basis2) == 1
    w = cleared(basis2[0])
    assert w in ((-1, 1, 1), (1, -1, -1))
    # clearing canonicalizes the leading sign
    assert w == (1, -1, -1)


def test_kernel_rational_left_side():
    rows = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    basis = kernel_rational(bm(rows).transpose())
    assert len(basis) == 1
    v = basis[0]
    assert all(sum(v[i] * rows[i][j] for i in range(3)) == 0 for j in range(3))


def test_det_zero_iff_kernel_nonempty():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert (naive_det(rows) != 0) == (kernel_rational(bm(rows)) == ())


def test_gf2_rank_never_exceeds_rational_rank():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        bit = bm(rows)
        g = rank_gf2(bit)
        q_rank = n - len(kernel_rational(bit))
        assert g <= q_rank <= n
        if g < n:
            assert naive_det(rows) % 2 == 0


# -- CRT kernel vector lift -------------------------------------------------


def test_kernel_vector_crt_matches_bareiss_on_singulars():
    rng = random.Random(10)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        basis = naive_rational_kernel(rows, n)
        v = kernel_vector_crt(bm(rows)).vector
        if not basis:
            assert v is None
        else:
            found += 1
            assert v is not None and any(v)
            assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in rows)
            assert v == cleared(basis[0])
    assert found > 20


def test_kernel_vector_crt_wide_system_always_finds_vector():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 20)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n - 1)]
        v = kernel_vector_crt(bm(rows)).vector
        assert v is not None
        assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in rows)


def _oracle_vector(a: np.ndarray) -> tuple[int, ...]:
    return cleared(naive_rational_kernel(a.tolist(), a.shape[1])[0])


def _sparse_rows(rng, n_rows, n_cols, density=0.15):
    """Zero-one int64 array, sparse enough that elimination fills in slowly."""
    return np.array(random_bit_rows(rng, n_rows, n_cols, density), dtype=np.int64)


def _with_dependent_columns(rng, n, deficiency):
    """n x n zero-one array whose last ``deficiency`` columns are sums of
    two disjoint earlier columns, then shuffled: rank <= n - deficiency."""
    a = _sparse_rows(rng, n, n, 0.3)
    for k in range(n - deficiency, n):
        i, j = rng.sample(range(n - deficiency), 2)
        a[:, j] &= 1 - a[:, i]
        a[:, k] = a[:, i] + a[:, j]
    return a[:, rng.sample(range(n), n)]


@pytest.mark.parametrize("deficiency", [1, 2, 4])
def test_lift_matches_bareiss_on_rank_deficient_numpy_path(deficiency):
    rng = random.Random(20 + deficiency)
    for _ in range(4):
        a = _with_dependent_columns(rng, rng.randint(24, 40), deficiency)
        basis = naive_rational_kernel(a.tolist(), a.shape[1])
        assert len(basis) >= deficiency
        assert kernel_vector_crt(bma(a)).vector == cleared(basis[0])


@pytest.mark.parametrize("zero_row, duplicate_row", [(True, False), (False, True), (True, True)])
def test_lift_matches_bareiss_on_degenerate_rows(zero_row, duplicate_row):
    rng = random.Random(2 * zero_row + duplicate_row)
    for _ in range(4):
        n = rng.randint(24, 40)
        a = _sparse_rows(rng, n, n)
        i, j, k = rng.sample(range(n), 3)
        if zero_row:
            a[i] = 0
        if duplicate_row:
            a[j] = a[k]
        assert kernel_vector_crt(bma(a)).vector == _oracle_vector(a)


def test_numpy_and_list_solvers_agree():
    """The lift factors small shapes on Python lists and larger ones in
    numpy; both must give the same factorization and the same solutions.
    The larger shapes sit at the sweeps' c = 2 density, where
    elimination fills in and the numpy path's floor-division reduction
    sees every residue in [0, p) (p is the largest prime below 2**31)."""
    rng = random.Random(27)
    p = crt_primes(1)[0]
    shapes = [(rng.randint(24, 36), rng.randint(24, 36), 0.2) for _ in range(6)]
    shapes += [(n + d, n, 2 * math.log(n) / n) for n in (64, 100) for d in (-1, 0, 1)]
    for n_rows, n_cols, density in shapes:
        a = _sparse_rows(rng, n_rows, n_cols, density)
        a[rng.randrange(n_rows)] = 0
        lu, lu_py = _lu_mod_np(a, p), _lu_mod_py(a.tolist(), n_cols, p)
        assert lu.factors.tolist() == lu_py.factors
        assert (lu.perm, lu.pivots, lu.sign) == (lu_py.perm, lu_py.pivots, lu_py.sign)
        pivots, solve, solve_py = lu.pivots, _lu_solve(lu), _lu_solve_py(lu_py)
        for _ in range(3):
            y = np.array([rng.randrange(p) for _ in pivots], dtype=np.int64)
            b = a[:, pivots] @ y  # consistent right-hand side
            assert solve(b) == solve_py(b) == y.tolist()
            b[rng.randrange(n_rows)] += 1
            assert solve(b) == solve_py(b)


@pytest.mark.parametrize("n", [24, 32, 48, 64])
@pytest.mark.parametrize("c", [0.5, 1.0, 1.25])
def test_list_and_int64_loops_agree_on_sparse_shapes(n, c):
    """The sparse shapes _lu_mod sends to the list loop, square and with
    a row more and a row fewer, at and below the route's density: the
    list loop, which skips the pivot row's zeros, and the int64 loop
    give the same factorization and the same list-solve solutions, for
    a large prime and for p = 3, where updates often cancel to zero.
    _lu_mod takes the list loop up to one block and (5/4) n ln n ones."""
    rng = random.Random(1000 * n + int(4 * c))
    for n_rows in (n - 1, n, n + 1):
        for p in (crt_primes(1)[0], 3):
            a = _sparse_rows(rng, n_rows, n, c * math.log(n) / n)
            lu, lu_py = _lu_mod_np(a, p), _lu_mod_py(a.tolist(), n, p)
            k = max(n_rows, n)
            listed = k <= exactla._BLOCK and a.sum() <= 1.25 * k * math.log(k)
            assert isinstance(_lu_mod(a, p).factors, list) == listed
            assert lu.factors.tolist() == lu_py.factors
            assert (lu.perm, lu.pivots, lu.sign) == (lu_py.perm, lu_py.pivots, lu_py.sign)
            pivots, solve, solve_py = lu.pivots, _lu_solve_py(lu), _lu_solve_py(lu_py)
            for _ in range(2):
                y = np.array([rng.randrange(p) for _ in pivots], dtype=np.int64)
                b = a[:, pivots] @ y
                assert solve(b) == solve_py(b) == y.tolist()
                b[rng.randrange(n_rows)] += 1
                assert solve(b) == solve_py(b)


B = exactla._BLOCK


@pytest.mark.parametrize("r", [B - 1, B, B + 1, 2 * B + 1, 300])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_blocked_solve_matches_the_list_solve(r, extra):
    """Around and past one block of pivots, on r + extra rows: a
    consistent right-hand side gives its y, also shifted by multiples of
    p into negative and wide entries, and an inconsistent one None."""
    rng = random.Random(100 * r + extra)
    p = crt_primes(1)[0]
    n_rows = r + extra
    while True:
        a = _sparse_rows(rng, n_rows, r, 2 * math.log(r) / r + 0.1)
        lu = _lu_mod(a, p)
        if len(lu.pivots) == r:
            break
    solve, solve_py = _lu_solve(lu), _lu_solve_py(lu)
    for _ in range(3):
        y = np.array([rng.randrange(p) for _ in range(r)], dtype=np.int64)
        b = a @ y
        assert solve(b) == solve_py(b) == y.tolist()
        shifted = b + p * np.array([rng.randrange(-(2**20), 2**20) for _ in range(n_rows)])
        assert solve(shifted) == y.tolist()
        if extra:
            b[rng.randrange(n_rows)] += rng.randrange(1, p)
            assert solve(b) is None and solve_py(b) is None


def _extreme_factors(rng, n_rows, r, p, extreme):
    """Packed factors of r pivots on n_rows rows whose every entry is
    p - 1 or, with ``extreme`` off, uniform in [1, p), under a shuffled
    row permutation; pivots in the leading columns of r + 1."""
    entry = (lambda: p - 1) if extreme else (lambda: rng.randrange(1, p))
    packed = [[entry() for _ in range(r + 1)] for _ in range(n_rows)]
    perm = rng.sample(range(n_rows), n_rows)
    return _LU(np.array(packed, dtype=np.int64), perm, list(range(r)), 1, p), packed


def _rhs(packed, perm, r, p, y):
    """b with b[perm] = (L U)[:, :r] y mod p, on Python integers."""
    z = [sum(packed[k][j] * y[j] for j in range(k, r)) % p for k in range(r)]
    b = [0] * len(packed)
    for i, row in enumerate(packed):
        ci = sum(row[k] * z[k] for k in range(min(i, r))) + (z[i] if i < r else 0)
        b[perm[i]] = ci % p
    return b


@pytest.mark.parametrize("r, extra", [(B - 1, 1), (B, 0), (B + 1, 2), (2 * B + 1, 1), (300, 1)])
@pytest.mark.parametrize("extreme", [True, False])
def test_blocked_solve_is_exact_at_the_largest_admissible_prime(r, extra, extreme):
    """Factors full of p - 1 at p = 2**31 - 1, the largest products the
    solve can meet, against the Python-integer oracle."""
    rng = random.Random(7 * r + extra + extreme)
    p = 2**31 - 1
    lu, packed = _extreme_factors(rng, r + extra, r, p, extreme)
    solve = _lu_solve(lu)
    for _ in range(2):
        y = [rng.randrange(p) for _ in range(r)]
        b = _rhs(packed, lu.perm, r, p, y)
        assert naive_lu_solve(packed, lu.perm, lu.pivots, p, b) == y
        assert solve(np.array(b, dtype=np.int64)) == y
        b[rng.randrange(len(b))] += 1
        expected = naive_lu_solve(packed, lu.perm, lu.pivots, p, b)
        assert solve(np.array(b, dtype=np.int64)) == expected
        assert (expected is None) == (extra > 0)


@pytest.mark.parametrize("p", [2**31 - 1, 3])
def test_list_solve_matches_the_oracle_on_sparse_lift_systems(p):
    """The (n - 1) x n systems of an n = 50 lift at c = 1, factored on
    lists: their U is mostly zeros and most entries of y are zero, so
    the back substitution skips both; a perturbed right-hand side gives
    the oracle's answer too."""
    rng = random.Random(p)
    n = 50
    for _ in range(8):
        a = _sparse_rows(rng, n - 1, n, math.log(n) / n)
        lu = _lu_mod(a, p)
        assert isinstance(lu.factors, list)
        solve, oracle = _lu_solve(lu), partial(naive_lu_solve, lu.factors, lu.perm, lu.pivots, p)
        for _ in range(3):
            y = [rng.randrange(p) if rng.random() < 0.2 else 0 for _ in lu.pivots]
            b = (a[:, lu.pivots] @ np.array(y, dtype=np.int64)).tolist()
            assert solve(np.array(b, dtype=np.int64)) == oracle(b) == y
            b[rng.randrange(n - 1)] += 1
            assert solve(np.array(b, dtype=np.int64)) == oracle(b)

def test_lower_inverses_are_exact():
    """Dense blocks of p - 1, random blocks and nearly empty ones, on a
    unit diagonal, a diagonal of p - 1 and a random one, each times its
    inverse, is the identity mod p on Python integers."""
    rng = np.random.default_rng(9)
    p = 2**31 - 1
    dense, uniform = np.full((B, B), p - 1), rng.integers(0, p, (B, B))
    parts = [dense, uniform, np.eye(B, k=-5, dtype=np.int64)]
    diagonals = [np.ones(B, dtype=np.int64), np.full(B, p - 1), rng.integers(1, p, B)]
    n = np.tril(np.stack([part for part in parts for _ in diagonals]), -1)
    diag = [diagonal.tolist() for _ in parts for diagonal in diagonals]
    inv_diag = np.array([[pow(d, -1, p) for d in ds] for ds in diag])
    x = _lower_inverses(n, inv_diag, p)
    for block, ds, inverse in zip(n.tolist(), diag, x.tolist()):
        for i in range(B):
            row = [block[i][k] + (ds[i] if k == i else 0) for k in range(B)]
            got = [sum(row[k] * inverse[k][j] for k in range(B)) % p for j in range(B)]
            assert got == [int(j == i) for j in range(B)]


def test_lift_wide_system_numpy_path():
    rng = random.Random(23)
    for _ in range(5):
        n = rng.randint(24, 48)
        a = _sparse_rows(rng, n - 1, n, 0.2)
        assert kernel_vector_crt(bma(a)).vector == _oracle_vector(a)


def test_lift_left_kernel_from_transpose():
    rng = random.Random(24)
    for _ in range(4):
        n = rng.randint(24, 40)
        a = _sparse_rows(rng, n, n)
        a[:, rng.randrange(n)] = 0  # singular, so the left kernel is nontrivial too
        want = cleared(naive_rational_kernel(a.T.tolist(), n)[0])
        assert kernel_vector_crt(bma(a).transpose()).vector == want


def test_lift_independent_columns_give_none():
    rng = random.Random(25)
    a = np.eye(30, dtype=np.int64)
    assert kernel_vector_crt(bma(a)).vector is None
    tall = _sparse_rows(rng, 40, 24, 0.5)
    if naive_rational_kernel(tall.tolist(), 24) == ():
        assert kernel_vector_crt(bma(tall)).vector is None


def test_primitive_matches_the_clearing_oracle():
    """Every kernel vector the lift returns has an entry equal to the
    lcm of its denominators, so it is primitive already; the content is
    divided out all the same."""
    assert exactla._primitive([0, -4, 6, 2]) == (0, 2, -3, -1)
    assert exactla._primitive([0, 0, 7]) == (0, 0, 1)
    rng = random.Random(26)
    for _ in range(200):
        v = [rng.randint(-3, 3) * rng.choice((1, 2, 6, 2**70)) for _ in range(rng.randint(1, 8))]
        if any(v):
            assert exactla._primitive(v) == cleared(v)


def test_lift_edge_shapes():
    assert kernel_vector_crt(BitMatrix.zeros(0, 0)).vector is None
    assert kernel_vector_crt(BitMatrix.zeros(2, 0)).vector is None
    assert kernel_vector_crt(BitMatrix.zeros(0, 3)).vector == (1, 0, 0)
    assert kernel_vector_crt(bma(np.zeros((0, 3), dtype=np.int64))).vector == (1, 0, 0)
    assert kernel_vector_crt(bma(np.zeros((3, 4), dtype=np.int64))).vector == (1, 0, 0, 0)
    assert kernel_vector_crt(bm([[0]])).vector == (1,)
    assert kernel_vector_crt(bm([[1]])).vector is None


def test_lift_rejects_entries_outside_zero_one():
    """The lift takes a BitMatrix, whose constructors refuse a 2."""
    with pytest.raises(ValueError):
        bm([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        bma(np.array([[2, 0], [0, 1]]))


def _drawn(primes, drawn):
    for p in primes:
        drawn.append(p)
        yield p


@pytest.mark.parametrize("n", [12, 30])
def test_kernel_vector_moves_past_an_unlucky_prime(n):
    """Each prime is factored once, in order: no kernel vector of these
    matrices lifts over 2 alone (the search over [2] raises
    KernelLiftFailed), so the search moves on and the next prime gives
    the canonical vector."""
    rng = random.Random(30 + n)
    q = crt_primes(2)
    checked = 0
    while checked < 3:
        a = np.array(random_bit_rows(rng, n, n), dtype=np.int64)
        a[rng.randrange(n)] = 0
        try:
            kernel_vector_crt(bma(a), [2])
            continue
        except KernelLiftFailed:
            checked += 1
        want = _oracle_vector(a)
        drawn = []
        found = kernel_vector_crt(bma(a), _drawn([2] + q, drawn))
        assert drawn == [2, q[0]]
        assert found == (want, None, None, None)


def test_lift_over_an_unlucky_prime_is_canonical_or_fails():
    """Two zero rows leave a kernel of dimension two or more, where a
    prime that loses rank early could lift some other kernel vector;
    the lift must give the canonical vector or give up on that prime,
    which ends a search over [2] in KernelLiftFailed."""
    rng = random.Random(50)
    failed = 0
    for _ in range(150):
        n = 12
        a = np.array(random_bit_rows(rng, n, n), dtype=np.int64)
        a[rng.sample(range(n), 2)] = 0
        try:
            assert kernel_vector_crt(bma(a), [2]).vector == _oracle_vector(a)
        except KernelLiftFailed:
            failed += 1
    assert 0 < failed < 150


@pytest.mark.parametrize("n", [12, 30])
def test_kernel_vector_residue_comes_from_the_first_full_rank_prime(n):
    """A nonsingular matrix with an even determinant: mod 2 it loses
    rank and the lift finds nothing, the next prime has full rank and
    its residue is det mod that prime."""
    rng = random.Random(40 + n)
    q = crt_primes(2)
    while True:
        a = np.array(random_bit_rows(rng, n, n), dtype=np.int64)
        d = naive_det(a.tolist())
        if d != 0 and d % 2 == 0:
            break
    drawn = []
    found = kernel_vector_crt(bma(a), _drawn([2] + q, drawn))
    assert drawn == [2, q[0]]
    assert found[:3] == (None, q[0], d % q[0])
    lu, perm, order = found.factorization
    assert naive_lu_product(np.asarray(lu).tolist(), q[0]) == a[perm][:, order].tolist()
    assert kernel_vector_crt(bma(a)).prime == q[0]  # the fixed list by default


def test_kernel_vector_raises_when_a_finite_sequence_runs_out():
    """No prime, no verdict: a finite sequence that runs out before a
    lucky prime raises, whether the matrix is singular or not."""
    for m in (BitMatrix.identity(3), BitMatrix.zeros(0, 0), bm([[1, 1, 1]] * 3)):
        for primes in ([], iter([])):
            with pytest.raises(KernelLiftFailed):
                kernel_vector_crt(m, primes)
    assert kernel_vector_crt(bm([[1, 1, 1]] * 3), [7]).vector == (1, -1, 0)


def test_kernel_lift_failed_is_a_singmat_error():
    from singmat.errors import SingmatError

    assert issubclass(KernelLiftFailed, SingmatError)


def test_exact_dot_matches_dense_dot():
    rng = random.Random(26)
    for _ in range(100):
        n = rng.randint(0, 70)
        bits = [rng.randint(0, 1) for _ in range(n)]
        v = [rng.randint(-(2**80), 2**80) for _ in range(n)]
        row = sum(b << j for j, b in enumerate(bits))
        assert exact_dot(v, row) == sum(b * x for b, x in zip(bits, v))


# -- property-based checks --------------------------------------------------


@st.composite
def bit_matrices(draw, max_dim=10):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return bm(rows)


@given(bit_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_transpose_invariant(m):
    assert rank_gf2(m) == rank_gf2(m.transpose())


@given(bit_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_always_verify(m):
    basis = kernel_gf2(m)
    for v in basis:
        assert all((row & v).bit_count() % 2 == 0 for row in m.rows)
    assert len(basis) == m.n_cols - rank_gf2(m)


@st.composite
def kernel_cases(draw):
    """(n_cols, rows) of a zero-one matrix of up to 12 x 12, empty sides
    included, with one column a copy of another, the sum of two disjoint
    others, or neither."""
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(0, 12))
    cells = st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    dependence = draw(st.sampled_from(["none", "copy", "sum"]))
    if dependence == "copy" and n_cols >= 2:
        i, k = draw(st.permutations(range(n_cols)))[:2]
        for row in rows:
            row[k] = row[i]
    elif dependence == "sum" and n_cols >= 3:
        i, j, k = draw(st.permutations(range(n_cols)))[:3]
        for row in rows:
            row[j] &= 1 - row[i]
            row[k] = row[i] + row[j]
    return n_cols, rows


@given(kernel_cases())
@example((0, []))
@example((1, [[0]]))
@example((1, [[1]]))
@example((1, []))
@example((0, [[]]))
@settings(max_examples=150, deadline=None)
def test_kernel_rational_matches_the_gauss_jordan_oracle(case):
    n_cols, rows = case
    m = bm(rows) if rows else BitMatrix.zeros(0, n_cols)
    assert (m.n_rows, m.n_cols) == (len(rows), n_cols)
    assert kernel_rational(m) == naive_rational_kernel(rows, n_cols)


def test_kernel_rational_matches_the_oracle_past_one_block():
    """More than ``_BLOCK`` pivots take the blocked triangular solve, and
    every free column's vector lifts through the one set-up."""
    rng = random.Random(27)
    for deficiency in (1, 5):
        a = _with_dependent_columns(rng, 72, deficiency)
        a[rng.randrange(72)] = 0
        basis = kernel_rational(bma(a))
        assert 72 - len(basis) > exactla._BLOCK
        assert len(basis) >= deficiency
        assert basis == naive_rational_kernel(a.tolist(), 72)
