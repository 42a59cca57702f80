"""Exact linear algebra over GF(2), prime fields, and the rationals.

Each field has one elimination.  Over GF(2) it reduces each packed
row (a Python bit-integer, so a row update is one bignum XOR) against
a dictionary basis of the rows seen so far, one lookup and one XOR per
step, and the job picks the key.  ``rank_gf2`` needs no pivot order:
it keys by highest set bit, the cheaper reduction on sweep matrices,
and counts the basis.  ``kernel_gf2`` keys by lowest set bit; the
pivot set of a row space does not depend on the elimination, so the
sorted keys are the leftmost pivots, and back-substituting one vector
per free column through the basis rows gives the canonical basis.
Over a prime field it is one LU factorization with row swaps: the
determinant residue is the signed product of its diagonal, and the
kernel lift solves through it.  It runs in one of two loops.  Shapes
below ``_MOD_NUMPY_MIN``, and sparse shapes of at most one block, at
most (5/4) n ln n nonzeros (5/4 of the paper's threshold density), run
on Python lists: each pivot updates only the entries its row's
nonzeros reach, about 1,400 in all on an n = 50 matrix of the Lemma
2.1 check, where the int64 loop makes some 13 numpy calls per pivot.
Denser or larger arrays run on int64, which needs p < 2**31
(``modular.PRIME_CEILING``) to keep products of residues below 2**62,
and reduces blocks by floor division, t - (t // p) * p, which numpy
does several times faster than ``%``.
The kernel lift solves through that factorization once per p-adic
digit, in one of two ways.  Up to one block of ``_BLOCK`` = 64 pivots
it substitutes on Python lists: one block's inverse costs more to set
up than it saves (an n = 50 kernel vector took 3.6-3.8 ms blocked,
2.2-2.7 ms on lists).  Past that it is a blocked triangular solve,
after Chen and Storjohann's BLAS-based Dixon lifting (ISSAC 2005): set
up once per factorization, it inverts every 64 x 64 diagonal block of
L and of U, and then solves with two products per block, one by the
block's inverse and one by the strip of the factor beside the block.
Every product is an exact float64 GEMM: the left operand goes in as
16-bit halves, so each sum of 64 terms below 2**31 * 2**16 stays below
2**53, where float64 is exact in any summation order (the scheme of
FFLAS-FFPACK, Dumas, Giorgi and Pernet 2008); the halves are
recombined and reduced in int64.
The rationals have no elimination of their own: both rational kernel
searches lift through that factorization, one p-adic solve per vector.

``kernel_vector_crt`` is the certificates' kernel search, and a lucky
prime ends it.  It takes the BitMatrix to solve and builds the int64
array the prime-field elimination runs on, once per search.  It factors
the matrix once per prime it tries, drawn lazily from the caller's
sequence (the whole fixed list by default), with the columns in
ascending column-count order: sparse columns first delay the fill-in (a
static Markowitz order), which cuts the update work of a c = 2 sweep
matrix at n = 300 by about a quarter.  Full column rank mod p ends the
search: the columns are independent, and a square matrix gets its
determinant residue off the same diagonal, times the sign of the column
order, returned with the factorization for the verifier to check.  Rank
n_cols - 1 runs Dixon p-adic lifting on that factorization, O(n^2) solve
steps until rational reconstruction yields a vector that passes an exact
check; the rational kernel is then one-dimensional, so that vector,
mapped back and made primitive, is the canonical one.  ``_primitive``
divides an integer vector by the gcd of its entries and signs it so that
its first nonzero entry is positive; no Fraction is built on the lift
path.  Lower rank refactors in natural order, where the lift's first
free column makes the vector canonical.  A matrix with fewer than
n_cols - 1 distinct nonzero rows has lower rank for every prime, so it
is factored in natural order from the start.  ``kernel_rational`` lifts
the vector of every free column of the natural order, which gives the
reduced-echelon basis.

An unlucky prime moves on to the next one, and the matrix bounds how
many there can be.  Every nonzero minor of a zero-one matrix is at most
sqrt(norms), norms the product of max(row weight, 1) over the rows
(Hadamard).  A prime that fails divides a nonzero minor: the
determinant of a nonsingular matrix, or else the minor on the column
rank profile of the sparse-first or of the natural order, since a prime
that divides neither keeps that profile mod p and the lift
reconstructs each vector.  So the distinct failing primes multiply to
at most norms, and a search whose primes pass that product raises
KernelLiftFailed, as does a finite sequence that runs out.
Every kernel here is a right kernel; the left kernel of ``m`` is the
right kernel of ``m.transpose()``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, log, prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInput, KernelLiftFailed, SelfCheckFailed
from .matrices import BitMatrix, pack_rows
from .modular import PRIME_CEILING, crt_primes, rational_reconstruct, symmetric_lift

# Shapes at least this large take _lu_mod's int64 loop, unless they fit
# in one _BLOCK and have at most (5/4) n ln n nonzeros: the list loop
# touches only the nonzeros of each pivot row.
_MOD_NUMPY_MIN = 24
# Pivots per block of the lift's triangular solves, and the mask of the
# 16-bit halves its products split an operand into: 64 products of a
# residue below 2**31 and a half below 2**16 sum to less than 2**53.
_BLOCK = 64
_HALF_MASK = (1 << 16) - 1


# ---------------------------------------------------------------------------
# GF(2) elimination


def rank_gf2(m: BitMatrix) -> int:
    """Rank of a zero-one matrix over GF(2)."""
    basis: dict[int, int] = {}
    for row in m.rows:
        while row:
            top = row.bit_length()
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def _gf2_right_kernel_vectors(rows: Sequence[int], n_cols: int) -> list[int]:
    """One basis vector per free column f: bit f set, the other free
    bits clear, pivot bits back-substituted from a basis of the row
    space keyed by lowest set bit, whose keys are the leftmost pivots."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            low = (row & -row).bit_length() - 1
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    pivots = sorted(basis, reverse=True)
    vectors = []
    for f in range(n_cols):
        if f in basis:
            continue
        v = 1 << f
        for c in pivots:
            if (basis[c] & v).bit_count() & 1:
                v |= 1 << c
        vectors.append(v)
    return vectors


def kernel_gf2(m: BitMatrix) -> tuple[int, ...]:
    """Basis of the right kernel over GF(2), as packed bit vectors of
    width ``m.n_cols``.

    Every returned vector is checked against the matrix before return;
    a failure raises SelfCheckFailed.
    """
    basis = _gf2_right_kernel_vectors(m.rows, m.n_cols)
    if any((row & v).bit_count() & 1 for v in basis for row in m.rows):
        raise SelfCheckFailed("GF(2) kernel vector fails its check")
    return tuple(basis)


# ---------------------------------------------------------------------------
# Prime-field elimination


class _LU(NamedTuple):
    """a[perm] = L U mod p, from forward elimination with row swaps:
    ``factors`` holds U on and right of the pivots and the multipliers
    of L below them; ``sign`` is the sign of the row permutation."""

    factors: np.ndarray | list[list[int]]
    perm: list[int]
    pivots: list[int]
    sign: int
    p: int


def _lu_mod(a: np.ndarray, p: int) -> _LU:
    """Factor an int64 matrix once mod prime p < 2**31.  Shapes below
    ``_MOD_NUMPY_MIN``, and those of at most ``_BLOCK`` with at most
    (5/4) n ln n nonzeros (n the longer side), are reduced once in
    numpy and factored on lists by ``_lu_mod_py``; the rest by the
    int64 loop ``_lu_mod_np``.  The route counts nonzeros, not the sum,
    which negative entries would bring down."""
    n = max(a.shape)
    if n < _MOD_NUMPY_MIN or (n <= _BLOCK and 4 * np.count_nonzero(a) <= 5 * n * log(n)):
        return _lu_mod_py((a - a // p * p).tolist(), a.shape[1], p)
    return _lu_mod_np(a, p)


def _lu_mod_np(a: np.ndarray, p: int) -> _LU:
    """_lu_mod on an int64 copy of ``a``: residues stay below 2**31, so
    products below 2**62, and each update is reduced by floor division
    (a multiply by a precomputed inverse), not by the slower ``%``."""
    M = a - a // p * p
    n_rows, n_cols = M.shape
    perm = list(range(n_rows))
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = M[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            M[[r, pivot]] = M[[pivot, r]]
            perm[r], perm[pivot] = perm[pivot], perm[r]
            sign = -sign
        hits = nz[1:] + r
        if hits.size:
            f = M[hits, c] * pow(int(M[r, c]), -1, p) % p
            t = np.multiply.outer(f, M[r, c + 1 :])
            np.subtract(M[hits, c + 1 :], t, out=t)
            t -= t // p * p
            M[hits, c + 1 :] = t
            M[hits, c] = f  # L, below the pivot
        pivots.append(c)
        r += 1
    return _LU(M, perm, pivots, sign, p)


def _lu_mod_py(M: list[list[int]], n_cols: int, p: int) -> _LU:
    """_lu_mod on Python lists of residues in [0, p), which it factors
    in place.  Each pivot collects its row's nonzero entries right of
    the pivot once, and in each row below that is nonzero in the pivot
    column updates only those entries: x - f * 0 = x mod p for a
    residue x, so the factors are the same as the dense update's, at a
    fraction of the work on a sparse matrix.  Any prime works: the
    entries are Python ints."""
    n_rows = len(M)
    perm = list(range(n_rows))
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        hits = [i for i in range(r, n_rows) if M[i][c]]
        if not hits:
            continue
        pivot = hits[0]
        if pivot != r:
            M[r], M[pivot] = M[pivot], M[r]
            perm[r], perm[pivot] = perm[pivot], perm[r]
            sign = -sign
        # Row r, swapped to the pivot's place, is zero in column c.
        if len(hits) > 1:
            inv = pow(M[r][c], -1, p)
            top = [(j, t) for j, t in enumerate(M[r][c + 1 :], c + 1) if t]
            for i in hits[1:]:
                row = M[i]
                f = row[c] * inv % p
                for j, t in top:
                    row[j] = (row[j] - f * t) % p
                row[c] = f  # L, below the pivot
        pivots.append(c)
        r += 1
    return _LU(M, perm, pivots, sign, p)


def _lu_det(lu: _LU, n: int) -> int:
    """Determinant mod p of the n x n matrix behind ``lu``."""
    if len(lu.pivots) < n:
        return 0
    det = lu.sign
    for k in range(n):
        det = det * int(lu.factors[k][k]) % lu.p
    return det


# ---------------------------------------------------------------------------
# Rational kernels


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries, with its
    sign flipped so that the first nonzero entry is positive."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


# Solves A[:, pivots] y = b mod p for an integer vector b: y, or None when
# that system is inconsistent mod p.
_Solve = Callable[[np.ndarray], "list[int] | None"]


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """An int64 array congruent to a @ b mod p and in [0, 2**54), for
    (stacks of) matrices of residues in [0, p), p < 2**31, with an inner
    dimension of at most ``_BLOCK``.

    The rows of a go in as their 16-bit halves, so every sum of the
    float64 product is an integer below 64 * 2**31 * 2**16 = 2**53 and
    exact whatever the summation order; the high halves' rows are
    reduced by floor division before they are shifted back."""
    k = a.shape[-2]
    halves = np.concatenate((a & _HALF_MASK, a >> 16), axis=-2).astype(np.float64)
    t = (halves @ b.astype(np.float64, copy=False)).astype(np.int64)
    hi = t[..., k:, :]
    return t[..., :k, :] + (hi - hi // p * p) * (_HALF_MASK + 1)


def _lower_inverses(n: np.ndarray, d: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of a stack of ``_BLOCK`` x ``_BLOCK`` lower
    triangles, given their strictly lower parts ``n`` and the inverses
    ``d`` of their diagonals, by doubling: with the inverses of the two
    diagonal halves A and B of [[A, 0], [C, B]] known, its inverse is
    [[A^-1, 0], [-B^-1 C A^-1, B^-1]].  Each of the six levels is two
    batched products over every pair of halves of every block."""
    k = n.shape[0]
    x = np.zeros_like(n)
    x[:, np.arange(_BLOCK), np.arange(_BLOCK)] = d
    s = 1
    while s < _BLOCK:
        g = _BLOCK // (2 * s)
        j = np.arange(g)
        xr = x.reshape(k, g, 2, s, g, 2, s)
        nr = n.reshape(k, g, 2, s, g, 2, s)
        ca = _mul_mod(nr[:, j, 1, :, j, 0, :], xr[:, j, 0, :, j, 0, :], p)
        w = -_mul_mod(xr[:, j, 1, :, j, 1, :], ca - ca // p * p, p)
        xr[:, j, 1, :, j, 0, :] = w - w // p * p
        s *= 2
    return x


def _lu_solve(lu: _LU) -> _Solve:
    """Solve through L, then U, in O(n^2) per right-hand side.

    Up to one block of pivots this is ``_lu_solve_py``.  Past it, the
    set-up splits the r pivots into blocks of ``_BLOCK``, inverts each
    diagonal block of L and of U once (``_lower_inverses``, U's through
    its transpose, all in one batch) and keeps the strips of L below and
    of U above each block, sliced out of the factors.  A solve then
    takes two products per block, the block's inverse times its part of
    the vector and the strip times the result, each exact by
    ``_mul_mod``.  Vectors are rows and the blocks and strips are stored
    transposed, so each product is a GEMM with two rows on the left,
    which OpenBLAS runs on the calling thread (a 300 x 64 matrix times
    two columns ran on two threads, at twice the CPU time)."""
    r = len(lu.pivots)
    if r <= _BLOCK:
        return _lu_solve_py(lu)
    M, p = lu.factors, lu.p
    n_rows = M.shape[0]
    piv = np.array(lu.pivots)
    perm = np.array(lu.perm)
    bounds = [(s, min(s + _BLOCK, r)) for s in range(0, r, _BLOCK)]
    nb = len(bounds)
    # L's diagonal blocks, then U's transposed, padded to full blocks
    # with the identity: strictly lower parts and inverse diagonals.
    blocks = np.zeros((2 * nb, _BLOCK, _BLOCK), dtype=np.int64)
    inv_diag = np.ones((2 * nb, _BLOCK), dtype=np.int64)
    for i, (s, e) in enumerate(bounds):
        q = e - s
        sq = M[s:e, piv[s:e]]
        blocks[i, :q, :q] = np.tril(sq, -1)
        blocks[nb + i, :q, :q] = np.triu(sq, 1).T
        inv_diag[nb + i, :q] = [pow(u, -1, p) for u in sq.diagonal().tolist()]
    inv = _lower_inverses(blocks, inv_diag, p).astype(np.float64)
    lower, upper = [], []
    for i, (s, e) in enumerate(bounds):
        q = e - s
        cols = piv[s:e]
        lower.append((s, e, inv[i, :q, :q].T, M[e:, cols].T.astype(np.float64)))
        upper.append((s, e, inv[nb + i, :q, :q], M[:s, cols].T.astype(np.float64)))

    def solve(b: np.ndarray) -> list[int] | None:
        c = b[None, perm]
        c = c - c // p * p
        for s, e, inv_block, strip in lower:
            x = _mul_mod(c[:, s:e], inv_block, p)
            x = c[:, s:e] = x - x // p * p
            if e < n_rows:
                t = c[:, e:] - _mul_mod(x, strip, p)
                c[:, e:] = t - t // p * p
        if c[:, r:].any():
            return None
        w = c[:, :r]
        for s, e, inv_block, strip in reversed(upper):
            y = _mul_mod(w[:, s:e], inv_block, p)
            y = w[:, s:e] = y - y // p * p
            if s:
                t = w[:, :s] - _mul_mod(y, strip, p)
                w[:, :s] = t - t // p * p
        return w[0].tolist()

    return solve


def _lu_solve_py(lu: _LU) -> _Solve:
    """_lu_solve on Python lists, for at most one block of pivots."""
    M, perm, pivots, p = lu.factors, lu.perm, lu.pivots, lu.p
    if isinstance(M, np.ndarray):
        M = M.tolist()
    n_rows, r = len(M), len(pivots)
    inv_diag = [pow(M[k][c], -1, p) for k, c in enumerate(pivots)]

    def solve(b: np.ndarray) -> list[int] | None:
        b = b.tolist()
        c = [b[i] % p for i in perm]
        for k, col in enumerate(pivots):
            if c[k]:
                for i in range(k + 1, n_rows):
                    if M[i][col]:
                        c[i] = (c[i] - M[i][col] * c[k]) % p
        if any(c[r:]):
            return None
        for k, col in reversed(list(enumerate(pivots))):
            if c[k]:
                c[k] = c[k] * inv_diag[k] % p
                for i in range(k):
                    if M[i][col]:
                        c[i] = (c[i] - M[i][col] * c[k]) % p
        return c[:r]

    return solve


def _reconstruct(residues: list[int], modulus: int) -> tuple[int, list[int]] | None:
    """Common denominator and numerators of the rationals with these
    residues, each within Wang's bound sqrt(modulus / 2); None if any
    residue has no such preimage yet."""
    half = modulus // 2
    den = 1
    for r in residues:
        t = symmetric_lift(den * r, modulus)
        if t * t <= half:
            continue
        nd = rational_reconstruct(t, modulus)
        if nd is None:
            return None
        den *= nd[1]
        if den * den > half:
            return None
    nums = [symmetric_lift(den * r, modulus) for r in residues]
    if any(x * x > half for x in nums):
        return None
    return den, nums


def _padic_kernel_vector(
    a: np.ndarray, rows: Sequence[int], lu: _LU, solve: _Solve, f: int, target: int
) -> tuple[int, ...] | None:
    """Dixon lifting over one prime p of the kernel vector of free
    column f, with ``lu = _lu_mod(a, p)``, ``solve = _lu_solve(lu)``,
    ``rows`` the packed rows of ``a`` and ``target`` the modulus that
    rational reconstruction must pass.

    With pivots P mod p, solves a[:, P] y = -a[:, f] p-adically; the
    kernel vector has y on P, 1 at f and 0 on the other free columns.
    Returns it, made primitive, once rational reconstruction gives a
    vector that is zero past f and passes the exact check against
    ``rows``; None when the system is inconsistent mod p or the modulus
    passes ``target`` first (both mean p is unlucky).  The pivots are
    independent mod p, so over Q, and the vector is the only kernel
    vector with its zeros: it does not depend on p.  With rank
    n_cols - 1 mod p, the column order does not matter: the rational
    kernel is then one-dimensional, so a verified vector spans it;
    ``kernel_vector_crt`` lifts on its sparse-first factorization then,
    passing the column-permuted array and its packed rows.  The residue
    update is a float64 GEMV, exact: the entries are 0/1 and y < p < 2**31,
    so every partial sum stays below n * 2**31 < 2**53 for n < 2**22.
    """
    p, pivots = lu.p, lu.pivots
    a_piv = a[:, pivots].astype(np.float64)
    b = -a[:, f]
    x = [0] * len(pivots)
    modulus = 1
    while modulus <= target:
        y = solve(b)
        if y is None:
            return None
        # Exact: a[:, P] y = b mod p on every row of a consistent system.
        b = (b - (a_piv @ np.array(y, dtype=np.float64)).astype(np.int64)) // p
        x = [xi + yi * modulus for xi, yi in zip(x, y)]
        modulus *= p
        found = _reconstruct(x, modulus)
        if found is None:
            continue
        den, nums = found
        v = [0] * a.shape[1]
        v[f] = den
        for c, num in zip(pivots, nums):
            v[c] = num
        if not any(v[f + 1 :]) and all(exact_dot(v, row) == 0 for row in rows):
            return _primitive(v)
    return None


class Factorization(NamedTuple):
    """a[perm][:, order] = L U mod p for a square zero-one matrix ``a``
    of full rank mod p: ``lu`` holds U on and above the diagonal and the
    multipliers of L below it; L's diagonal is all ones."""

    lu: np.ndarray | list[list[int]]
    perm: list[int]
    order: list[int]


class KernelSearch(NamedTuple):
    """What one kernel search found.  ``vector`` is the canonical integer
    right-kernel vector, verified exactly, or None when the columns are
    independent; then ``prime`` is the prime whose factorization had
    full column rank and, for a square matrix, ``residue`` is the
    determinant modulo it (nonzero) and ``factorization`` the factors it
    was read off, which let a verifier check the residue without
    eliminating again; they stay in memory and are never serialized."""

    vector: tuple[int, ...] | None
    prime: int | None = None
    residue: int | None = None
    factorization: Factorization | None = None


def _permutation_sign(order: Sequence[int]) -> int:
    """Sign of a permutation: (-1) ** (length - number of cycles)."""
    seen = [False] * len(order)
    cycles = 0
    for start in range(len(order)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = order[j]
    return -1 if (len(order) - cycles) & 1 else 1


def _free_columns(lu: _LU, n_cols: int) -> list[int]:
    """The columns without a pivot mod p, in ascending order."""
    return sorted(set(range(n_cols)) - set(lu.pivots))


def _search_primes(m: BitMatrix, primes: Iterable[int] | None) -> Iterator[tuple[int, int]]:
    """The prime loop of both kernel searches: yields each prime with the
    modulus that reconstruction must pass, and drawing the next one
    counts the last one unlucky.  Raises as ``kernel_vector_crt`` says."""
    # Every nonzero minor is at most sqrt(norms); numerators and
    # denominators of the lift are such minors, so reconstruction needs
    # a modulus past twice the square of that bound.
    norms = prod(row.bit_count() or 1 for row in m.rows)
    target = 2 * (isqrt(norms) + 1) ** 2
    if primes is None:
        primes = (crt_primes(k + 1)[k] for k in count())
    unlucky = 1  # the product of the distinct unlucky primes
    for p in primes:
        if p >= PRIME_CEILING:
            raise InvalidInput(f"the kernel search needs primes below 2**31, got {p}")
        yield p, target
        if unlucky % p:
            unlucky *= p
            if unlucky > norms:
                raise KernelLiftFailed(f"unlucky primes past the bound 2**{norms.bit_length()}")
    raise KernelLiftFailed("the prime sequence ran out before a lift succeeded")


def kernel_vector_crt(m: BitMatrix, primes: Iterable[int] | None = None) -> KernelSearch:
    """The kernel search of a zero-one matrix (see the module docstring):
    p-adic lifting over primes drawn lazily from ``primes`` (default: the
    fixed list), each factored once from the int64 array built here,
    until one is lucky.  A vector returned is the canonical one, verified
    exactly.  Raises KernelLiftFailed when ``primes`` runs out first or
    its distinct unlucky primes multiply past the product of the row
    weights, and InvalidInput for a prime of 2**31 or more: its int64
    elimination and float64 residue updates are exact only below that.
    """
    a = m.to_bit_array().astype(np.int64)
    n_cols = m.n_cols
    # Fewer distinct nonzero rows than n_cols - 1 bound the rank below it.
    sparse_first = len(set(m.rows) - {0}) >= n_cols - 1
    if sparse_first:
        order = np.argsort(a.sum(axis=0), kind="stable")
        # take keeps rows contiguous; a[:, order] is column-major, and
        # the row updates on it cost as much as the fill-in saves.
        a_sparse = a.take(order, axis=1)
    for p, target in _search_primes(m, primes):
        if sparse_first:
            lu = _lu_mod(a_sparse, p)
            rank = len(lu.pivots)
            if rank == n_cols:
                # Independent mod p, so independent over Q.
                if m.n_rows != n_cols:
                    return KernelSearch(None, p)
                cols = order.tolist()
                residue = _lu_det(lu, n_cols) * _permutation_sign(cols) % p
                return KernelSearch(None, p, residue, Factorization(lu.factors, lu.perm, cols))
            if rank == n_cols - 1:
                f = _free_columns(lu, n_cols)[0]
                v = _padic_kernel_vector(a_sparse, pack_rows(a_sparse), lu, _lu_solve(lu), f, target)
                if v is not None:  # back to the natural column order
                    return KernelSearch(_primitive([v[k] for k in np.argsort(order)]))
        if not sparse_first or rank < n_cols - 1:
            # Nullity two or more mod p: the lift needs the natural
            # order's first free column for the canonical vector.
            lu = _lu_mod(a, p)
            f = _free_columns(lu, n_cols)[0]
            v = _padic_kernel_vector(a, m.rows, lu, _lu_solve(lu), f, target)
            if v is not None:
                return KernelSearch(v)


def kernel_rational(m: BitMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The reduced-echelon basis of the rational right kernel: one
    vector per free column f, 1 at f, 0 at the other free columns and
    past f, as tuples of Fractions in the order of f.

    Over a prime p it lifts the vector of every free column mod p of
    the natural order, which must pass the exact check and be zero past
    f.  Then no free column mod p is a rational pivot, and as the rank
    mod p is at most the rank over Q, the pivots mod p are the rational
    column rank profile: the vectors, divided by their entries at f, are
    the unique reduced-echelon basis.  A failed lift makes p unlucky;
    raises KernelLiftFailed as ``kernel_vector_crt`` does.
    """
    a = m.to_bit_array().astype(np.int64)
    for p, target in _search_primes(m, None):
        lu = _lu_mod(a, p)
        solve = _lu_solve(lu)
        free = _free_columns(lu, m.n_cols)
        lifted = [_padic_kernel_vector(a, m.rows, lu, solve, f, target) for f in free]
        if None not in lifted:
            return tuple(tuple(Fraction(e, v[f]) for e in v) for f, v in zip(free, lifted))


# ---------------------------------------------------------------------------
# Exact dot products


def exact_dot(v: Sequence[int], row: int) -> int:
    """Exact dot product of an integer vector with a packed zero-one
    row, visiting only the row's set bits."""
    acc = 0
    while row:
        low = row & -row
        acc += v[low.bit_length() - 1]
        row ^= low
    return acc
