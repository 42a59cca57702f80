"""Exact singularity decisions with machine-checkable certificates.

The decision pipeline is staged from cheap to certain; the stage that
decides is recorded as ``CertStats.stage``:

1. ``gf2``: full GF(2) rank forces an odd determinant: nonsingular,
   prime-2 evidence;
2. ``structural``: one scan for zero and duplicate lines.  A zero
   column j gives the kernel vector e_j, a later duplicate j of column
   i gives e_i - e_j (first such column in scan order);
3. ``random_prime``: the one kernel search,
   ``exactla.kernel_vector_crt``, over seeded random 31-bit primes,
   factoring the matrix once per prime.  Full rank modulo a prime
   gives a nonzero determinant residue: nonsingular with that prime
   and residue;
4. ``lift``: a rank drop in that search gives a verified integer
   kernel vector by p-adic lifting on the same factorization.  An
   unlucky prime moves on to the next; the matrix bounds how many
   there can be, and passing that bound raises KernelLiftFailed.

The line scan is returned with the certificate, so callers need not
repeat it.

Every certificate is checked with :func:`verify_certificate` before it
is returned, by an explicit test that survives ``python -O``; a failure
raises CertificateRejected.  Verification deliberately shares no code
with the code that produced the witness.  Kernel witnesses are checked
by direct integer matrix-vector multiplication over the witness's
support: each packed row is masked by the witness's nonzero columns
before its set bits are summed.  A residue certificate
from ``is_singular_exact`` comes with the factorization the producer
read it off, m[perm][:, order] = L U mod p, handed over in memory and
never serialized.  The verifier checks that factorization instead of
eliminating again: ``perm`` and ``order`` are permutations, every
factor entry is an int64 residue and U's diagonal has no zero, the
product L U equals the permuted matrix entry by entry, and the signs of
both permutations, found by its own transposition count, times the
diagonal's product give the residue.  The product runs in 64 x 64
tiles, over the tiles below the diagonal of L and above that of U
only, as float64 GEMMs of L against U split into 16-bit halves: 64
terms below 2**31 * 2**16 keep every partial sum below 2**53, so exact,
and OpenBLAS keeps GEMMs that small on the calling thread, where larger
ones spread over idle cores and cost more CPU time than they save.  At
n = 300 that is about a quarter of the cost of an elimination.

A residue certificate with no factorization is checked by an
independent modular elimination with a different pivoting rule: read
back from JSON, built by hand, for a prime of 2**31 or more, or past
n = 2**16, where the tile sums could pass 2**63.  Mod 2 that is a basis
keyed by lowest set bit, where ``rank_gf2`` keys by highest, and a row
that reduces to zero ends it.  The odd-prime elimination is one numpy
routine.  It runs on int64 arrays and reduces row updates by floor
division, t - (t // p) * p, several times faster in numpy than ``%``;
that needs p < 2**31 (``modular.PRIME_CEILING``) to keep products of
residues below 2**62, so larger primes run the same routine on an
object array of Python integers.  It counts the columns of its own
unpacked array and eliminates them in ascending count order, which
delays the fill-in of sparse matrices, then multiplies by that order's
sign, found by its own transposition count.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import CertificateRejected, DimensionMismatch, InvalidInput, NotSquare, check_int
from .exactla import Factorization, kernel_vector_crt, rank_gf2
from .matrices import BitMatrix
from .models import LineReport, find_duplicate_or_zero_lines
from .modular import PRIME_CEILING, is_prime, random_prime
from .rng import Stream

# Full GF(2) rank rules out every zero or duplicate line.
_NO_LINES = LineReport((), (), (), ())


@dataclass(frozen=True)
class CertStats:
    """How a certificate was reached.  ``primes_tried`` lists the primes
    factored, lift certificates included; ``stage`` names the deciding
    stage (see the module docstring; None when read from JSON that
    predates it); ``lines`` is the zero and duplicate line scan of the
    matrix (None when read from JSON)."""

    gf2_rank: int
    primes_tried: tuple[int, ...]
    elapsed: float
    stage: str | None = None
    lines: LineReport | None = None


@dataclass(frozen=True)
class SingularityCertificate:
    """Verdict plus an independently checkable witness.

    Singular: ``kernel_vector`` is a nonzero integer vector with
    A v = 0, gcd of entries 1, first nonzero entry positive.
    Nonsingular: (``prime``, ``residue``) with residue = det A mod prime
    nonzero.
    """

    verdict: str  # "singular" | "nonsingular"
    kernel_vector: tuple[int, ...] | None
    prime: int | None
    residue: int | None
    stats: CertStats

    @property
    def is_singular(self) -> bool:
        return self.verdict == "singular"

    def to_json(self) -> str:
        if self.verdict == "singular":
            witness = {"kernel_vector": [str(v) for v in self.kernel_vector]}
        else:
            witness = {"prime": str(self.prime), "residue": str(self.residue)}
        doc = {
            "verdict": self.verdict,
            "witness": witness,
            "stats": {
                "gf2_rank": self.stats.gf2_rank,
                "primes_tried": [str(p) for p in self.stats.primes_tried],
                "elapsed": self.stats.elapsed,
                "stage": self.stats.stage,
            },
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> SingularityCertificate:
        doc = json.loads(text)
        witness = doc["witness"]
        kernel = prime = residue = None
        if "kernel_vector" in witness:
            kernel = tuple(int(v) for v in witness["kernel_vector"])
        elif "prime" in witness:
            prime = int(witness["prime"])
            residue = int(witness["residue"])
        else:
            raise InvalidInput(f"unknown witness kind: {', '.join(witness) or 'none'}")
        stats = doc.get("stats", {})
        return cls(
            verdict=doc["verdict"],
            kernel_vector=kernel,
            prime=prime,
            residue=residue,
            stats=CertStats(
                gf2_rank=stats.get("gf2_rank", -1),
                primes_tried=tuple(int(p) for p in stats.get("primes_tried", ())),
                elapsed=stats.get("elapsed", 0.0),
                stage=stats.get("stage"),
            ),
        )


def _column_witness(lines: LineReport, n_cols: int) -> tuple[int, ...] | None:
    """Kernel vector from the first zero or duplicate column in scan
    order: e_j for a zero column j, e_i - e_j when column j repeats an
    earlier column i."""
    zero = lines.zero_cols[0] if lines.zero_cols else n_cols
    first, dup = lines.duplicate_col_pairs[0] if lines.duplicate_col_pairs else (None, n_cols)
    if zero == dup == n_cols:
        return None
    v = [0] * n_cols
    if zero < dup:
        v[zero] = 1
    else:
        v[first], v[dup] = 1, -1
    return tuple(v)


def is_singular_exact(m: BitMatrix, prime_seed: int = 0) -> SingularityCertificate:
    """Decide singularity of a zero-one matrix over the rationals.

    ``prime_seed`` seeds the primes of the per-prime loop.  The verdict
    and any kernel vector never depend on it; a residue certificate
    names the first seeded prime whose factorization has full rank.
    Raises InvalidInput for a seed outside [0, 2**64), which the prime
    stream would alias, and CertificateRejected if verification fails.
    """
    check_int("prime_seed", prime_seed, 0, 1 << 64)
    if m.n_rows != m.n_cols:
        raise NotSquare(f"{m.n_rows}x{m.n_cols} matrix")
    n = m.n_rows
    start = time.perf_counter()
    g = rank_gf2(m)
    primes_tried: list[int] = []
    lines = _NO_LINES

    def finish(stage, verdict, kernel=None, prime=None, residue=None, factorization=None):
        elapsed = time.perf_counter() - start
        stats = CertStats(g, tuple(primes_tried), elapsed, stage, lines)
        cert = SingularityCertificate(verdict, kernel, prime, residue, stats)
        if not verify_certificate(m, cert, factorization):
            raise CertificateRejected(f"{stage} certificate failed verification")
        return cert

    if g == n:
        primes_tried.append(2)
        return finish("gf2", "nonsingular", prime=2, residue=1)

    lines = find_duplicate_or_zero_lines(m)
    witness = _column_witness(lines, n)
    if witness is not None:
        return finish("structural", "singular", kernel=witness)

    def seeded_primes():
        stream = Stream(prime_seed)
        while True:
            p = random_prime(stream)
            if p not in primes_tried:
                primes_tried.append(p)
                yield p

    found = kernel_vector_crt(m, seeded_primes())
    if found.vector is not None:
        return finish("lift", "singular", kernel=found.vector)
    return finish(
        "random_prime",
        "nonsingular",
        prime=found.prime,
        residue=found.residue,
        factorization=found.factorization,
    )


# ---------------------------------------------------------------------------
# Independent verification


def _check_det_mod_np(a: np.ndarray, p: int) -> int:
    """Determinant mod p of a square array, written independently of
    the producing path: the pivot is the *last* nonzero row in each
    column, rows are eliminated against it where it stands, then it is
    swapped into place.  An int64 array needs p < 2**31; an object
    array of Python ints takes any p."""
    M = a - a // p * p
    n = M.shape[0]
    det = 1
    for c in range(n):
        nz = M[c:, c].nonzero()[0]
        if nz.size == 0:
            return 0
        pivot = c + int(nz[-1])  # last nonzero: differs from the producer
        piv = int(M[pivot, c])
        det = det * piv % p
        rows = c + nz[:-1]
        if rows.size:
            f = M[rows, c] * pow(piv, -1, p) % p
            t = np.multiply.outer(f, M[pivot, c:])
            np.subtract(M[rows, c:], t, out=t)
            t -= t // p * p
            M[rows, c:] = t
        if pivot != c:
            M[[c, pivot]] = M[[pivot, c]]
            det = -det
    return det % p


def _unpack_int64(m: BitMatrix) -> np.ndarray:
    """The entries as an int64 array, shifted out of the little-endian
    64-bit words of each packed row's bytes (independent of
    ``BitMatrix.to_bit_array``)."""
    n_words = (m.n_cols + 63) // 64
    packed = b"".join(row.to_bytes(8 * n_words, "little") for row in m.rows)
    words = np.frombuffer(packed, dtype="<u8").reshape(m.n_rows, n_words)
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(m.n_rows, 64 * n_words)[:, : m.n_cols].astype(np.int64)


def _sign_by_transpositions(order: list[int]) -> int:
    """Sign of a permutation, by sorting a copy with swaps."""
    work = list(order)
    sign = 1
    for i in range(len(work)):
        while work[i] != i:
            j = work[i]
            work[i], work[j] = work[j], work[i]
            sign = -sign
    return sign


def _check_det_mod(m: BitMatrix, p: int) -> int:
    """det m mod p, eliminating the columns in ascending order of their
    own counts, then multiplying by that order's sign.  From p = 2**31
    on the entries are Python ints, so products stay exact."""
    a = _unpack_int64(m)
    order = np.argsort(a.sum(axis=0), kind="stable")
    # take, not a[:, order]: the row updates need a row-major array.
    a = a.take(order, axis=1)
    det = _check_det_mod_np(a if p < PRIME_CEILING else a.astype(object), p)
    return det * _sign_by_transpositions(order.tolist()) % p


# Side of the square tiles the factor check multiplies in, and the part
# of a tile strictly below its diagonal.
_TILE = 64
_BELOW = np.tri(_TILE, k=-1, dtype=bool)
# Largest n whose tile sums, at most n / 64 products below 2**53 each,
# stay below 2**63; larger factorizations are checked by eliminating.
_FACTOR_CHECK_MAX = 1 << 16


def _lu_product_mod(f: np.ndarray, p: int) -> np.ndarray:
    """L U mod p, where L is the strict lower part of the square int64
    array ``f`` plus the identity, U is its upper part, every entry is in
    [0, p), p < 2**31 and n <= 2**16.

    The product runs over 64 x 64 tiles (i, j) of the result, and over
    the tiles k <= min(i, j) of the inner dimension only, since the
    triangles are zero elsewhere.  Each step multiplies an L tile, whole,
    by the U tile split into 16-bit halves side by side, in float64:
    every partial sum is an integer below 64 * 2**31 * 2**16 = 2**53, so
    exact under any BLAS summation order.  The steps are summed in
    int64, at most n / 64 <= 2**10 of them below 2**63, then reduced by
    floor division and recombined, hi * 2**16 + lo.  Tiles of 64 also
    keep every GEMM on the calling thread; OpenBLAS threads larger ones.
    """
    n = f.shape[0]
    # Only the diagonal tiles mix L and U; the steps read no tile right
    # of them in L or below them in U.
    lower = f.astype(np.float64)
    for i in range(0, n, _TILE):
        diag = lower[i : i + _TILE, i : i + _TILE]
        below = _BELOW[: diag.shape[0], : diag.shape[0]]
        diag[...] = np.where(below, diag, np.eye(diag.shape[0]))
    out = np.empty((n, n), dtype=np.int64)
    for j in range(0, n, _TILE):
        upper = f[: j + _TILE, j : j + _TILE].copy()
        w = upper.shape[1]
        upper[j:][_BELOW[:w, :w]] = 0
        halves = np.concatenate((upper >> 16, upper & 0xFFFF), axis=1).astype(np.float64)
        for i in range(0, n, _TILE):
            acc = 0
            for k in range(0, min(i, j) + 1, _TILE):
                step = lower[i : i + _TILE, k : k + _TILE] @ halves[k : k + _TILE]
                acc = acc + step.astype(np.int64)
            acc -= acc // p * p
            t = acc[:, :w] * 65536 + acc[:, w:]
            out[i : i + _TILE, j : j + _TILE] = t - t // p * p
    return out


def _as_permutation(seq, n: int) -> list[int] | None:
    """``seq`` as a list of ints if it is a permutation of range(n)."""
    if len(seq) != n or sorted(seq) != list(range(n)):
        return None
    return [int(i) for i in seq]


def _check_factorization(m: BitMatrix, p: int, residue: int, fac: Factorization) -> bool:
    """Whether ``fac`` proves det m = residue mod p, for a prime p <
    2**31, without an elimination: ``perm`` and ``order`` are
    permutations, the factors are int64 residues with no zero on U's
    diagonal, m[perm][:, order] = L U mod p entry by entry, and
    sign(perm) sign(order) times the diagonal's product is the residue."""
    n = m.n_rows
    perm = _as_permutation(fac.perm, n)
    order = _as_permutation(fac.order, n)
    if perm is None or order is None:
        return False
    f = np.asarray(fac.lu)
    if f.dtype != np.int64 or f.shape != (n, n) or (f.size and (f.min() < 0 or f.max() >= p)):
        return False
    det = _sign_by_transpositions(perm) * _sign_by_transpositions(order)
    for u in np.diagonal(f).tolist():
        det = det * u % p
    if det == 0 or det != residue % p:
        return False
    return np.array_equal(_lu_product_mod(f, p), _unpack_int64(m)[np.ix_(perm, order)])


def verify_certificate(
    m: BitMatrix, cert: SingularityCertificate, factorization: Factorization | None = None
) -> bool:
    """Independently check a certificate against its matrix.  A kernel
    witness v must have one entry per column, not all zero, and every
    row's exact integer sum of v over the row's set bits must vanish;
    the sum walks only the bits in the support of v, since the other
    terms are zero, so a structural witness e_j or e_i - e_j costs one
    AND per row.  A residue certificate for a prime below 2**31 that
    comes with the ``factorization`` it was read off is checked against
    those factors; without one, it is checked by eliminating."""
    n = m.n_rows
    if cert.verdict == "singular":
        v = cert.kernel_vector
        if v is None:
            return False
        if len(v) != m.n_cols:
            raise DimensionMismatch("witness length does not match matrix")
        support = sum(1 << j for j, x in enumerate(v) if x)
        if not support:
            return False
        for row in m.rows:
            acc = 0
            w = row & support
            while w:
                j = (w & -w).bit_length() - 1
                acc += v[j]
                w &= w - 1
            if acc != 0:
                return False
        return True
    if cert.verdict != "nonsingular" or m.n_rows != m.n_cols:
        return False
    p, residue = cert.prime, cert.residue
    if p is None or residue is None or residue % p == 0:
        return False
    if p == 2:
        # Its own GF(2) basis, keyed unlike rank_gf2's.
        return _det_mod2_packed(m) == residue % 2
    if not is_prime(p):
        return False
    if factorization is not None and p < PRIME_CEILING and n <= _FACTOR_CHECK_MAX:
        return _check_factorization(m, p, residue, factorization)
    return _check_det_mod(m, p) == residue % p


def _det_mod2_packed(m: BitMatrix) -> int:
    """det mod 2 of a square matrix: 1 iff its rows are independent over
    GF(2), found by reducing each row against a basis keyed by lowest
    set bit, and 0 at the first row that reduces to zero."""
    basis: dict[int, int] = {}
    for row in m.rows:
        while row:
            low = (row & -row).bit_length()
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
        else:
            return 0
    return 1
