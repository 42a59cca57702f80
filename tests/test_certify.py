"""Certification pipeline: verdicts, witnesses, tamper detection."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singmat
from oracles import (
    cleared,
    naive_bernoulli_rows,
    naive_det,
    naive_lu_product,
    naive_matvec,
    naive_rank,
    naive_rational_kernel,
)
from singmat import certify, exactla
from singmat.certify import (
    CertStats,
    SingularityCertificate,
    is_singular_exact,
    verify_certificate,
)
from singmat.errors import DimensionMismatch, KernelLiftFailed, NotSquare
from singmat.harness import bernoulli_density, combinatorial_density
from singmat.matrices import BitMatrix
from singmat.models import LineReport, SampleSpec, find_duplicate_or_zero_lines, sample
from singmat.modular import PRIME_CEILING, crt_primes, is_prime
from singmat.rng import derive_seed


def bm(rows):
    return BitMatrix.from_rows(rows)


def test_identity_is_nonsingular_via_gf2():
    cert = is_singular_exact(BitMatrix.identity(5))
    assert cert.verdict == "nonsingular"
    assert cert.prime == 2 and cert.residue == 1
    assert cert.stats.gf2_rank == 5


def test_even_determinant_needs_prime_stage():
    m = bm([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # det 2, gf2 rank 2
    cert = is_singular_exact(m)
    assert cert.verdict == "nonsingular"
    assert cert.stats.gf2_rank == 2
    assert cert.prime not in (None, 2)
    assert cert.residue == 2 % cert.prime


def test_zero_column_witness():
    cert = is_singular_exact(bm([[1, 0], [1, 0]]))
    assert cert.verdict == "singular"
    assert cert.kernel_vector == (0, 1)


def test_exhaustive_agreement_with_determinant_up_to_3():
    for n in (1, 2, 3):
        for bits in range(1 << (n * n)):
            rows = [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
            cert = is_singular_exact(bm(rows), prime_seed=bits)
            assert cert.is_singular == (naive_det(rows) == 0)


def test_all_certificates_verify_on_random_instances():
    rng = random.Random(0)
    for trial in range(150):
        n = rng.randint(1, 24)
        if rng.random() < 0.5:
            spec = SampleSpec.bernoulli(n, Fraction(rng.randint(0, 8), 8), trial)
        else:
            spec = SampleSpec.combinatorial(n, rng.randint(0, n), trial)
        m = sample(spec)
        cert = is_singular_exact(m, prime_seed=trial)
        assert verify_certificate(m, cert)


def test_verdict_independent_of_prime_seed():
    """The lift runs on the seeded primes, so its kernel vector must not
    depend on them either."""
    rng = random.Random(1)
    matrices = [
        sample(SampleSpec.bernoulli(rng.randint(2, 16), Fraction(1, 4), trial))
        for trial in range(10)
    ] + [_zero_row_matrix(n, seed) for n, seed in ((6, 11), (12, 12), (30, 13))]
    for m in matrices:
        outcomes = set()
        for s in range(10):
            cert = is_singular_exact(m, prime_seed=s)
            outcomes.add((cert.verdict, cert.kernel_vector))
        assert len(outcomes) == 1


def test_nonsingular_whenever_gf2_full_rank():
    rng = random.Random(2)
    for trial in range(40):
        n = rng.randint(1, 16)
        m = sample(SampleSpec.bernoulli(n, Fraction(1, 2), 1000 + trial))
        cert = is_singular_exact(m, prime_seed=trial)
        if cert.stats.gf2_rank == n:
            assert cert.verdict == "nonsingular"


def test_tampered_singular_witness_fails():
    m = bm([[1, 0], [1, 0]])
    cert = is_singular_exact(m)
    zeroed = replace(cert, kernel_vector=(0, 0))
    assert not verify_certificate(m, zeroed)
    wrong = replace(cert, kernel_vector=(1, 1))
    assert not verify_certificate(m, wrong)


def test_tampered_residue_fails():
    m = bm([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    cert = is_singular_exact(m)
    bumped = replace(cert, residue=cert.residue + 1)
    assert not verify_certificate(m, bumped)


def test_prime_2_certificate_is_checked_to_the_last_row():
    """("nonsingular", prime 2, residue 1) claims full GF(2) rank.  The
    verifier stops at the first row that reduces to zero, so a
    dependency it finds there must reject, at the first row as at the
    last."""
    stats = CertStats(gf2_rank=-1, primes_tried=(2,), elapsed=0.0)
    cert = SingularityCertificate("nonsingular", None, 2, 1, stats)
    assert verify_certificate(BitMatrix.identity(6), cert)
    assert verify_certificate(BitMatrix.zeros(0, 0), cert)
    # Rows 0-4 are e_i + e_(i+1), independent; row 5 is rows 0 + 2 + 4.
    rows = [[int(j in (i, i + 1)) for j in range(6)] for i in range(5)]
    rows.append([1] * 6)
    assert naive_det(rows) % 2 == 0
    assert not verify_certificate(bm(rows), cert)
    zero_first = [[0] * 6] + BitMatrix.identity(6).to_lists()[1:]
    assert not verify_certificate(bm(zero_first), cert)


def test_verifier_checks_primes_past_the_int64_range():
    """A residue modulo p >= 2**31 is checked on Python integers.  The
    int64 elimination overflows there; it returned the forged residue
    below for this singular matrix, and accepted it."""
    big = 2**61 - 1
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, (30, 30))
    a[:, 29] = a[:, 28]
    stats = CertStats(gf2_rank=-1, primes_tried=(big,), elapsed=0.0)
    forged = SingularityCertificate("nonsingular", None, big, 1102162409910891877, stats)
    assert not verify_certificate(BitMatrix.from_bit_array(a), forged)
    b = rng.integers(0, 2, (30, 30))
    det = naive_det(b.tolist()).numerator
    assert det % big
    genuine = replace(forged, residue=det % big)
    assert verify_certificate(BitMatrix.from_bit_array(b), genuine)


def _factored(n, seed, density=0.3):
    """A nonsingular n x n zero-one matrix, its residue certificate for
    the first fixed prime, and the factorization that residue was read
    off."""
    rng = np.random.default_rng(seed)
    p = crt_primes(1)[0]
    while True:
        m = BitMatrix.from_bit_array((rng.random((n, n)) < density).astype(np.int64))
        found = exactla.kernel_vector_crt(m, [p])
        if found.factorization is not None:
            break
    stats = CertStats(gf2_rank=-1, primes_tried=(p,), elapsed=0.0)
    cert = SingularityCertificate("nonsingular", None, p, found.residue, stats)
    return m, cert, found.factorization


def _forgeries(cert, found):
    """(name, certificate, factorization) for each way of forging the
    factor witness; the entries sit in different tiles when n > 64."""
    p, n = cert.prime, len(found.perm)
    lu = np.asarray(found.lu)
    last, mid = n - 1, n // 2

    def entry(i, j, value):
        forged = lu.copy()
        forged[i, j] = value
        return found._replace(lu=forged)

    def reindexed(name, change):
        seq = list(getattr(found, name))
        change(seq)
        return found._replace(**{name: seq})

    def swap(seq):
        seq[0], seq[1] = seq[1], seq[0]

    def repeat(seq):
        seq[1] = seq[0]

    forged = {
        "L entry off by one": entry(last, mid, (lu[last, mid] + 1) % p),
        "U entry off by one": entry(mid, last, (lu[mid, last] + 1) % p),
        "zero on U's diagonal": entry(mid, mid, 0),
        # The same residues mod p: only the range check sees these two.
        "entry of p or more": entry(mid, mid, lu[mid, mid] + p),
        "negative entry": entry(last, 0, lu[last, 0] - p),
        "perm repeats an index": reindexed("perm", repeat),
        "order repeats an index": reindexed("order", repeat),
        "perm too short": reindexed("perm", list.pop),
        "order too long": reindexed("order", lambda seq: seq.append(n)),
        "two perm entries swapped": reindexed("perm", swap),
    }
    for name, factorization in forged.items():
        yield name, cert, factorization
    yield "residue off by one", replace(cert, residue=cert.residue % p + 1), found
    yield "residue negated", replace(cert, residue=-cert.residue % p), found


@pytest.mark.parametrize("n_cols", [0, 1, 63, 64, 65, 130])
def test_verifier_unpacks_rows_word_by_word(n_cols):
    """The verifier's own unpacking agrees with the package's, on both
    sides of each 64-bit word boundary and with no rows at all."""
    rng = np.random.default_rng(n_cols)
    for n_rows in (0, 1, 5):
        a = rng.integers(0, 2, (n_rows, n_cols))
        got = certify._unpack_int64(BitMatrix.from_bit_array(a))
        assert got.dtype == np.int64 and np.array_equal(got, a.reshape(n_rows, n_cols))


def _routed_to_lists(m):
    """Whether _lu_mod factors ``m`` on Python lists: below the int64
    cut-over, or within one block and at most 5/4 n ln n ones."""
    n, ones = max(m.n_rows, m.n_cols), sum(row.bit_count() for row in m.rows)
    return n < exactla._MOD_NUMPY_MIN or (n <= exactla._BLOCK and ones <= 1.25 * n * math.log(n))


@pytest.mark.parametrize(
    "n, density",
    [(12, 0.3), (40, 0.3), (130, 0.3), (40, math.log(40) / 40)],
    ids=["12", "40", "130", "40-sparse"],
)
def test_forged_factorizations_are_rejected(n, density):
    """The factor check accepts the genuine factorization (Python lists
    below the int64 cut-over and for the sparse n = 40 matrix, one tile
    at n = 40, three at n = 130) and rejects every forgery of it."""
    m, cert, found = _factored(n, 80 + n, density)
    assert isinstance(found.lu, list) == _routed_to_lists(m)
    assert isinstance(found.lu, list) == (n == 12 or density < 0.3)
    assert verify_certificate(m, cert, found)
    rejected = [name for name, c, f in _forgeries(cert, found) if not verify_certificate(m, c, f)]
    assert rejected == [name for name, _, _ in _forgeries(cert, found)]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_lu_product_is_exact_at_the_largest_admissible_prime(n):
    """Every L and U entry at p - 1 for the largest prime below 2**31
    makes the float64 partial sums as large as they get; random entries
    catch a misplaced tile.  Both match Python integers."""
    p = PRIME_CEILING - 1
    assert is_prime(p)
    rng = np.random.default_rng(n)
    for f in (np.full((n, n), p - 1, dtype=np.int64), rng.integers(0, p, (n, n))):
        assert certify._lu_product_mod(f, p).tolist() == naive_lu_product(f.tolist(), p)


def test_factor_check_and_elimination_agree_on_sweep_certificates(monkeypatch):
    """n = 300, c = 2 residue certificates of both models: the factor
    check accepts each with no elimination, inside is_singular_exact and
    again when handed the factorization; the JSON round trip carries no
    factors and verifies by eliminating."""
    calls = []
    check = certify._check_det_mod
    monkeypatch.setattr(certify, "_check_det_mod", lambda m, p: calls.append(p) or check(m, p))
    n, checked = 300, 0
    for seed in range(8):
        for m in (
            sample(SampleSpec.bernoulli(n, bernoulli_density(Fraction(2), n), seed)),
            sample(SampleSpec.combinatorial(n, combinatorial_density(Fraction(2), n), seed)),
        ):
            cert = is_singular_exact(m, prime_seed=seed)
            if cert.stats.stage != "random_prime":
                continue
            found = exactla.kernel_vector_crt(m, [cert.prime])
            assert found.residue == cert.residue
            assert verify_certificate(m, cert, found.factorization)
            assert calls == []
            assert verify_certificate(m, SingularityCertificate.from_json(cert.to_json()))
            assert calls == [cert.prime]
            calls.clear()
            checked += 1
    assert checked >= 8


# Primes past the int64 elimination's range: the largest 61-bit prime
# and the smallest prime above 2**32.
_WIDE_PRIMES = (2**61 - 1, 4294967311)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12, 23, 24, 30, 40, 64])
def test_verifier_eliminations_agree_with_naive_det(n):
    """The verifier's one elimination gives det mod p, on int64 entries
    below 2**31 and on Python integers past it: at the sweeps' c = 2
    density, and dense with a duplicated column."""
    rng = np.random.default_rng(60 + n)
    sparse = 2 * math.log(n) / n if n > 1 else 0.5
    for density, duplicate in ((sparse, False), (0.5, n > 1)):
        a = (rng.random((n, n)) < density).astype(np.int64)
        if duplicate:
            a[:, -1] = a[:, rng.integers(n - 1)]
        want = naive_det(a.tolist()).numerator
        m = BitMatrix.from_bit_array(a)
        for p in (3, crt_primes(1)[0], *_WIDE_PRIMES):
            assert certify._check_det_mod(m, p) == want % p
            entries = a if p < PRIME_CEILING else a.astype(object)
            assert certify._check_det_mod_np(entries, p) == want % p


@pytest.mark.parametrize("n", [1, 5, 12])
@pytest.mark.parametrize("p", _WIDE_PRIMES)
def test_hand_built_wide_prime_certificates(n, p):
    """A residue certificate for a prime past 2**31, built by hand, is
    checked by eliminating on Python integers: the true residue
    verifies, also after a JSON round trip, and any other is rejected."""
    rng = np.random.default_rng(n)
    while True:
        a = rng.integers(0, 2, (n, n))
        det = naive_det(a.tolist()).numerator
        if det % p:
            break
    m = BitMatrix.from_bit_array(a)
    stats = CertStats(gf2_rank=-1, primes_tried=(p,), elapsed=0.0)
    genuine = SingularityCertificate("nonsingular", None, p, det % p, stats)
    assert verify_certificate(m, genuine)
    assert verify_certificate(m, SingularityCertificate.from_json(genuine.to_json()))
    for forged in ((det + 1) % p or 2, (det - 1) % p or p - 2, p - det % p):
        assert not verify_certificate(m, replace(genuine, residue=forged))


def test_forged_det_divisible_by_fixed_primes_is_rejected():
    """A witness that claims an exact determinant, here one that
    vanishes modulo the first two fixed primes for a singular matrix, is
    no certificate kind: reading it back raises ValueError, as does a
    witness of no kind."""
    doc = json.loads(is_singular_exact(BitMatrix.identity(3)).to_json())
    for witness in ({"det": str(2147483629 * 2147483587)}, {"det": "2"}, {}):
        doc["witness"] = witness
        with pytest.raises(ValueError):
            SingularityCertificate.from_json(json.dumps(doc))


def test_witness_length_mismatch_raises():
    m = bm([[1, 0], [1, 0]])
    cert = is_singular_exact(m)
    bad = replace(cert, kernel_vector=(0, 1, 0))
    with pytest.raises(DimensionMismatch):
        verify_certificate(m, bad)


def _kernel_claim(v):
    return SingularityCertificate("singular", tuple(v), None, None, CertStats(-1, (), 0.0))


def _alternating_rows(n, seed):
    """Rows with as many ones in even as in odd columns, so that the
    full-support (1, -1, 1, -1, ...) is a kernel vector."""
    rng = random.Random(seed)
    even, odd = list(range(0, n, 2)), list(range(1, n, 2))
    rows = []
    for _ in range(n):
        k = rng.randint(0, len(odd))
        ones = set(rng.sample(even, k) + rng.sample(odd, k))
        rows.append([int(j in ones) for j in range(n)])
    return rows


def _witness_candidates(rows, n, rng):
    """Vectors of one, two and full support: a multiple of every unit
    vector, e_i - e_j for every pair of equal columns and for random
    pairs, the alternating vector and random signed ones, and the
    producer's own kernel vector with one entry bumped and not."""
    cols = [tuple(row[j] for row in rows) for j in range(n)]
    out = [[0] * n]
    for j in range(n):
        v = [0] * n
        v[j] = rng.choice((1, -2, 3))
        out.append(v)
    first, pairs = {}, []
    for j, col in enumerate(cols):
        i = first.setdefault(col, j)
        if i != j:
            pairs.append((i, j))
    if n >= 2:
        pairs += [rng.sample(range(n), 2) for _ in range(5)]
    for i, j in pairs:
        v = [0] * n
        v[i], v[j] = 1, -1
        out.append(v)
    out.append([(-1) ** j for j in range(n)])
    for _ in range(3):
        out.append([rng.choice((-2, -1, 1, 2)) for _ in range(n)])
    cert = is_singular_exact(BitMatrix.from_rows(rows, n))
    if cert.is_singular:
        out.append(list(cert.kernel_vector))
        bumped = list(cert.kernel_vector)
        bumped[rng.randrange(n)] += 1
        out.append(bumped)
    return out


def test_verifier_agrees_with_naive_product():
    """A singular certificate is accepted exactly when its vector is
    nonzero and the integer product A v is zero, on sparse and dense
    seeded matrices and on rows built around a full-support kernel
    vector.  At n = 70 and 130 the packed rows span several 64-bit
    words, and some unit vector sits in a column that one row hits."""
    outcomes = {"small": set(), "wide": set()}
    hit_once = 0
    for n in [*range(13), 70, 130]:
        rng = random.Random(n)
        sparse = Fraction(1, max(2, n // 2))
        matrices = [
            naive_bernoulli_rows(n, p, 7 * n) for p in (sparse, Fraction(1, 4), Fraction(1, 2))
        ]
        matrices.append(_alternating_rows(n, n))
        for rows in matrices:
            m = BitMatrix.from_rows(rows, n)
            for v in _witness_candidates(rows, n, rng):
                want = any(v) and not any(naive_matvec(rows, v))
                assert verify_certificate(m, _kernel_claim(v)) == want, (n, v)
                support = [j for j, x in enumerate(v) if x]
                kind = {1: "one", 2: "two", n: "full"}.get(len(support), "other")
                outcomes["wide" if n >= 70 else "small"].add((kind, want))
                if n >= 70 and len(support) == 1 and sum(row[support[0]] for row in rows) == 1:
                    hit_once += 1
    every = {(kind, want) for kind in ("one", "two", "full") for want in (True, False)}
    assert every <= outcomes["small"]
    assert every <= outcomes["wide"]
    assert hit_once > 0


def test_moved_structural_witness_is_rejected():
    """A sweep-sparse e_j witness whose 1 moves to a nonzero column past
    the first 64-bit word fails at the rows that hit that column."""
    n, c = 300, Fraction(1, 2)
    for trial in range(20):
        m = sample(SampleSpec.bernoulli(n, bernoulli_density(c, n), derive_seed(n, trial)))
        cert = is_singular_exact(m)
        if sum(1 for x in cert.kernel_vector if x) == 1:
            break
    assert cert.stats.stage == "structural"
    assert sum(1 for x in cert.kernel_vector if x) == 1
    rows = m.to_lists()
    moved = next(j for j in range(64, n) if any(row[j] for row in rows))
    v = [0] * n
    v[moved] = 1
    assert not verify_certificate(m, replace(cert, kernel_vector=tuple(v)))


def test_not_square_raises():
    with pytest.raises(NotSquare):
        is_singular_exact(BitMatrix.zeros(2, 3))


def test_json_round_trip():
    for rows in ([[1, 0], [1, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
        m = bm(rows)
        cert = is_singular_exact(m)
        text = cert.to_json()
        back = SingularityCertificate.from_json(text)
        assert back.verdict == cert.verdict
        assert back.kernel_vector == cert.kernel_vector
        assert back.prime == cert.prime and back.residue == cert.residue
        assert back.stats.stage == cert.stats.stage
        assert verify_certificate(m, back)
        assert '"verdict"' in text and '"witness"' in text
    doc = json.loads(text)
    del doc["stats"]["stage"]
    assert SingularityCertificate.from_json(json.dumps(doc)).stats.stage is None


def test_json_round_trip_of_each_witness_kind():
    """A kernel vector (structural and lift), a prime-2 residue (gf2) and
    an odd-prime residue (random_prime): each reads back to the same
    witness and stage, and verifies."""
    matrices = {
        "structural": bm([[1, 0], [1, 0]]),
        "lift": _zero_row_matrix(12, 2),
        "gf2": BitMatrix.identity(4),
        "random_prime": bm([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
    }
    for stage, m in matrices.items():
        cert = is_singular_exact(m)
        assert cert.stats.stage == stage
        back = SingularityCertificate.from_json(cert.to_json())
        assert json.loads(cert.to_json())["witness"].keys() == (
            {"kernel_vector"} if cert.is_singular else {"prime", "residue"}
        )
        assert (back.verdict, back.kernel_vector, back.prime, back.residue) == (
            cert.verdict, cert.kernel_vector, cert.prime, cert.residue
        )
        assert back.stats.stage == stage and back.stats.primes_tried == cert.stats.primes_tried
        assert verify_certificate(m, back)


def test_witness_is_canonical():
    # Witness entries share no common factor; first nonzero is positive.
    rng = random.Random(3)
    seen = 0
    for trial in range(200):
        n = rng.randint(2, 12)
        m = sample(SampleSpec.combinatorial(n, rng.randint(0, max(1, n // 3)), trial))
        cert = is_singular_exact(m, prime_seed=trial)
        if not cert.is_singular:
            continue
        seen += 1
        from math import gcd

        g = 0
        for v in cert.kernel_vector:
            g = gcd(g, v)
        assert g == 1
        first = next(v for v in cert.kernel_vector if v)
        assert first > 0
    assert seen > 30


def test_empty_matrix_certificate():
    cert = is_singular_exact(BitMatrix(0, 0, ()))
    assert cert.verdict == "nonsingular"


# -- stage order -------------------------------------------------------------


def _first_degenerate_column_witness(m):
    """Reference: e_j for the first zero column j, or e_i - e_j for the
    first column j repeating an earlier column i, in scan order."""
    cols = [[row[j] for row in m.to_lists()] for j in range(m.n_cols)]
    for j, col in enumerate(cols):
        v = [0] * m.n_cols
        if not any(col):
            v[j] = 1
            return tuple(v)
        if col in cols[:j]:
            v[cols.index(col)], v[j] = 1, -1
            return tuple(v)
    return None


def test_degenerate_column_is_decided_structurally():
    rng = random.Random(4)
    seen = 0
    for trial in range(200):
        n = rng.randint(2, 30)
        m = sample(SampleSpec.bernoulli(n, Fraction(1, rng.randint(2, 8)), trial))
        want = _first_degenerate_column_witness(m)
        if want is None:
            continue
        seen += 1
        cert = is_singular_exact(m, prime_seed=trial)
        assert cert.stats.stage == "structural"
        assert cert.stats.primes_tried == ()
        assert cert.kernel_vector == want
    assert seen > 50


def _zero_row_matrix(n, seed):
    """Singular through a zero row but with no zero or duplicate column:
    the first such matrix of a seeded stream."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)] = [0] * n
        m = BitMatrix.from_rows(rows)
        lines = find_duplicate_or_zero_lines(m)
        if not (lines.zero_cols or lines.duplicate_col_pairs):
            return m


def _two_zero_row_matrix(n, seed):
    """Two zero rows, so a kernel of dimension two or more, with no zero
    or duplicate column."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        for i in rng.sample(range(n), 2):
            rows[i] = [0] * n
        m = BitMatrix.from_rows(rows)
        lines = find_duplicate_or_zero_lines(m)
        if not (lines.zero_cols or lines.duplicate_col_pairs):
            return m


def _duplicate_row_matrix(n, seed):
    """Singular through a duplicate row, with no zero or duplicate column."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
        m = BitMatrix.from_rows(rows)
        lines = find_duplicate_or_zero_lines(m)
        if not (lines.zero_cols or lines.duplicate_col_pairs):
            return m


def _no_line_singular_matrix(n, seed):
    """Singular with no zero or duplicate line: one column is the sum of
    two other columns with disjoint supports."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        i, j, k = rng.sample(range(n), 3)
        for row in rows:
            row[j] &= 1 - row[i]
            row[k] = row[i] + row[j]
        m = BitMatrix.from_rows(rows)
        if find_duplicate_or_zero_lines(m) == LineReport((), (), (), ()):
            return m


def _even_det_matrix(n, seed):
    """Nonsingular with an even determinant: GF(2) rank falls short."""
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        d = naive_det(rows)
        if d != 0 and d % 2 == 0:
            return BitMatrix.from_rows(rows)


@pytest.fixture
def lu_calls(monkeypatch):
    """Primes of every exactla._lu_mod factorization, in call order."""
    calls = []
    lu_mod = exactla._lu_mod

    def counting(a, p):
        calls.append(p)
        return lu_mod(a, p)

    monkeypatch.setattr(exactla, "_lu_mod", counting)
    return calls


@pytest.mark.parametrize("n", [12, 40])
def test_one_factorization_per_prime_tried(n, lu_calls):
    """Every prime certify tries is factored exactly once, whether it
    ends in a residue or in a lift, on both sides of _MOD_NUMPY_MIN."""
    cases = (
        (_even_det_matrix(n, 1), "random_prime"),
        (_zero_row_matrix(n, 2), "lift"),
        (_duplicate_row_matrix(n, 3), "lift"),
        (_no_line_singular_matrix(n, 4), "lift"),
        (_two_zero_row_matrix(n, 5), "lift"),
    )
    for seed, (m, stage) in enumerate(cases):
        lu_calls.clear()
        cert = is_singular_exact(m, prime_seed=seed)
        assert cert.stats.stage == stage
        assert lu_calls == list(cert.stats.primes_tried)
        assert len(set(lu_calls)) == len(lu_calls) == 1


def _sparse_first(a):
    """The column order of the mod-p factorizations: ascending column
    count, ties in column order."""
    return np.argsort(a.sum(axis=0), kind="stable")


def _is_odd(order):
    """Parity of a permutation by counting its inversions."""
    order = list(order)
    return sum(x > y for i, x in enumerate(order) for y in order[i + 1 :]) % 2 == 1


@pytest.mark.parametrize("n", [12, exactla._MOD_NUMPY_MIN - 1, exactla._MOD_NUMPY_MIN, 40])
def test_residues_carry_the_column_order_sign(n):
    """Producer and verifier both eliminate in sparse-first column order
    and must undo its sign: row and column shuffles of a nonsingular
    matrix reach both parities of that order and both signs of det."""
    rng = np.random.default_rng(70 + n)
    while True:
        a = (rng.random((n, n)) < 0.3).astype(np.int64)
        det = naive_det(a.tolist()).numerator
        if det:
            break
    p = crt_primes(1)[0]
    seen = set()
    for _ in range(12):
        a = a[rng.permutation(n)][:, rng.permutation(n)]
        det = naive_det(a.tolist()).numerator
        seen.add((_is_odd(_sparse_first(a)), det > 0))
        m = BitMatrix.from_bit_array(a)
        assert exactla.kernel_vector_crt(m, [p]).residue == det % p
        assert certify._check_det_mod(m, p) == det % p
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.fixture
def lu_arrays(monkeypatch):
    """(array, prime) of every exactla._lu_mod factorization, in call order."""
    calls = []
    lu_mod = exactla._lu_mod

    def recording(a, p):
        calls.append((a.copy(), p))
        return lu_mod(a, p)

    monkeypatch.setattr(exactla, "_lu_mod", recording)
    return calls


def _wide_matrix(n, seed):
    """The first n - 1 rows of a sweep matrix at c = 2: the shape the
    lemma 2.1 check takes its kernel vector from."""
    m = sample(SampleSpec.bernoulli(n, bernoulli_density(Fraction(2), n), seed))
    return BitMatrix(n - 1, n, m.rows[:-1])


@pytest.mark.parametrize("n", [12, 40])
def test_sparse_first_lift_gives_the_canonical_vector(n, lu_arrays):
    """With a one-dimensional kernel the lift runs on the sparse-first
    factorization, the only one made, and maps back to the canonical
    vector."""
    matrices = (
        _zero_row_matrix(n, 2),
        _duplicate_row_matrix(n, 3),
        _no_line_singular_matrix(n, 4),
        _wide_matrix(n, 6),
    )
    for m in matrices:
        a = m.to_bit_array().astype(np.int64)
        order = _sparse_first(a)
        assert naive_rank(a.tolist(), m.n_cols) == m.n_cols - 1
        assert order.tolist() != list(range(m.n_cols))
        lu_arrays.clear()
        found = exactla.kernel_vector_crt(m)
        assert len(lu_arrays) == 1
        assert np.array_equal(lu_arrays[0][0], a[:, order])
        assert found.vector == _canonical(m)


def test_edge_shapes_through_the_sparse_first_order():
    """n in {0, 1}, 0 x 1 and 1 x 0 through the kernel search, the
    certificate and its verifier, against the Fraction oracles."""
    p = crt_primes(1)[0]
    shapes = (BitMatrix.zeros(0, 0), bm([[0]]), bm([[1]]), BitMatrix.zeros(0, 1), BitMatrix.zeros(1, 0))
    for m in shapes:
        rows = m.to_lists()
        found = exactla.kernel_vector_crt(m)
        nullity = m.n_cols - naive_rank(rows, m.n_cols)
        assert found.vector == ((1,) if nullity else None)
        if m.n_rows == m.n_cols:
            det = naive_det(rows).numerator
            cert = is_singular_exact(m)
            assert cert.is_singular == (det == 0)
            assert verify_certificate(m, cert)
            assert certify._check_det_mod(m, p) == det % p
            if det:
                assert found.residue == det % p
        elif found.vector is not None:
            stats = CertStats(gf2_rank=0, primes_tried=(), elapsed=0.0)
            cert = SingularityCertificate("singular", found.vector, None, None, stats)
            assert verify_certificate(m, cert)


def test_line_report_rides_on_the_certificate():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(1, 20)
        m = sample(SampleSpec.bernoulli(n, Fraction(rng.randint(1, 8), 8), trial))
        cert = is_singular_exact(m, prime_seed=trial)
        assert cert.stats.lines == find_duplicate_or_zero_lines(m)


def _canonical(m):
    return cleared(naive_rational_kernel(m.to_lists(), m.n_cols)[0])


@pytest.fixture
def prime_source(monkeypatch):
    """Replace certify's endless stream of random primes by a finite
    list: set ``source.primes`` before each certificate.  The search
    draws at most the list's length, so running out ends it as it ends
    any finite sequence, by KernelLiftFailed."""

    class Source:
        primes: list[int] = []

    source = Source()
    search = certify.kernel_vector_crt
    monkeypatch.setattr(certify, "random_prime", lambda stream: source.primes.pop(0))
    monkeypatch.setattr(
        certify, "kernel_vector_crt", lambda m, primes: search(m, islice(primes, len(source.primes)))
    )
    return source


def test_unlucky_first_lift_prime_moves_on(prime_source):
    """No kernel vector of these matrices lifts over 2 alone (the
    search over [2] raises KernelLiftFailed), so the loop moves on to
    the second prime and lifts the canonical vector."""
    big = crt_primes(2)
    checked = 0
    for seed in range(40):
        m = _zero_row_matrix(30, 100 + seed)
        try:
            exactla.kernel_vector_crt(m, [2])
            continue
        except KernelLiftFailed:
            checked += 1
        prime_source.primes = [2] + big
        cert = is_singular_exact(m)
        assert cert.stats.primes_tried == (2, big[0])
        assert cert.stats.stage == "lift"
        assert verify_certificate(m, cert)
        assert cert.kernel_vector == _canonical(m)
    assert checked >= 3


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        rows += [[0] * offset + list(r) + [0] * (n - offset - len(r)) for r in b]
        offset += len(b)
    return BitMatrix.from_rows(rows)


def test_tiny_primes_only_still_certify(prime_source):
    """With the primes 2, 3 and 5 only, the lift certifies most
    zero-row matrices; a matrix with blocks of determinant 2, 3 and 5
    beats all three and raises KernelLiftFailed; one more prime, the
    first fixed one, certifies it with a lift."""
    det2 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    det3 = [[int(i != j) for j in range(4)] for i in range(4)]
    det5 = [[0, 1, 1, 1, 0], [1, 1, 1, 0, 1], [1, 1, 0, 1, 1], [1, 0, 1, 1, 0], [0, 0, 1, 1, 1]]
    assert [naive_det(b) for b in (det2, det3, det5)] == [2, -3, 5]
    matrices = [_zero_row_matrix(30, 200 + seed) for seed in range(10)]
    blocked = _block_diagonal(det2, det3, det5, _zero_row_matrix(6, 1).to_lists())
    beaten = []
    for m in matrices + [blocked]:
        prime_source.primes = [2, 3, 5]
        try:
            cert = is_singular_exact(m)
        except KernelLiftFailed:
            beaten.append(m)
            prime_source.primes = [2, 3, 5] + crt_primes(1)
            cert = is_singular_exact(m)
            assert cert.stats.primes_tried == (2, 3, 5, crt_primes(1)[0])
        assert cert.stats.stage == "lift"
        assert verify_certificate(m, cert)
        assert cert.kernel_vector == _canonical(m)
    assert blocked in beaten and len(beaten) < len(matrices) // 2


def test_det_exact_stage_reads_the_bareiss_determinant(prime_source):
    """Blocks of determinant 2, -3 and 5 beat the primes 2, 3 and 5, and
    no kernel vector exists, so the search raises KernelLiftFailed; the
    next prime gives a residue that reads the exact determinant, and
    row shuffles flip its sign."""
    det2 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    det3 = [[int(i != j) for j in range(4)] for i in range(4)]
    det5 = [[0, 1, 1, 1, 0], [1, 1, 1, 0, 1], [1, 1, 0, 1, 1], [1, 0, 1, 1, 0], [0, 0, 1, 1, 1]]
    p = crt_primes(1)[0]
    rows = _block_diagonal(det2, det3, det5).to_lists()
    assert naive_det(rows) == -30
    rng = random.Random(8)
    residues = set()
    for _ in range(6):
        m = BitMatrix.from_rows(rows)
        prime_source.primes = [2, 3, 5]
        with pytest.raises(KernelLiftFailed):
            is_singular_exact(m)
        prime_source.primes = [2, 3, 5, p]
        cert = is_singular_exact(m)
        assert cert.stats.stage == "random_prime"
        assert cert.stats.primes_tried == (2, 3, 5, p)
        assert (cert.prime, cert.residue) == (p, naive_det(rows).numerator % p)
        assert verify_certificate(m, cert)
        det = cert.residue if cert.residue <= p // 2 else cert.residue - p
        assert det == naive_det(rows)
        residues.add(cert.residue)
        rng.shuffle(rows)
    assert residues == {-30 % p, 30}


def test_failed_lifts_raise_past_the_row_weight_bound(lu_calls, monkeypatch):
    """Every lift unlucky: the search over certify's endless prime
    stream stops with KernelLiftFailed at the first prime whose product
    with the distinct primes before it passes the product of the row
    weights (zero rows count 1), the bound no run of genuinely unlucky
    primes can pass."""
    monkeypatch.setattr(exactla, "_padic_kernel_vector", lambda *args: None)
    for n, seed in ((12, 3), (30, 7), (40, 8)):
        m = _zero_row_matrix(n, seed)
        norms = math.prod(row.bit_count() or 1 for row in m.rows)
        lu_calls.clear()
        with pytest.raises(KernelLiftFailed):
            is_singular_exact(m, prime_seed=seed)
        assert len(set(lu_calls)) == len(lu_calls) >= (n > 12) + 1
        assert math.prod(lu_calls[:-1]) <= norms < math.prod(lu_calls)
        lu_calls.clear()
        with pytest.raises(KernelLiftFailed):
            exactla.kernel_vector_crt(m)
        assert lu_calls == crt_primes(len(lu_calls))
        assert math.prod(lu_calls[:-1]) <= norms < math.prod(lu_calls)


def _certificate_digest(matrices):
    """sha256 prefix of (verdict, kernel_vector, prime, residue, det,
    stage) over every certificate of a seeded matrix sequence.  The
    digests were recorded while certificates still had an exact
    determinant field, which held None on every one of them, so None
    stands in its place."""
    h = hashlib.sha256()
    for seed, m in enumerate(matrices):
        cert = is_singular_exact(m, prime_seed=seed)
        fields = (cert.verdict, cert.kernel_vector, cert.prime, cert.residue, None)
        h.update(repr(fields + (cert.stats.stage,)).encode())
    return h.hexdigest()[:16]


def _sweep_matrices(model, n, trials=16):
    for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for trial in range(trials):
            seed = derive_seed(n, trial)
            if model == "bernoulli":
                yield sample(SampleSpec.bernoulli(n, bernoulli_density(c, n), seed))
            else:
                yield sample(SampleSpec.combinatorial(n, combinatorial_density(c, n), seed))


# Digests of the certificates this package produced when every residue
# prime came from a separate determinant screen and every lift ran over
# the fixed prime list; folding both into one loop must not move them.
PINNED_DIGESTS = {
    "bernoulli-16": "277e4db190b76503",
    "bernoulli-40": "3edf993ca787f0f2",
    "bernoulli-60": "944e41650dfc9536",
    "combinatorial-16": "492929164c833024",
    "combinatorial-40": "a79f2449dcb54715",
    "combinatorial-60": "cc7ac5220bf1c1f7",
    "zero-row": "964d8869acac1e22",
    "other-rows": "63193875f553a034",
}


def test_certificates_match_pinned_digests():
    got = {
        f"{model}-{n}": _certificate_digest(_sweep_matrices(model, n))
        for model in ("bernoulli", "combinatorial")
        for n in (16, 40, 60)
    }
    zero_rows = (_zero_row_matrix(n, seed) for n in (6, 16, 30, 40) for seed in range(3))
    got["zero-row"] = _certificate_digest(zero_rows)
    other_rows = (
        make(n, seed)
        for make in (_duplicate_row_matrix, _no_line_singular_matrix, _even_det_matrix)
        for n in (12, 30)
        for seed in range(2)
    )
    got["other-rows"] = _certificate_digest(other_rows)
    assert got == PINNED_DIGESTS


# (n, trial) of seeded Bernoulli c = 1 matrices decided by a lift, each
# with a zero or duplicate row: sparse-first lifts, a natural-order
# start (two zero rows, n = 300, trial 8) and the natural-order refactor
# after a sparse-first factorization of nullity two (trials 867, 1176).
# Each has more than one 64-pivot block.
_LIFT_CASES = ((100, 25), (100, 39), (100, 867), (150, 13), (150, 21), (150, 1176))
_LIFT_CASES += ((300, 8), (300, 15), (300, 22))
# Recorded when every lift solved one pivot at a time.
LIFT_DIGEST = "96581b83f1774cae"


def test_lift_certificates_above_one_block_match_pinned_digest(lu_calls):
    """Every certificate field and the kernel vector of the first n - 1
    rows, for lifts at n = 100, 150 and 300."""
    h = hashlib.sha256()
    refactored = 0
    for n, trial in _LIFT_CASES:
        spec = SampleSpec.bernoulli(n, bernoulli_density(Fraction(1), n), derive_seed(n, trial))
        m = sample(spec)
        lines = find_duplicate_or_zero_lines(m)
        assert lines.zero_rows or lines.duplicate_row_pairs
        lu_calls.clear()
        cert = is_singular_exact(m, prime_seed=trial)
        assert cert.stats.stage == "lift"
        refactored += len(lu_calls) == 2 and lu_calls[0] == lu_calls[1]
        s = cert.stats
        # Recorded when certificates had an exact determinant field and
        # the search a stage; the field was None and the stage "lift" on
        # every case, so those constants stand in their places.
        fields = (cert.verdict, cert.kernel_vector, cert.prime, cert.residue, None)
        fields += (s.gf2_rank, s.primes_tried, s.stage, s.lines)
        wide = exactla.kernel_vector_crt(BitMatrix.from_rows(m.to_lists()[:-1]))
        h.update(repr(fields + (wide.vector, "lift")).encode())
    assert refactored == 2
    assert h.hexdigest()[:16] == LIFT_DIGEST


def test_rejected_certificate_raises_under_optimize():
    code = (
        "import sys\n"
        "import singmat.certify as c\n"
        "from singmat.errors import CertificateRejected\n"
        "from singmat.matrices import BitMatrix\n"
        "assert False, 'asserts must be stripped'\n"
        "c.verify_certificate = lambda m, cert, factorization=None: False\n"
        "try:\n"
        "    c.is_singular_exact(BitMatrix.identity(3))\n"
        "except CertificateRejected:\n"
        "    print('rejected', sys.flags.optimize)\n"
    )
    src = str(Path(singmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.split() == ["rejected", "1"], proc.stderr


def test_forged_factorization_raises_under_optimize():
    """A residue certificate whose L factor was corrupted after the
    residue was read off is rejected by an explicit test that survives
    python -O.  The matrix is the CI smoke step's."""
    m = sample(SampleSpec.bernoulli(60, Fraction(1, 4), 3))
    assert is_singular_exact(m).stats.stage == "random_prime"
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import numpy as np\n"
        "import singmat.certify as c\n"
        "from singmat.errors import CertificateRejected\n"
        "from singmat.models import SampleSpec, sample\n"
        "assert False, 'asserts must be stripped'\n"
        "search = c.kernel_vector_crt\n"
        "def forged(m, primes):\n"
        "    found = search(m, primes)\n"
        "    lu = np.array(found.factorization.lu)\n"
        "    lu[-1, 0] = (lu[-1, 0] + 1) % found.prime\n"
        "    return found._replace(factorization=found.factorization._replace(lu=lu))\n"
        "c.kernel_vector_crt = forged\n"
        "try:\n"
        "    c.is_singular_exact(sample(SampleSpec.bernoulli(60, Fraction(1, 4), 3)))\n"
        "except CertificateRejected:\n"
        "    print('rejected', sys.flags.optimize)\n"
    )
    src = str(Path(singmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.split() == ["rejected", "1"], proc.stderr


def test_self_checks_raise_under_optimize():
    """kernel_gf2, the minimum-support search and kernel_rational check
    their results with explicit tests that survive python -O: with
    every exact check failing, kernel_rational's lift finds no vector
    and its search ends in KernelLiftFailed."""
    code = (
        "import sys\n"
        "import singmat.exactla as e\n"
        "import singmat.structure as s\n"
        "from singmat.errors import KernelLiftFailed, SelfCheckFailed\n"
        "from singmat.matrices import BitMatrix\n"
        "assert False, 'asserts must be stripped'\n"
        "m = BitMatrix.from_rows([[1, 1], [1, 1]])\n"
        "e._gf2_right_kernel_vectors = lambda rows, n: [1]\n"
        "e.exact_dot = lambda v, row: 1\n"
        "s.kernel_gf2 = lambda m: (1,)\n"
        "calls = ((lambda: e.kernel_gf2(m), SelfCheckFailed),\n"
        "         (lambda: s.enumerate_gf2_kernel_min_support(m), SelfCheckFailed),\n"
        "         (lambda: e.kernel_rational(m), KernelLiftFailed))\n"
        "for call, error in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        print('failed', sys.flags.optimize)\n"
    )
    src = str(Path(singmat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout.split() == ["failed", "1"] * 3, proc.stderr


def _agrees_with_naive_det(m: BitMatrix, seed: int) -> None:
    cert = is_singular_exact(m, prime_seed=seed)
    assert cert.is_singular == (naive_det(m.to_lists()) == 0)
    assert verify_certificate(m, cert)


@given(st.integers(0, 12), st.booleans(), st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_edge_shapes_bernoulli(n, full, seed):
    """p in {0, 1} at every n, and p = 1/2 as well at n in {0, 1}."""
    for p in (1 if full else 0,) + ((Fraction(1, 2),) if n <= 1 else ()):
        _agrees_with_naive_det(sample(SampleSpec.bernoulli(n, p, seed)), seed)


@given(st.integers(0, 12), st.booleans(), st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_edge_shapes_combinatorial(n, full, seed):
    """d in {0, n} at every n, and every d at n in {0, 1}."""
    for d in (n if full else 0,) + (tuple(range(n + 1)) if n <= 1 else ()):
        _agrees_with_naive_det(sample(SampleSpec.combinatorial(n, d, seed)), seed)
