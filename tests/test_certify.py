"""Certification pipeline: verdicts, witnesses, tamper detection."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singmat
from oracles import naive_det
from singmat import certify, exactla
from singmat.certify import (
    SingularityCertificate,
    is_singular_exact,
    verify_certificate,
)
from singmat.errors import DimensionMismatch, KernelLiftFailed, NotSquare
from singmat.exactla import kernel_rational
from singmat.matrices import BitMatrix
from singmat.models import SampleSpec, find_duplicate_or_zero_lines, sample
from singmat.modular import crt_primes


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
    rng = random.Random(1)
    for trial in range(10):
        n = rng.randint(2, 16)
        m = sample(SampleSpec.bernoulli(n, Fraction(1, 4), trial))
        verdicts = {is_singular_exact(m, prime_seed=s).verdict for s in range(10)}
        assert len(verdicts) == 1


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


def test_witness_length_mismatch_raises():
    m = bm([[1, 0], [1, 0]])
    cert = is_singular_exact(m)
    bad = replace(cert, kernel_vector=(0, 1, 0))
    with pytest.raises(DimensionMismatch):
        verify_certificate(m, bad)


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


@pytest.fixture
def det_mod_calls(monkeypatch):
    calls = []
    producer = certify._det_mod_producer

    def counting(a, p):
        calls.append(p)
        return producer(a, p)

    monkeypatch.setattr(certify, "_det_mod_producer", counting)
    return calls


def test_zero_row_skips_prime_screens(det_mod_calls):
    for n, seed in ((6, 1), (30, 2), (40, 3)):
        cert = is_singular_exact(_zero_row_matrix(n, seed), prime_seed=seed)
        assert cert.stats.stage == "lift"
        assert cert.stats.primes_tried == ()
        assert det_mod_calls == []
    cert = is_singular_exact(bm([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    assert cert.stats.stage == "random_prime"
    assert det_mod_calls == [cert.prime]


def test_line_report_rides_on_the_certificate():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(1, 20)
        m = sample(SampleSpec.bernoulli(n, Fraction(rng.randint(1, 8), 8), trial))
        cert = is_singular_exact(m, prime_seed=trial)
        assert cert.stats.lines == find_duplicate_or_zero_lines(m)


def _canonical(m):
    return kernel_rational(m.to_int_matrix(), "right").vectors[0].cleared()


def test_unlucky_first_lift_prime_moves_on(monkeypatch):
    """Mod 2 these matrices lose rank beyond the zero row, so a lift over
    2 alone cannot be trusted; the next prime gives the canonical vector."""
    asked = []

    def primes(k):
        asked.append(k)
        return ([2] + crt_primes(k))[:k]

    monkeypatch.setattr(exactla, "crt_primes", primes)
    checked = 0
    for seed in range(40):
        m = _zero_row_matrix(30, 100 + seed)
        if exactla.rank_gf2(m) >= 29:
            continue
        checked += 1
        asked.clear()
        cert = is_singular_exact(m)
        assert max(asked) == 2  # the lift moved on to the second prime
        assert cert.stats.stage == "lift"
        assert verify_certificate(m, cert)
        assert cert.kernel_vector == _canonical(m)
    assert checked >= 3


def test_tiny_primes_only_still_certify(monkeypatch):
    monkeypatch.setattr(exactla, "crt_primes", lambda k: [2] * k)
    stages = set()
    for seed in range(10):
        m = _zero_row_matrix(30, 200 + seed)
        cert = is_singular_exact(m)
        stages.add(cert.stats.stage)
        assert verify_certificate(m, cert)
        assert cert.kernel_vector == _canonical(m)
    assert stages == {"lift", "bareiss"}


def test_failed_lift_falls_back_to_bareiss(monkeypatch):
    def fail(a, n_cols):
        raise KernelLiftFailed("forced")

    monkeypatch.setattr(exactla, "kernel_vector_crt", fail)
    m = _zero_row_matrix(30, 7)
    cert = is_singular_exact(m)
    assert cert.stats.stage == "bareiss"
    assert cert.kernel_vector == _canonical(m)


def test_rejected_certificate_raises_under_optimize():
    code = (
        "import sys\n"
        "import singmat.certify as c\n"
        "from singmat.errors import CertificateRejected\n"
        "from singmat.matrices import BitMatrix\n"
        "assert False, 'asserts must be stripped'\n"
        "c.verify_certificate = lambda m, cert: False\n"
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


def test_self_checks_raise_under_optimize():
    """kernel_gf2, kernel_rational and the minimum-support search check
    their results with explicit tests that survive python -O."""
    code = (
        "import sys\n"
        "import singmat.exactla as e\n"
        "import singmat.structure as s\n"
        "from singmat.errors import SelfCheckFailed\n"
        "from singmat.matrices import BitMatrix, IntMatrix, KernelBasis\n"
        "assert False, 'asserts must be stripped'\n"
        "m = BitMatrix.from_rows([[1, 1], [1, 1]])\n"
        "e._gf2_right_kernel_vectors = lambda rows, n: [1]\n"
        "e._kernel_from_echelon = lambda ech, pivots, n: [(1, 0)]\n"
        "s.kernel_gf2 = lambda m, side: KernelBasis('gf2', (1,), 2, side)\n"
        "calls = (lambda: e.kernel_gf2(m), lambda: s.enumerate_gf2_kernel_min_support(m),\n"
        "         lambda: e.kernel_rational(IntMatrix.from_rows([[1, 1], [1, 1]])))\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except SelfCheckFailed:\n"
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
