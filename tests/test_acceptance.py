"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from oracles import brute_even_mass, chi_square_uniform, naive_det
from singmat.bounds import (
    max_atom_bernoulli,
    max_atom_combinatorial,
    p_even,
    pairing_disagreement_prob,
)
from singmat.certify import is_singular_exact, verify_certificate
from singmat.cli import main as cli_main
from singmat.exactla import kernel_gf2, rank_gf2
from singmat.harness import (
    SweepConfig,
    combinatorial_density,
    run_sweep,
    verify_complement,
    verify_lemma21,
)
from singmat.matrices import BitMatrix
from singmat.models import SampleSpec, sample, sample_pairing
from singmat.rng import Stream, derive_seed
from singmat.structure import PropertyPredicate


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_p_even_exactness():
    start = time.perf_counter()
    mismatches = 0
    for s in range(0, 13):
        for num in range(1, 10):
            p = Fraction(num, 10)
            if p_even(s, p) != brute_even_mass(s, p):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    _report(1, ok, f"{13 * 9} cases, {mismatches} mismatches, {elapsed:.3f}s (< 1 s)")


def test_criterion_02_oracle_equivalence_3x3_and_4x4():
    start = time.perf_counter()
    disagreements = 0
    for n, total in ((3, 512), (4, 65536)):
        for bits in range(total):
            rows = [
                [(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)
            ]
            m = BitMatrix.from_rows(rows)
            cert = is_singular_exact(m, prime_seed=bits)
            det = naive_det(rows)
            if cert.is_singular != (det == 0):
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    _report(2, ok, f"66048 matrices, {disagreements} disagreements, {elapsed:.1f}s (< 60 s)")


def test_criterion_03_certificate_soundness_10k():
    stream = Stream(0xCE27)
    failures = 0
    for trial in range(10_000):
        n = 1 + stream.below(64)
        seed = stream.next_u64()
        if stream.bit():
            spec = SampleSpec.bernoulli(n, Fraction(stream.below(17), 16), seed)
        else:
            spec = SampleSpec.combinatorial(n, stream.below(n + 1), seed)
        m = sample(spec)
        cert = is_singular_exact(m, prime_seed=stream.next_u64())
        if not verify_certificate(m, cert):
            failures += 1
    _report(3, failures == 0, f"10000 certificates, {failures} verification failures")


def test_criterion_04_sampler_uniformity_chi_square():
    # combinatorial rows: all C(6,3)=20 outcomes at 1e5 row samples
    n, d, rows_wanted = 6, 3, 100_000
    index = {frozenset(c): i for i, c in enumerate(combinations(range(n), d))}
    counts = [0] * comb(n, d)
    seen = 0
    seed = 0
    while seen < rows_wanted:
        q = sample(SampleSpec.combinatorial(n, d, derive_seed(0xAB, seed)))
        seed += 1
        for r in q.rows:
            counts[index[frozenset(j for j in range(n) if (r >> j) & 1)]] += 1
            seen += 1
            if seen == rows_wanted:
                break
    _, p_rows = chi_square_uniform(counts)

    # pairing realization: n=6, d=2 against the uniform 2-subset law
    n2, d2 = 6, 2
    index2 = {frozenset(c): i for i, c in enumerate(combinations(range(n2), d2))}
    counts2 = [0] * comb(n2, d2)
    for t in range(100_000):
        counts2[index2[sample_pairing(n2, d2, derive_seed(0xCD, t)).one_set()]] += 1
    _, p_pairs = chi_square_uniform(counts2)

    ok = p_rows > 1e-3 and p_pairs > 1e-3
    _report(4, ok, f"row-law p={p_rows:.4f}, pairing-law p={p_pairs:.4f} (both > 1e-3)")


def test_criterion_05_complement_lemma_500_checks():
    rep = verify_complement(8, 3, 500, 0xC0)
    ok = rep.disagreements == 0 and rep.trials == 500
    _report(5, ok, f"500 trials at n=8, d=3: {rep.disagreements} disagreements")


def test_criterion_06_threshold_gap_both_models(tmp_path):
    details = []
    ok = True
    for model in ("bernoulli", "combinatorial"):
        start = time.perf_counter()
        cfg = SweepConfig(
            model, (300,), (Fraction(1, 2), Fraction(2)), 200, 0x7157,
            str(tmp_path / f"{model}.csv"),
        )
        aggs, _ = run_sweep(cfg)
        elapsed = time.perf_counter() - start
        low = next(a for a in aggs if a.c == Fraction(1, 2))
        high = next(a for a in aggs if a.c == Fraction(2))
        gap = low.fraction - high.fraction
        ok = ok and gap >= 0.5 and elapsed < 600
        details.append(
            f"{model}: frac(c=1/2)={low.fraction:.3f} frac(c=2)={high.fraction:.3f} "
            f"gap={gap:.3f} in {elapsed:.0f}s"
        )
    _report(6, ok, "; ".join(details) + " (gap >= 0.5, < 10 min per model)")


def test_criterion_07_decomposition_inequality():
    rep = verify_lemma21(
        "bernoulli", 50, Fraction(1, 5), 10,
        PropertyPredicate.support_at_least(10), 2000, 0x1E21,
    )
    lhs = rep.p_singular.estimate
    rhs = rep.rhs() + 3 * rep.combined_sigma
    _report(
        7, rep.inequality_ok,
        f"Pr(singular)={lhs:.4f} <= terms {rep.term_small_support.estimate:.4f}"
        f"+{rep.term_off_property.estimate:.4f}+{rep.term_atom.estimate:.4f}"
        f"+3sigma={rhs:.4f}",
    )


def test_criterion_08_small_ball_bounds():
    # (a) Erdos tight case, exact, m <= 20
    tight_ok = all(
        max_atom_bernoulli([1] * m, Fraction(1, 2)).max_prob == Fraction(comb(m, m // 2), 2**m)
        for m in range(1, 21)
    )
    # (b) atom nonincreasing in fibre deficiency (maximally spread family)
    n, d = 12, 4
    atoms = [
        max_atom_combinatorial(list(range(1, s + 1)) + [0] * (n - s), d).max_prob
        for s in range(1, 7)
    ]
    mono_ok = all(a >= b for a, b in zip(atoms, atoms[1:]))
    # (c) conditioning bound: atom <= 1 - estimate_low/2 + 4*halfwidth
    cases = [
        (12, 4, [1] + [0] * 11, None),
        (12, 4, [1, 2, 3] + [0] * 9, None),
        (12, 4, [1] * 4 + [0] * 8, None),
        (10, 3, [1] * 5 + [0] * 5, None),
        (10, 3, [1, 2] + [0] * 8, 3),
    ]
    cond_ok = True
    for idx, (cn, cd, xs, q) in enumerate(cases):
        atom = max_atom_combinatorial(xs, cd, modulus=q).max_prob
        est = pairing_disagreement_prob(xs, cn, cd, 2000, 0x8A + idx)
        if float(atom) > 1 - est.ci_low / 2 + 4 * est.ci_halfwidth:
            cond_ok = False
    ok = tight_ok and mono_ok and cond_ok
    _report(
        8, ok,
        f"Erdos tight m<=20: {tight_ok}; monotone s=1..6: {mono_ok}; "
        f"conditioning bound on {len(cases)} instances: {cond_ok}",
    )


def test_criterion_09_gf2_kernel_exact_span():
    stream = Stream(0x9E)
    bad = 0
    for _ in range(1000):
        n = 1 + stream.below(10)
        m_rows = 1 + stream.below(10)
        rows = [stream.next_u64() & ((1 << n) - 1) for _ in range(m_rows)]
        mat = BitMatrix(m_rows, n, tuple(rows))
        basis = kernel_gf2(mat)
        span = {0}
        for v in basis:
            span |= {s ^ v for s in span}
        brute = {
            v for v in range(1 << n)
            if all((row & v).bit_count() % 2 == 0 for row in rows)
        }
        if span != brute:
            bad += 1
    _report(9, bad == 0, f"1000 instances n<=10: {bad} span mismatches")


def test_criterion_10_performance_targets():
    big = sample(SampleSpec.bernoulli(4096, Fraction(1, 2), 1))
    start = time.perf_counter()
    rank = rank_gf2(big)
    rank_elapsed = time.perf_counter() - start

    times = []
    for trial in range(30):
        d = combinatorial_density(Fraction(1, 2) if trial % 2 else Fraction(2), 300)
        q = sample(SampleSpec.combinatorial(300, d, derive_seed(0xF00, trial)))
        t0 = time.perf_counter()
        is_singular_exact(q, prime_seed=trial)
        times.append(time.perf_counter() - t0)
    mean = sum(times) / len(times)
    ok = rank_elapsed <= 5.0 and mean <= 1.0
    _report(
        10, ok,
        f"rank_gf2 n=4096 (rank {rank}): {rank_elapsed:.2f}s (<= 5 s); "
        f"certify n=300 mean over 30 trials: {mean * 1000:.0f}ms (<= 1 s)",
    )


def test_criterion_11_sweep_reproducibility(tmp_path):
    import json

    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "bernoulli", "n_grid": [24], "c_grid": ["1/2", "2"],
        "trials_per_cell": 8, "master_seed": 424242, "output": str(out),
    }))
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert cli_main(["sweep", "--config", str(cfg)]) == 0
    identical = out.read_bytes() == first
    _report(11, identical, f"aggregate CSV rerun identical: {identical} ({len(first)} bytes)")
