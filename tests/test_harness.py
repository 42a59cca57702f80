"""Sweep engine (with its autopsy column), decomposition check,
complement agreement."""

import csv
import hashlib
import logging
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest

from singmat import harness
from singmat.certify import is_singular_exact
from singmat.errors import InfeasibleDensity, InvalidInput
from singmat.harness import (
    PRIME_SEED_SALT,
    SweepConfig,
    TrialRecord,
    bernoulli_density,
    combinatorial_density,
    ln_rational,
    run_sweep,
    run_trial,
    verify_complement,
    verify_lemma21,
)
from singmat.matrices import BitMatrix
from singmat.models import SampleSpec, find_duplicate_or_zero_lines, sample
from singmat.rng import derive_seed
from singmat.stats import clopper_pearson
from singmat.structure import PropertyPredicate


def test_run_trial_line_flags_match_the_scan():
    """run_trial reads the line scan off the certificate instead of
    repeating it; the flags must equal a fresh scan."""
    for seed in range(50):
        model = ("bernoulli", "combinatorial")[seed % 2]
        n = 8 + seed % 17
        c = Fraction(1 + seed % 4, 2)
        density = bernoulli_density(c, n)
        if model == "combinatorial":
            density = combinatorial_density(c, n)
        out = run_trial(model, n, c, density, seed, derive_seed(0x11E5, seed))
        spec = (SampleSpec.bernoulli if model == "bernoulli" else SampleSpec.combinatorial)(
            n, density, derive_seed(0x11E5, seed)
        )
        lines = find_duplicate_or_zero_lines(sample(spec))
        assert out.had_zero_line == bool(lines.zero_rows or lines.zero_cols)
        duplicate = lines.duplicate_row_pairs or lines.duplicate_col_pairs
        assert out.had_duplicate_line == bool(duplicate)


def test_ln_rational_accuracy():
    import math

    for n in (2, 10, 300, 4096):
        assert abs(float(ln_rational(n)) - math.log(n)) < 1e-12


def test_density_mapping():
    p = bernoulli_density(Fraction(1, 2), 300)
    assert 0 < p < 1
    assert p == Fraction(1, 2) * ln_rational(300) / 300
    assert combinatorial_density(Fraction(2), 300) == 11
    # ties round up: c*ln(n) = 2.5 exactly is impossible here, so force one
    assert combinatorial_density(Fraction(5, 2) / ln_rational(300), 300) == 3


def test_density_clamping_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="singmat.harness"):
        p = bernoulli_density(Fraction(1000), 10)
        assert p == 1
        d = combinatorial_density(Fraction(1000), 10)
        assert d == 10
    assert len(caplog.records) == 2


def test_single_cell_sweep(tmp_path):
    out = tmp_path / "cell.csv"
    cfg = SweepConfig("bernoulli", (4,), (Fraction(1000),), 1, 5, str(out))
    aggs, recs = run_sweep(cfg)
    assert len(aggs) == 1 and len(recs) == 1
    # c huge -> p clamped to 1 -> all-ones matrix -> singular with duplicates
    assert recs[0].verdict == "singular"
    assert recs[0].had_duplicate_line
    assert aggs[0].singular_count == 1
    rows = list(csv.reader(out.open()))
    assert rows[0] == [
        "model", "n", "c", "density", "trials", "singular_count",
        "fraction", "ci_low", "ci_high", "explained_fraction", "master_seed",
    ]
    assert len(rows) == 2


def test_sweep_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = SweepConfig("combinatorial", (10, 14), (Fraction(1, 2), Fraction(2)), 6, 99, str(out))
    run_sweep(cfg)
    first_csv = out.read_bytes()
    run_sweep(cfg)
    assert out.read_bytes() == first_csv
    assert (tmp_path / "sweep.trials.csv").exists()


@dataclass(frozen=True)
class _StagedRecord(TrialRecord):
    stage: str = "gf2"


@pytest.mark.parametrize("staged", [False, True])
def test_sweep_csv_columns_are_the_record_fields(tmp_path, monkeypatch, staged):
    """Each CSV's header is its record's field names, in field order, so a
    field added to a record is a column added to its CSV; the sweep writes
    these two files only."""
    if staged:
        trial = harness.run_trial
        monkeypatch.setattr(harness, "run_trial", lambda *args: _StagedRecord(**vars(trial(*args))))
    out = tmp_path / "sweep.csv"
    aggs, recs = run_sweep(SweepConfig("bernoulli", (8,), (Fraction(1),), 3, 5, str(out)))
    for path, record in ((out, aggs[0]), (tmp_path / "sweep.trials.csv", recs[0])):
        with path.open(newline="") as fh:
            assert next(csv.reader(fh)) == [f.name for f in fields(record)]
    assert ("stage" in [f.name for f in fields(recs[0])]) == staged
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.trials.csv"]


def test_sweep_parallel_matches_serial(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = dict(model="bernoulli", n_grid=(8,), c_grid=(Fraction(1),), trials_per_cell=8, master_seed=3)
    run_sweep(SweepConfig(**base, output=str(out1), jobs=1))
    run_sweep(SweepConfig(**base, output=str(out2), jobs=2))
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("n_grid, c_grid, jobs, message", [
    ((12, 12), (1,), 1, "n_grid repeats a value"),
    ((12, 13), (1, Fraction(2, 2)), 1, "c_grid repeats a value"),
    ((12,), ("1/2", Fraction(1, 2)), 1, "c_grid repeats a value"),
    ((12,), (1,), 0, "jobs must be >= 1"),
    ((12,), (1,), -1, "jobs must be >= 1"),
])
def test_sweep_config_rejects_a_repeated_cell_or_no_jobs(tmp_path, n_grid, c_grid, jobs, message):
    """A cell is one slice of the trials, so a repeated n, or a c that
    repeats once written as a Fraction, is refused; so is jobs < 1."""
    with pytest.raises(ValueError, match=message):
        SweepConfig("bernoulli", n_grid, c_grid, 5, 1, str(tmp_path / "x.csv"), jobs=jobs)


def test_sweep_config_refuses_seeds_outside_64_bits(tmp_path):
    """derive_seed reduces the master seed mod 2**64, so a seed outside
    [0, 2**64) would repeat another seed's cells under its own name."""
    out = str(tmp_path / "x.csv")
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master_seed must be a 64-bit unsigned integer"):
            SweepConfig("bernoulli", (12,), (1,), 5, seed, out)
    for seed in (0, 2**64 - 1):
        assert SweepConfig("bernoulli", (12,), (1,), 5, seed, out).master_seed == seed


@pytest.mark.parametrize("field, value, message", [
    ("trials_per_cell", 2.5, "trials_per_cell must be an integer"),
    ("trials_per_cell", True, "trials_per_cell must be an integer"),
    ("master_seed", 1.5, "master_seed must be an integer"),
    ("jobs", 2.0, "jobs must be an integer"),
    ("n_grid", (12, 5.5), "n_grid holds a non-integral size"),
    ("n_grid", (False,), "n_grid holds a non-integral size"),
])
def test_sweep_config_refuses_non_integer_counts_seeds_and_sizes(tmp_path, field, value, message):
    """run_sweep would fail on these (range(2.5)) or silently truncate
    them (n = 5.5 ran as 5), so the config refuses them up front."""
    args = dict(model="bernoulli", n_grid=(12,), c_grid=(1,), trials_per_cell=5, master_seed=1,
                output=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match=message):
        SweepConfig(**{**args, field: value})
    assert SweepConfig(**{**args, "n_grid": (12.0, Fraction(13))}).n_grid == (12, 13)


@pytest.mark.parametrize("field, value, message", [
    ("c_grid", (1, -1), "c_grid holds a negative c: -1"),
    ("c_grid", (Fraction(-1, 2),), "c_grid holds a negative c: -1/2"),
    ("c_grid", ("1/0",), "c_grid holds a non-rational"),
    ("c_grid", ("abc",), "c_grid holds a non-rational"),
    ("c_grid", (float("nan"),), "c_grid holds a non-rational"),
    ("c_grid", 1, "c_grid must be a list"),
    ("n_grid", 5, "n_grid must be a list"),
    ("n_grid", range(3, 5), "n_grid must be a list"),
    ("n_grid", (), "n_grid must be a list"),
])
def test_sweep_config_refuses_negative_or_non_rational_c_and_scalar_grids(tmp_path, field, value, message):
    """A negative c would be clamped to p = 0 and run as a sweep of
    zero matrices; a c of 1/0 or a grid that is not a list or tuple is a
    typed input error, not a ZeroDivisionError or TypeError."""
    args = dict(model="bernoulli", n_grid=(12,), c_grid=(1,), trials_per_cell=5, master_seed=1,
                output=str(tmp_path / "x.csv"))
    with pytest.raises(InvalidInput, match=message):
        SweepConfig(**{**args, field: value})


def test_sweep_config_reads_a_float_c_as_its_decimal(tmp_path):
    """c is read as Fraction(str(c)), as a JSON config reads it: the
    float 0.1 is 1/10, not its binary value."""
    cfg = SweepConfig("bernoulli", (12,), (0.1, 1.5, "2/3", 0), 5, 1, str(tmp_path / "x.csv"))
    assert cfg.c_grid == (Fraction(1, 10), Fraction(3, 2), Fraction(2, 3), Fraction(0))


@pytest.mark.parametrize("paths", [
    {"output": "missing/x.csv"},
])
def test_run_sweep_refuses_a_missing_output_directory_before_any_trial(
    tmp_path, monkeypatch, paths
):
    """The output directory is checked before the first trial, not after
    the last one when the CSV is written."""
    calls = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
    paths = {key: str(tmp_path / value) for key, value in paths.items()}
    cfg = SweepConfig("bernoulli", (12,), (Fraction(1),), 5, 1, **paths)
    with pytest.raises(InvalidInput, match="does not exist"):
        run_sweep(cfg)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", ["", ".", "/"])
def test_sweep_config_refuses_an_output_with_no_file_name(output):
    """Such a path has no name to derive the .trials.csv companion from."""
    with pytest.raises(InvalidInput, match="output must name a file"):
        SweepConfig("bernoulli", (12,), (Fraction(1),), 5, 1, output)


@pytest.mark.parametrize("directory", ["out", "out.trials.csv"])
def test_run_sweep_refuses_an_output_that_is_a_directory_before_any_trial(
    tmp_path, monkeypatch, directory
):
    """An output, or its .trials.csv companion, that is an existing
    directory is refused before the first trial, and no .tmp is left."""
    calls = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
    (tmp_path / directory).mkdir()
    cfg = SweepConfig("bernoulli", (12,), (Fraction(1),), 5, 1, str(tmp_path / "out"))
    with pytest.raises(InvalidInput, match="is a directory"):
        run_sweep(cfg)
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == [directory]


def test_sweep_records_are_sliced_per_cell(tmp_path):
    """Cell k aggregates exactly records[k * T:(k + 1) * T], in grid order."""
    grids = (8, 12), (Fraction(1, 2), Fraction(2))
    cfg = SweepConfig("bernoulli", *grids, 4, 7, str(tmp_path / "s.csv"))
    aggs, recs = run_sweep(cfg)
    assert len(recs) == 4 * len(aggs) == 16
    for k, a in enumerate(aggs):
        cell = recs[4 * k : 4 * k + 4]
        assert {(r.n, r.c) for r in cell} == {(a.n, a.c)}
        assert [r.trial_index for r in cell] == list(range(4))
        assert a.singular_count == sum(r.verdict == "singular" for r in cell)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_trials_returns_records_in_cell_and_trial_order(jobs):
    """The one trial loop: trial i of each (args, cell_seed) runs as
    trial(*args, i, derive_seed(cell_seed, i)), in (cell, trial) order,
    in this process or over a pool."""
    cells = [
        (("bernoulli", 6, Fraction(1), bernoulli_density(Fraction(1), 6)), 5),
        (("combinatorial", 7, Fraction(2), 4), 2**64 - 1),
    ]
    records = harness._run_trials(run_trial, cells, 3, jobs)
    assert [(r.model, r.trial_index, r.derived_seed) for r in records] == [
        (args[0], i, derive_seed(cell_seed, i)) for args, cell_seed in cells for i in range(3)
    ]


def test_sweep_calls_the_module_run_trial_once_per_trial(tmp_path, monkeypatch):
    """run_sweep reads harness.run_trial when it runs, so a wrapper put
    there (as the benchmark's tracer does) sees every trial exactly once."""
    trial, calls = harness.run_trial, []

    def counting_trial(*args):
        calls.append(args[4:])
        return trial(*args)

    monkeypatch.setattr(harness, "run_trial", counting_trial)
    cfg = SweepConfig("bernoulli", (6, 8), (Fraction(1), Fraction(2)), 3, 9, str(tmp_path / "s.csv"))
    _aggs, recs = run_sweep(cfg)
    assert calls == [(r.trial_index, r.derived_seed) for r in recs]
    assert len(calls) == 12


def test_trial_replay_determinism(tmp_path):
    cfg = SweepConfig("combinatorial", (9,), (Fraction(1),), 5, 17, str(tmp_path / "x.csv"))
    _aggs, recs = run_sweep(cfg)
    for r in recs:
        again = run_trial(r.model, r.n, r.c, r.density, r.trial_index, r.derived_seed)
        assert again == replace(r, elapsed=again.elapsed)
        # independent replay from the spec alone
        m = sample(SampleSpec.combinatorial(r.n, int(r.density), r.derived_seed))
        cert = is_singular_exact(m, prime_seed=derive_seed(r.derived_seed, PRIME_SEED_SALT))
        assert cert.verdict == r.verdict


def test_aggregate_ci_coverage():
    # Singularity probability of a Bernoulli(1/2) 2x2 matrix is exactly
    # 10/16; 99% intervals over repeated cells must cover it almost always.
    truth = 10 / 16
    covered = 0
    reps, trials = 60, 40
    for rep in range(reps):
        singular = 0
        for t in range(trials):
            m = sample(SampleSpec.bernoulli(2, Fraction(1, 2), derive_seed(rep, t)))
            if is_singular_exact(m, prime_seed=t).is_singular:
                singular += 1
        lo, hi = clopper_pearson(singular, trials)
        covered += lo <= truth <= hi
    assert covered >= int(0.95 * reps)


def test_complement_agreement():
    rep = verify_complement(8, 3, 60, 11)
    assert rep.disagreements == 0
    assert rep.agreements == 60


def test_complement_rejects_degenerate_density():
    with pytest.raises(InfeasibleDensity):
        verify_complement(5, 0, 1, 0)
    with pytest.raises(InfeasibleDensity):
        verify_complement(5, 5, 1, 0)


@pytest.mark.parametrize("trials", [0, -5])
def test_complement_rejects_no_trials(trials):
    """No trials is no report, as in verify_lemma21."""
    with pytest.raises(ValueError, match="trials must be >= 1"):
        verify_complement(16, 4, trials, 1)


@pytest.mark.parametrize("trials, seed, message", [
    (3, 2**64, "seed must be a 64-bit unsigned integer"),
    (3, -1, "seed must be a 64-bit unsigned integer"),
    (2.5, 1, "trials must be an integer, not 2.5"),
    (True, 1, "trials must be an integer, not True"),
])
@pytest.mark.parametrize("experiment", ["lemma21", "complement"])
def test_experiments_refuse_seeds_outside_64_bits_and_non_integer_trials(
    monkeypatch, experiment, trials, seed, message
):
    """derive_seed reduces a seed mod 2**64, so 2**64 would repeat seed 0's
    trials and -1 those of 2**64 - 1; 2.5 and True are no trial count.
    Both experiments refuse them as a sweep config does, before any trial."""
    monkeypatch.setattr(harness, "_certify_sample", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(InvalidInput, match=message):
        if experiment == "lemma21":
            verify_lemma21("bernoulli", 6, Fraction(1, 3), 2, PropertyPredicate.support_at_least(1),
                           trials, seed)
        else:
            verify_complement(16, 4, trials, seed)


@pytest.mark.parametrize("proxies, best", [
    ([(0.5, 0.1, True), (0.0, 0.3, False), (0.5, 0.2, False), (0.25, 0.05, True)], (0.5, 0.1)),
    ([(0.0, 0.3, False)] * 4, (0.0, 0.0)),
])
def test_lemma21_term_atom_is_the_first_largest_positive_atom(monkeypatch, proxies, best):
    """Term (3) takes the first largest atom proxy with its own sigma; a
    0.0 atom, even a Monte Carlo one with a sigma, leaves it at 0 with sigma 0."""
    found = iter(proxies)
    monkeypatch.setattr(harness, "_atom_proxy", lambda *args: next(found))
    rep = verify_lemma21("bernoulli", 12, Fraction(1, 3), 3, PropertyPredicate.support_at_least(1), 4, 5)
    scale = 12 / 3
    assert (rep.term_atom.estimate, rep.term_atom.sigma) == (scale * best[0], scale * best[1])
    assert (rep.term_atom.trials, rep.atom_exact_count, rep.atom_mc_count) == (
        4, sum(p[2] for p in proxies), sum(not p[2] for p in proxies))


def test_lemma21_support_one_property_forces_term2_zero():
    # Every nonzero vector has support >= 1, so the off-property event
    # is structurally impossible.
    rep = verify_lemma21(
        "bernoulli", 12, Fraction(1, 3), 3,
        PropertyPredicate.support_at_least(1), 60, 5,
    )
    assert rep.term_off_property.hits == 0
    assert rep.term_off_property.estimate == 0.0


def test_lemma21_degenerate_t_flagged():
    rep = verify_lemma21(
        "bernoulli", 6, Fraction(1, 3), 10,
        PropertyPredicate.support_at_least(2), 30, 6,
    )
    assert rep.degenerate_t


def test_lemma21_inequality_holds_small():
    rep = verify_lemma21(
        "combinatorial", 14, 3, 4,
        PropertyPredicate.largest_fibre_at_most(11), 120, 7,
    )
    assert rep.inequality_ok
    assert rep.trials == 120
    assert rep.predicate


_PRED = PropertyPredicate.support_at_least(1)


@pytest.mark.parametrize("call", [
    lambda: verify_lemma21("gaussian", 6, Fraction(7, 2), 2, _PRED, 5, 1),
    lambda: verify_lemma21("combinatorial", 6, Fraction(7, 2), 2, _PRED, 5, 1),
    lambda: verify_lemma21("bernoulli", 6, Fraction(1, 3), 2.5, _PRED, 5, 1),
    lambda: verify_lemma21("bernoulli", 2.5, Fraction(1, 3), 2, _PRED, 5, 1),
    lambda: verify_lemma21("bernoulli", 0, Fraction(1, 3), 2, _PRED, 5, 1),
    lambda: verify_complement(16, 4.5, 3, 1),
    lambda: verify_complement(16, True, 3, 1),
    lambda: SampleSpec.bernoulli(6, Fraction(1, 2), 2.5),
    lambda: SampleSpec.bernoulli(6, Fraction(1, 2), True),
    lambda: SampleSpec.bernoulli(2.5, Fraction(1, 2), 1),
    lambda: SampleSpec.bernoulli(6, None, 1),
    lambda: SampleSpec.combinatorial(6, 2.5, 1),
    lambda: is_singular_exact(BitMatrix.identity(3), prime_seed=True),
    lambda: is_singular_exact(BitMatrix.identity(3), prime_seed=2.5),
], ids=["lemma21-unknown-model", "lemma21-fractional-d", "lemma21-fractional-t",
        "lemma21-fractional-n", "lemma21-zero-n", "complement-fractional-d", "complement-bool-d", "spec-fractional-seed", "spec-bool-seed",
        "spec-fractional-n", "spec-no-p", "spec-fractional-d", "certify-bool-seed",
        "certify-fractional-seed"])
def test_bad_models_sizes_densities_and_seeds_are_refused_before_any_trial(monkeypatch, call):
    """One model table and one integer rule: an unknown model, a density its
    model cannot take, and a bool or fractional size, count or seed raise
    InvalidInput (exit code 2) instead of running another experiment under
    this one's name (d = 4.5 ran d = 4; a seed of True drew seed 1's matrix)
    or escaping as a bare TypeError."""
    monkeypatch.setattr(harness, "_certify_sample", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(InvalidInput) as err:
        call()
    assert err.value.exit_code == 2


def test_lemma21_validation():
    with pytest.raises(ValueError):
        verify_lemma21("bernoulli", 6, Fraction(1, 2), 0,
                       PropertyPredicate.support_at_least(1), 5, 0)


def test_autopsy_p_zero_all_explained(tmp_path):
    # c = 0 gives p = 0: every trial is the zero matrix, explained by its zero lines
    cfg = SweepConfig("bernoulli", (10,), (Fraction(0),), 8, 1, str(tmp_path / "zero.csv"))
    (agg,), _recs = run_sweep(cfg)
    assert agg.singular_count == 8
    assert agg.explained_fraction == 1.0


def test_autopsy_no_singulars_gives_none(tmp_path):
    out = tmp_path / "dense.csv"
    (agg,), _recs = run_sweep(SweepConfig("bernoulli", (20,), (Fraction(4),), 5, 2, str(out)))
    assert agg.singular_count == 0
    assert agg.explained_fraction is None
    row = dict(zip(*csv.reader(out.open())))
    assert row["explained_fraction"] == ""


# sha256 prefixes of repr(verify_lemma21(...)), recorded before the
# kernel vectors stopped passing through a Fraction wrapper: Bernoulli at
# the benchmark's small-n cell (two exact DP atoms, one Monte Carlo), a
# combinatorial case whose atoms are enumerated exactly, and one past
# ATOM_COMB_BUDGET, whose atoms are Monte Carlo estimates.
PINNED_REPORTS = [
    (("bernoulli", 50, bernoulli_density(Fraction(1), 50), 10,
      PropertyPredicate.support_at_least(10), 8, 30), (2, 1), "d451d600059fca32"),
    (("combinatorial", 14, 3, 4,
      PropertyPredicate.largest_fibre_at_most(11), 30, 22), (16, 0), "c1e5cfc6b3a6f828"),
    (("combinatorial", 40, 6, 5,
      PropertyPredicate.support_at_least(5), 6, 23), (0, 6), "6d75d0d9c7371a92"),
]


@pytest.mark.parametrize("args, atoms, digest", PINNED_REPORTS)
def test_lemma21_reports_match_pinned_digest(args, atoms, digest):
    rep = verify_lemma21(*args)
    assert (rep.atom_exact_count, rep.atom_mc_count) == atoms
    assert hashlib.sha256(repr(rep).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("t", [10, 25])
def test_lemma21_lifts_only_one_dimensional_left_kernels(monkeypatch, t):
    """A GF(2) left kernel of dimension > 1 with support below t counts
    for term (1) outright; only a one-dimensional one is lifted."""
    args = list(PINNED_REPORTS[0][0])
    args[3] = t
    screens, square_lifts = [], []
    screen, lift = harness.enumerate_gf2_kernel_min_support, harness._kernel_vector

    def recording_screen(m, **kwargs):
        screens.append(screen(m, **kwargs))
        return screens[-1]

    def recording_lift(m):
        square_lifts.append(m.n_rows == m.n_cols)
        return lift(m)

    monkeypatch.setattr(harness, "enumerate_gf2_kernel_min_support", recording_screen)
    monkeypatch.setattr(harness, "_kernel_vector", recording_lift)
    verify_lemma21(*args)
    below_t = [s.kernel_dim for s in screens if not s.trivial and s.min_support < t]
    assert any(dim > 1 for dim in below_t)
    assert sum(square_lifts) == below_t.count(1)


def _determinants(a: np.ndarray) -> np.ndarray:
    """Integer determinants of a stack of n x n matrices, by the Leibniz
    formula: one signed product of n entries per permutation."""
    n = a.shape[-1]
    det = np.zeros(len(a), dtype=np.int64)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        det += (-1) ** inversions * a[:, np.arange(n), list(perm)].prod(axis=1)
    return det


def _exact_singular_probability(model: str, n: int, density) -> Fraction:
    """P(singular) by enumeration: for Bernoulli(p), the sum over k of
    S_n(k) p^k (1-p)^(n^2-k), where S_n(k) counts the singular zero-one
    matrices with k ones; for weight-d rows, the share of singular tuples
    among all C(n, d)^n."""
    if model == "bernoulli":
        a = (np.arange(1 << n * n)[:, None] >> np.arange(n * n) & 1).reshape(-1, n, n)
        ones = a.reshape(len(a), -1).sum(axis=1)
        counts = np.bincount(ones[_determinants(a) == 0], minlength=n * n + 1)
        assert counts.sum() == {3: 338, 4: 42976}[n]  # OEIS A046747
        if n == 4:
            assert counts.tolist() == [1, 16, 120, 560, 1796, 4080, 6568, 7696, 7542, 5872,
                                       4552, 2352, 1220, 464, 120, 16, 1]
        p = Fraction(density)
        return sum(int(s) * p**k * (1 - p) ** (n * n - k) for k, s in enumerate(counts))
    rows = [[int(j in ones) for j in range(n)] for ones in combinations(range(n), density)]
    a = np.array(list(product(rows, repeat=n)))
    return Fraction(int((_determinants(a) == 0).sum()), comb(n, density) ** n)


def test_sweep_estimates_cover_the_exact_singular_probability(tmp_path):
    """Sampler, certifier and interval together: at n <= 4 each cell's
    99% interval should hold the exact P(singular).  The grid, trial
    count, seed and the number of misses allowed were fixed before the
    first run: 16 cells of 1,000 trials, seed 7, at most 2 misses."""
    misses = []
    for model in ("bernoulli", "combinatorial"):
        cfg = SweepConfig(model, (3, 4), (Fraction(1, 2), 1, 2, 3), 1000, 7, str(tmp_path / f"{model}.csv"))
        for a in run_sweep(cfg)[0]:
            exact = _exact_singular_probability(model, a.n, a.density)
            if not a.ci_low <= exact <= a.ci_high:
                misses.append((model, a.n, a.c, float(exact), a.ci_low, a.ci_high))
    assert len(misses) <= 2, misses
