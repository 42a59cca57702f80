"""Monte Carlo experiment engine.

Threshold sweeps over (n, c) grids for both models, the three-term
decomposition check for the singularity probability, and exact
complement agreement.  The sub-threshold autopsy is the sweep itself:
each cell's ``explained_fraction`` is the share of its singular trials
that have a zero or duplicate line.  All three run one trial loop,
``_run_trials``, which maps a pure per-trial function over each cell's
trials, seeded ``derive_seed(cell_seed, i)``, in (cell, trial) order,
in this process or over a process pool: ``run_trial`` for the sweep,
``_lemma21_trial`` and ``_complement_trial``.  Each samples and
certifies its matrix in one step, ``_certify_sample``, so every
experiment is deterministic and replayable trial by trial.  A trial
draws from ``models.SampleSpec(model, n, seed, density)``, the owner of
the model names and row laws, and integers go through ``check_int``.
``run_sweep`` writes both its tables as CSVs with one column per field
of ``CellAggregate`` and ``TrialRecord``.

Density mapping: Bernoulli p = c * log(n) / n and combinatorial
d = round(c * log(n)) (ties up), with log(n) taken as an exact rational
from 30-digit correctly-rounded decimal evaluation -- identical on
every platform.
"""

from __future__ import annotations

import csv
import decimal
import io
import logging
import numbers
import os
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from math import sqrt
from pathlib import Path
from typing import Sequence

from .bounds import max_atom_bernoulli, max_atom_combinatorial
from .certify import SingularityCertificate, is_singular_exact
from .errors import BudgetExceeded, InfeasibleDensity, InvalidInput, KernelLiftFailed, KernelTooLarge, check_int
from .exactla import exact_dot, kernel_vector_crt
from .matrices import BitMatrix
from .models import MODELS, SampleSpec, sample, sample_rows
from .rng import derive_seed, derive_seeds
from .stats import binomial_sigma, clopper_pearson
from .structure import PropertyPredicate, enumerate_gf2_kernel_min_support, eval_predicate

log = logging.getLogger(__name__)

PRIME_SEED_SALT = 0xC5
COMPLEMENT_PRIME_SALT = 2
FRESH_ROW_SALT = 0xF7
ATOM_MC_INNER = 256
LN_DIGITS = 30


def ln_rational(n: int) -> Fraction:
    """log(n) as the exact rational value of its correctly-rounded
    30-digit decimal expansion (platform independent)."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    with decimal.localcontext() as ctx:
        ctx.prec = LN_DIGITS
        return Fraction(decimal.Decimal(n).ln())


def bernoulli_density(c: Fraction, n: int) -> Fraction:
    """p = c log(n) / n, clamped into [0, 1] with a logged warning."""
    p = Fraction(c) * ln_rational(n) / n
    if p < 0 or p > 1:
        clamped = min(max(p, Fraction(0)), Fraction(1))
        log.warning("density %s clamped to %s for n=%d", p, clamped, n)
        return clamped
    return p


def combinatorial_density(c: Fraction, n: int) -> int:
    """d = nearest integer to c log(n), ties rounded up, clamped to [0, n]."""
    x = Fraction(c) * ln_rational(n)
    d = int((x + Fraction(1, 2)).__floor__())
    if d < 0 or d > n:
        clamped = min(max(d, 0), n)
        log.warning("density %d clamped to %d for n=%d", d, clamped, n)
        return clamped
    return d


# ---------------------------------------------------------------------------
# The trial loop of every experiment


def _run_trials(trial, cells: Sequence[tuple[tuple, int]], trials: int, jobs: int = 1) -> list:
    """``trial(*args, i, derive_seed(cell_seed, i))`` for each ``(args,
    cell_seed)`` of ``cells`` and each i < ``trials``, in (cell, trial)
    order.  With ``jobs > 1`` the trials are mapped over a process pool,
    whose module is imported only then; a serial run loads no
    multiprocessing machinery."""
    check_int("trials", trials, 1)
    calls = []
    for args, cell_seed in cells:
        check_int("seed", cell_seed, 0, 1 << 64)
        calls += [(*args, i, derive_seed(cell_seed, i)) for i in range(trials)]
    columns = list(zip(*calls))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(trial, *columns, chunksize=max(1, len(calls) // (jobs * 4))))
    return list(map(trial, *columns))


# ---------------------------------------------------------------------------
# Threshold sweep; its explained_fraction is the sub-threshold autopsy


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's grid and output, and every rule on them: integer trials and jobs >= 1,
    a seed in [0, 2**64), an output path with a file name, and each grid a nonempty list
    or tuple of distinct integral n or rational c >= 0, read as Fraction(str(c)) so that
    0.1 is 1/10.  ``run_sweep`` writes ``output`` and its ``.trials.csv`` companion."""

    model: str  # one of models.MODELS
    n_grid: tuple[int, ...]
    c_grid: tuple[Fraction, ...]
    trials_per_cell: int
    master_seed: int
    output: str
    jobs: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidInput(f"unknown model {self.model!r}")
        check_int("trials_per_cell", self.trials_per_cell, 1)
        check_int("master_seed", self.master_seed, 0, 1 << 64)
        check_int("jobs", self.jobs, 1)
        if not isinstance(self.output, str):
            raise InvalidInput(f"output must be a path, not {self.output!r}")
        if not Path(self.output).name:  # "", "." or "/" names no file
            raise InvalidInput(f"output must name a file, not {self.output!r}")
        for name, grid in (("n_grid", self.n_grid), ("c_grid", self.c_grid)):
            if not isinstance(grid, (list, tuple)) or not grid:
                raise InvalidInput(f"{name} must be a list or tuple of values, not {grid!r}")
        for n in self.n_grid:
            if isinstance(n, bool) or not isinstance(n, numbers.Real) or n % 1 != 0:
                raise InvalidInput(f"n_grid holds a non-integral size: {n!r}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        try:  # str() reads a float as its shortest decimal, not its binary value
            object.__setattr__(self, "c_grid", tuple(Fraction(str(c)) for c in self.c_grid))
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"c_grid holds a non-rational: {self.c_grid!r}") from None
        if min(self.c_grid) < 0:  # the density p = c log(n) / n would be negative
            raise InvalidInput(f"c_grid holds a negative c: {min(self.c_grid)}")
        for name, grid in (("n_grid", self.n_grid), ("c_grid", self.c_grid)):
            if len(set(grid)) < len(grid):  # a cell would be run twice
                raise InvalidInput(f"{name} repeats a value: {', '.join(map(str, grid))}")


@dataclass(frozen=True)
class TrialRecord:
    model: str
    n: int
    c: Fraction
    density: Fraction | int
    trial_index: int
    derived_seed: int
    verdict: str
    gf2_rank: int
    had_zero_line: bool
    had_duplicate_line: bool
    elapsed: float


@dataclass(frozen=True)
class CellAggregate:
    model: str
    n: int
    c: Fraction
    density: Fraction | int
    trials: int
    singular_count: int
    fraction: float
    ci_low: float
    ci_high: float
    explained_fraction: float | None
    master_seed: int


def _cell_density(model: str, c: Fraction, n: int) -> Fraction | int:
    if model == "bernoulli":
        return bernoulli_density(c, n)
    return combinatorial_density(c, n)


def _certify_sample(
    model: str, n: int, density, trial_seed: int
) -> tuple[BitMatrix, SingularityCertificate]:
    """One trial's matrix and its certificate, under the prime seed the
    trial seed derives: the sample-and-certify step of every experiment."""
    matrix = sample(SampleSpec(model, n, trial_seed, density))
    return matrix, is_singular_exact(matrix, prime_seed=derive_seed(trial_seed, PRIME_SEED_SALT))


def run_trial(
    model: str, n: int, c: Fraction, density, trial_index: int, trial_seed: int
) -> TrialRecord:
    """One sweep trial: certify a sample, read its degenerate lines off
    the certificate, and time it.  Pure, so worker processes run it."""
    start = time.perf_counter()
    _, cert = _certify_sample(model, n, density, trial_seed)
    lines = cert.stats.lines
    return TrialRecord(
        model=model, n=n, c=c, density=density, trial_index=trial_index,
        derived_seed=trial_seed, verdict=cert.verdict, gf2_rank=cert.stats.gf2_rank,
        had_zero_line=bool(lines.zero_rows or lines.zero_cols),
        had_duplicate_line=bool(lines.duplicate_row_pairs or lines.duplicate_col_pairs),
        elapsed=time.perf_counter() - start,
    )


def run_sweep(cfg: SweepConfig) -> tuple[list[CellAggregate], list[TrialRecord]]:
    """Run the grid, write the aggregate CSV to ``cfg.output`` and the
    per-trial CSV to its ``.trials.csv`` companion, and return both
    tables.  Each CSV's columns are its record's fields, in field order.

    Cell k of the grid (n outer, c inner) runs ``run_trial`` through
    ``_run_trials`` under the cell seed ``derive_seed(master_seed, k)``,
    over ``cfg.jobs`` processes.  A cell's interval loads scipy only when
    its count is interior (see ``stats``).  A missing output directory,
    or an output file that is an existing directory, is refused before
    any trial runs."""
    output, parent = Path(cfg.output), Path(cfg.output).resolve().parent
    trials_path = output.with_suffix(".trials.csv")
    if not parent.is_dir():
        raise InvalidInput(f"output directory {parent} does not exist")
    for path in (output, trials_path):
        if path.is_dir():
            raise InvalidInput(f"output {path} is a directory")
    grid = [(n, c) for n in cfg.n_grid for c in cfg.c_grid]
    cells = [((cfg.model, n, c, _cell_density(cfg.model, c, n)), derive_seed(cfg.master_seed, k))
             for k, (n, c) in enumerate(grid)]
    t = cfg.trials_per_cell
    records = _run_trials(run_trial, cells, t, cfg.jobs)  # read at call time, so it can be traced

    aggregates = []
    for k, ((_, n, c, density), _) in enumerate(cells):
        singular = [r for r in records[k * t : (k + 1) * t] if r.verdict == "singular"]
        lo, hi = clopper_pearson(len(singular), t)
        explained = None if not singular else sum(
            r.had_zero_line or r.had_duplicate_line for r in singular) / len(singular)
        aggregates.append(CellAggregate(
            model=cfg.model, n=n, c=c, density=density, trials=t,
            singular_count=len(singular), fraction=len(singular) / t, ci_low=lo, ci_high=hi,
            explained_fraction=explained, master_seed=cfg.master_seed,
        ))

    _write_table(output, aggregates)
    _write_table(trials_path, records)
    return aggregates, records


def _density_str(density) -> str:
    # The exact rational p is reconstructible from (model, c, n); the CSV
    # shows the float form for readability.
    if isinstance(density, Fraction):
        return repr(float(density))
    return str(density)


def _write_table(path: Path, records: Sequence) -> None:
    """Atomically write records as a CSV with one column per record field,
    in field order: a bool as 0/1, a density through ``_density_str``, and
    anything else as csv writes it (``None`` as an empty cell)."""
    names = [f.name for f in fields(records[0])]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    for r in records:
        w.writerow([_csv_cell(name, getattr(r, name)) for name in names])
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(buf.getvalue(), encoding="utf-8")
    try:
        os.replace(tmp, path)
    except OSError:  # leave no .tmp behind
        tmp.unlink(missing_ok=True)
        raise


def _csv_cell(name: str, value):
    if isinstance(value, bool):
        return int(value)
    return _density_str(value) if name == "density" else value


# ---------------------------------------------------------------------------
# Decomposition check


@dataclass(frozen=True)
class TermEstimate:
    """One estimated probability (optionally scaled), with a 99% CI."""

    hits: int | None
    trials: int
    scale: float
    estimate: float
    ci_low: float
    ci_high: float
    sigma: float
    note: str = ""


def _binomial_term(hits: int, trials: int, scale: float = 1.0, note: str = "") -> TermEstimate:
    lo, hi = clopper_pearson(hits, trials)
    return TermEstimate(
        hits=hits, trials=trials, scale=scale, estimate=scale * hits / trials,
        ci_low=scale * lo, ci_high=scale * hi,
        sigma=scale * binomial_sigma(hits, trials), note=note,
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Estimates for the singularity probability and the three terms
    bounding it: small-support left kernel, off-property kernel vector
    of the first n-1 rows, and the atom of the realized kernel vector
    against a fresh row (scaled by n/t)."""

    model: str
    n: int
    density: Fraction | int
    t: int
    predicate: str
    trials: int
    p_singular: TermEstimate
    term_small_support: TermEstimate
    term_off_property: TermEstimate
    term_atom: TermEstimate
    combined_sigma: float
    inequality_ok: bool
    degenerate_t: bool
    kernel_budget_hits: int
    atom_exact_count: int
    atom_mc_count: int

    def rhs(self) -> float:
        return (
            self.term_small_support.estimate
            + self.term_off_property.estimate
            + self.term_atom.estimate
        )


def _kernel_vector(m: BitMatrix) -> tuple[int, ...]:
    """Verified integer right-kernel vector of a zero-one matrix whose
    kernel is known to be nontrivial."""
    v = kernel_vector_crt(m).vector
    if v is None:
        shape = f"{m.n_rows}x{m.n_cols}"
        raise KernelLiftFailed(f"no kernel vector for a {shape} matrix that must have one")
    return v


def _atom_proxy(model: str, density, x: Sequence[int], seed: int) -> tuple[float, float, bool]:
    """(value, sigma, exact?) for the atom of the integer vector x
    against one model row.

    Exact maximal atom when the enumeration budgets of ``bounds`` allow;
    otherwise a Monte Carlo estimate of Pr(x . row = 0) over fresh rows.
    """
    try:
        if model == "bernoulli":
            atom = max_atom_bernoulli([e for e in x if e != 0], density)
        else:
            atom = max_atom_combinatorial(x, density)
        return float(atom.max_prob), 0.0, True
    except BudgetExceeded:  # too large to enumerate: estimate it below
        pass
    # Fresh row k is row 0 of sample() of the child spec seeded derive_seed(seed, k).
    row_seeds = derive_seeds(derive_seeds(seed, ATOM_MC_INNER), 1)[:, 0]
    rows = sample_rows(SampleSpec(model, len(x), seed, density), row_seeds)
    hits = sum(exact_dot(x, row) == 0 for row in rows)
    return hits / ATOM_MC_INNER, binomial_sigma(max(hits, 1), ATOM_MC_INNER), False


def _lemma21_trial(model: str, n: int, density, t: int, pred: PropertyPredicate,
                   trial_index: int, trial_seed: int) -> tuple:
    """One decomposition trial: (singular?, term (1)'s small-support event?,
    was that event assumed because the GF(2) screen ran out of budget?,
    is x orthogonal to the last row?, ``_atom_proxy`` of x), where x is the
    kernel vector of the first n-1 rows; off the property (term (2)'s
    event) the last two are False and None."""
    matrix, cert = _certify_sample(model, n, density, trial_seed)
    small_support = budget_hit = False
    # Term (1): some nonzero rational left-kernel vector with support < t.
    if cert.is_singular:
        mt = matrix.transpose()
        try:
            screen = enumerate_gf2_kernel_min_support(mt)
            if screen.trivial or screen.min_support >= t:
                pass  # a small-support rational vector would show up mod 2
            elif screen.kernel_dim > 1:
                small_support = True  # cannot rule out a lighter combination
            else:
                small_support = sum(1 for e in _kernel_vector(mt) if e) < t
        except KernelTooLarge:
            small_support = budget_hit = True  # conservative

    # Terms (2) and (3): kernel vector of the first n-1 rows vs the last.
    x = _kernel_vector(BitMatrix(n - 1, n, matrix.rows[:-1]))
    if not eval_predicate(pred, x):
        return cert.is_singular, small_support, budget_hit, False, None
    atom = _atom_proxy(model, density, x, derive_seed(trial_seed, FRESH_ROW_SALT))
    return cert.is_singular, small_support, budget_hit, exact_dot(x, matrix.rows[n - 1]) == 0, atom


def verify_lemma21(
    model: str,
    n: int,
    density,
    t: int,
    pred: PropertyPredicate,
    trials: int,
    seed: int,
) -> DecompositionReport:
    """Estimate the three-term upper bound on Pr(singular) and check it.

    Runs ``_lemma21_trial`` through ``_run_trials`` on one cell seeded
    ``seed`` and sums its records.  Per trial, one n x n matrix is
    sampled; its first n-1 rows provide the canonical kernel vector
    (tested against the property), its last row is the fresh row for the
    atom indicator, and the full matrix is certified for the left-hand
    side.  Events for the small-support term use the GF(2)
    minimum-support screen of the transpose.  A screen with support
    below t counts as a hit outright when its kernel spans more than one
    dimension (a conservative over-estimate); only a one-dimensional
    GF(2) left kernel is lifted to its integer vector, whose support
    decides the event.  Term (3) is the first largest positive atom
    proxy, with its sigma; when no atom is positive it is 0 with sigma 0.
    What ``check_int`` or ``SampleSpec`` refuses is refused before any trial.
    """
    check_int("t", t, 1)
    check_int("n", n, 1)  # the first n - 1 rows give the kernel vector
    spec = SampleSpec(model, n, seed, density)
    cell = ((spec.model, spec.n, spec.density, t, pred), spec.seed)
    records = _run_trials(_lemma21_trial, [cell], trials)
    singular, small_support, budget_hits, zero_dots, atoms = zip(*records)
    atoms = [atom for atom in atoms if atom is not None]
    atom_exact = sum(exact for _, _, exact in atoms)
    atom_mc = len(atoms) - atom_exact
    positive = [(value, sigma) for value, sigma, _ in atoms if value > 0]
    best_atom, best_atom_sigma = max(positive, key=lambda a: a[0], default=(0.0, 0.0))
    scale = n / t
    p_singular = _binomial_term(sum(singular), trials)
    term1 = _binomial_term(sum(small_support), trials, note="small-support left kernel")
    off_property = trials - len(atoms)
    term2 = _binomial_term(off_property, trials, scale=scale, note="kernel vector off the property")
    term3 = TermEstimate(
        hits=None, trials=len(atoms), scale=scale,
        estimate=scale * best_atom,
        ci_low=scale * max(best_atom - 2.58 * best_atom_sigma, 0.0),
        ci_high=scale * min(best_atom + 2.58 * best_atom_sigma, 1.0),
        sigma=scale * best_atom_sigma,
        note=f"max observed atom proxy ({atom_exact} exact, {atom_mc} MC); "
        f"pooled zero-dot hits {sum(zero_dots)}/{trials}",
    )
    combined = sqrt(
        p_singular.sigma**2 + term1.sigma**2 + term2.sigma**2 + term3.sigma**2
    )
    ok = p_singular.estimate <= term1.estimate + term2.estimate + term3.estimate + 3 * combined
    return DecompositionReport(
        model=model, n=n, density=density, t=t, predicate=pred.describe(),
        trials=trials, p_singular=p_singular, term_small_support=term1,
        term_off_property=term2, term_atom=term3, combined_sigma=combined,
        inequality_ok=ok, degenerate_t=t > n, kernel_budget_hits=sum(budget_hits),
        atom_exact_count=atom_exact, atom_mc_count=atom_mc,
    )


# ---------------------------------------------------------------------------
# Complement agreement


@dataclass(frozen=True)
class ComplementReport:
    trials: int
    agreements: int
    disagreements: int


def _complement_trial(n: int, d: int, trial_index: int, trial_seed: int) -> bool:
    """Whether Q and its complement get the same verdict; the complement
    is certified under its own prime seed."""
    q, cert_q = _certify_sample("combinatorial", n, d, trial_seed)
    prime_seed = derive_seed(trial_seed, COMPLEMENT_PRIME_SALT)
    return cert_q.verdict == is_singular_exact(q.complement(), prime_seed=prime_seed).verdict


def verify_complement(n: int, d: int, trials: int, seed: int) -> ComplementReport:
    """Certify Q and its complement exactly and count verdict agreement,
    running ``_complement_trial`` through ``_run_trials`` on one cell
    seeded ``seed``.

    Requires an integer 0 < d < n (the complement transform preserves
    constant row sums only away from the degenerate densities)."""
    spec = SampleSpec("combinatorial", n, seed, d)
    if not 0 < d < n:
        raise InfeasibleDensity("needs 0 < d < n")
    agreements = sum(_run_trials(_complement_trial, [((spec.n, spec.density), spec.seed)], trials))
    return ComplementReport(trials, agreements, trials - agreements)
