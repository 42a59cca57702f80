"""Monte Carlo experiment engine.

Threshold sweeps over (n, c) grids for both models, the three-term
decomposition check for the singularity probability, and exact
complement agreement.  The sub-threshold autopsy is the sweep itself:
each cell's ``explained_fraction`` is the share of its singular trials
that have a zero or duplicate line.  All three sample and certify a
trial's matrix in one step, ``_certify_sample``.  Every trial is a pure
function of a derived seed, so sweeps are deterministic,
parallelizable, and replayable trial by trial: ``run_sweep`` maps
``run_trial`` over the grid's trials and aggregates each cell from its
own slice of the records.

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
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from pathlib import Path
from typing import Iterable, Sequence

from .bounds import ATOM_BERNOULLI_MAX_LEN, ATOM_COMB_BUDGET, max_atom_bernoulli, max_atom_combinatorial
from .certify import SingularityCertificate, is_singular_exact
from .errors import InfeasibleDensity, KernelLiftFailed, KernelTooLarge
from .exactla import exact_dot, kernel_vector_crt
from .matrices import BitMatrix
from .models import SampleSpec, sample, sample_rows
from .rng import derive_seed, derive_seeds
from .stats import binomial_sigma, clopper_pearson
from .structure import PropertyPredicate, enumerate_gf2_kernel_min_support, eval_predicate

log = logging.getLogger(__name__)

PRIME_SEED_SALT = 0xC5
FRESH_ROW_SALT = 0xF7
ATOM_MC_INNER = 256
LN_DIGITS = 30


def ln_rational(n: int) -> Fraction:
    """log(n) as the exact rational value of its correctly-rounded
    30-digit decimal expansion (platform independent)."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
# Threshold sweep; its explained_fraction is the sub-threshold autopsy


@dataclass(frozen=True)
class SweepConfig:
    model: str  # "bernoulli" | "combinatorial"
    n_grid: tuple[int, ...]
    c_grid: tuple[Fraction, ...]
    trials_per_cell: int
    master_seed: int
    output: str
    svg: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.model not in ("bernoulli", "combinatorial"):
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("trials_per_cell", "master_seed", "jobs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if not isinstance(self.output, str):
            raise ValueError(f"output must be a path, not {self.output!r}")
        if self.svg is not None and not isinstance(self.svg, str):
            raise ValueError(f"svg must be a path or null, not {self.svg!r}")
        if not self.n_grid or not self.c_grid:
            raise ValueError("n_grid and c_grid must be nonempty")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:  # derive_seed reduces it mod 2**64
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        for n in self.n_grid:
            if isinstance(n, bool) or not isinstance(n, numbers.Real) or n % 1 != 0:
                raise ValueError(f"n_grid holds a non-integral size: {n!r}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "c_grid", tuple(Fraction(c) for c in self.c_grid))
        for name, grid in (("n_grid", self.n_grid), ("c_grid", self.c_grid)):
            if len(set(grid)) < len(grid):  # a cell would be run twice
                raise ValueError(f"{name} repeats a value: {', '.join(map(str, grid))}")


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


def _make_spec(model: str, n: int, density, seed: int) -> SampleSpec:
    if model == "bernoulli":
        return SampleSpec.bernoulli(n, density, seed)
    return SampleSpec.combinatorial(n, int(density), seed)


def _certify_sample(
    model: str, n: int, density, trial_seed: int
) -> tuple[BitMatrix, SingularityCertificate]:
    """One trial's matrix and its certificate, under the prime seed the
    trial seed derives: the sample-and-certify step of every experiment."""
    matrix = sample(_make_spec(model, n, density, trial_seed))
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
    """Run the grid, write the aggregate CSV (and optional SVG plus a
    companion .trials.csv), and return both tables.

    With ``jobs > 1`` the trials are mapped over a process pool, whose
    module is imported only then; a serial sweep runs them in this
    process and loads no multiprocessing machinery.  A cell's interval
    loads scipy only when its count is interior (see ``stats``)."""
    cells = [(n, c) for n in cfg.n_grid for c in cfg.c_grid]
    t = cfg.trials_per_cell
    args = []
    for k, (n, c) in enumerate(cells):
        density = _cell_density(cfg.model, c, n)
        cell_seed = derive_seed(cfg.master_seed, k)
        args += [(cfg.model, n, c, density, i, derive_seed(cell_seed, i)) for i in range(t)]
    columns = list(zip(*args))
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(run_trial, *columns, chunksize=max(1, len(args) // (cfg.jobs * 4))))
    else:
        records = list(map(run_trial, *columns))

    aggregates = []
    for k, (n, c) in enumerate(cells):
        cell = records[k * t : (k + 1) * t]
        singular = [r for r in cell if r.verdict == "singular"]
        lo, hi = clopper_pearson(len(singular), t)
        explained = None if not singular else sum(
            r.had_zero_line or r.had_duplicate_line for r in singular) / len(singular)
        aggregates.append(CellAggregate(
            model=cfg.model, n=n, c=c, density=cell[0].density, trials=t,
            singular_count=len(singular), fraction=len(singular) / t, ci_low=lo, ci_high=hi,
            explained_fraction=explained, master_seed=cfg.master_seed,
        ))

    _write_csv(Path(cfg.output), AGGREGATE_HEADER, (
        [
            a.model, a.n, str(a.c), _density_str(a.density), a.trials, a.singular_count,
            repr(a.fraction), repr(a.ci_low), repr(a.ci_high),
            "" if a.explained_fraction is None else repr(a.explained_fraction),
            a.master_seed,
        ]
        for a in aggregates
    ))
    _write_csv(Path(cfg.output).with_suffix(".trials.csv"), TRIALS_HEADER, (
        [
            r.model, r.n, str(r.c), _density_str(r.density), r.trial_index,
            r.derived_seed, r.verdict, r.gf2_rank, int(r.had_zero_line),
            int(r.had_duplicate_line), repr(r.elapsed),
        ]
        for r in records
    ))
    if cfg.svg:
        _write_svg(aggregates, Path(cfg.svg))
    return aggregates, records


def _density_str(density) -> str:
    # The exact rational p is reconstructible from (model, c, n); the CSV
    # shows the float form for readability.
    if isinstance(density, Fraction):
        return repr(float(density))
    return str(density)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


AGGREGATE_HEADER = [
    "model", "n", "c", "density", "trials", "singular_count",
    "fraction", "ci_low", "ci_high", "explained_fraction", "master_seed",
]


TRIALS_HEADER = [
    "model", "n", "c", "density", "trial_index", "derived_seed",
    "verdict", "gf2_rank", "had_zero_line", "had_duplicate_line", "elapsed",
]


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _atomic_write_text(path, buf.getvalue())


def _write_svg(aggregates: Sequence[CellAggregate], path: Path) -> None:
    """Minimal self-contained line plot: singular fraction vs c, one
    polyline per n."""
    width, height, margin = 480, 320, 48
    cs = sorted({float(a.c) for a in aggregates})
    ns = sorted({a.n for a in aggregates})
    c_lo, c_hi = min(cs), max(cs)
    span = (c_hi - c_lo) or 1.0

    def sx(c: float) -> float:
        return margin + (width - 2 * margin) * (c - c_lo) / span

    def sy(f: float) -> float:
        return height - margin - (height - 2 * margin) * f

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">c</text>',
        f'<text x="12" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {height // 2})">singular fraction</text>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for k, n in enumerate(ns):
        pts = sorted((float(a.c), a.fraction) for a in aggregates if a.n == n)
        coords = " ".join(f"{sx(c):.2f},{sy(f):.2f}" for c, f in pts)
        color = palette[k % len(palette)]
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * k + 10}" font-size="11" '
            f'fill="{color}">n={n}</text>'
        )
    for c in cs:
        parts.append(
            f'<text x="{sx(c):.2f}" y="{height - margin + 14}" font-size="10" '
            f'text-anchor="middle">{c:g}</text>'
        )
    for f in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{margin - 6}" y="{sy(f):.2f}" font-size="10" text-anchor="end">{f:g}</text>'
        )
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")


def summary_table(aggregates: Sequence[CellAggregate]) -> str:
    header = (
        f"{'model':<15}{'n':>6}{'c':>8}{'density':>22}{'trials':>8}"
        f"{'singular':>10}{'fraction':>10}{'99% CI':>18}"
    )
    lines = [header, "-" * len(header)]
    for a in aggregates:
        ci = f"[{a.ci_low:.3f}, {a.ci_high:.3f}]"
        lines.append(
            f"{a.model:<15}{a.n:>6}{str(a.c):>8}{_density_str(a.density):>22}"
            f"{a.trials:>8}{a.singular_count:>10}{a.fraction:>10.3f}{ci:>18}"
        )
    return "\n".join(lines)


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

    Exact maximal atom when the enumeration budgets allow; otherwise a
    Monte Carlo estimate of Pr(x . row = 0) over fresh rows.
    """
    from math import comb

    support = [e for e in x if e != 0]
    if model == "bernoulli" and len(support) <= ATOM_BERNOULLI_MAX_LEN:
        atom = max_atom_bernoulli(support, density)
        return float(atom.max_prob), 0.0, True
    if model == "combinatorial" and comb(len(x), int(density)) <= ATOM_COMB_BUDGET:
        atom = max_atom_combinatorial(x, int(density))
        return float(atom.max_prob), 0.0, True
    # Fresh row k is row 0 of sample() of the child spec seeded derive_seed(seed, k).
    row_seeds = derive_seeds(derive_seeds(seed, ATOM_MC_INNER), 1)[:, 0]
    rows = sample_rows(_make_spec(model, len(x), density, seed), row_seeds)
    hits = sum(exact_dot(x, row) == 0 for row in rows)
    return hits / ATOM_MC_INNER, binomial_sigma(max(hits, 1), ATOM_MC_INNER), False


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

    Per trial, one n x n matrix is sampled; its first n-1 rows provide
    the canonical kernel vector (tested against the property), its last
    row is the fresh row for the atom indicator, and the full matrix is
    certified for the left-hand side.  Events for the small-support term
    use the GF(2) minimum-support screen of the transpose.  A screen
    with support below t counts as a hit outright when its kernel spans
    more than one dimension (a conservative over-estimate); only a
    one-dimensional GF(2) left kernel is lifted to its integer vector,
    whose support decides the event.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scale = n / t
    singular_hits = 0
    ev1_hits = 0
    ev2_hits = 0
    atom_zero_hits = 0
    in_property_trials = 0
    kernel_budget_hits = 0
    atom_exact = 0
    atom_mc = 0
    best_atom = 0.0
    best_atom_sigma = 0.0

    for i in range(trials):
        trial_seed = derive_seed(seed, i)
        matrix, cert = _certify_sample(model, n, density, trial_seed)
        singular = cert.is_singular
        singular_hits += singular

        # Term (1): some nonzero rational left-kernel vector with support < t.
        if singular:
            mt = matrix.transpose()
            try:
                screen = enumerate_gf2_kernel_min_support(mt)
                if screen.trivial or screen.min_support >= t:
                    pass  # a small-support rational vector would show up mod 2
                elif screen.kernel_dim > 1:
                    ev1_hits += 1  # cannot rule out a lighter combination
                elif sum(1 for e in _kernel_vector(mt) if e) < t:
                    ev1_hits += 1
            except KernelTooLarge:
                kernel_budget_hits += 1
                ev1_hits += 1  # conservative

        # Terms (2) and (3): kernel vector of the first n-1 rows vs the last.
        x = _kernel_vector(BitMatrix(n - 1, n, matrix.rows[:-1]))
        if eval_predicate(pred, x):
            in_property_trials += 1
            if exact_dot(x, matrix.rows[n - 1]) == 0:
                atom_zero_hits += 1
            value, sigma_a, exact = _atom_proxy(
                model, density, x, derive_seed(trial_seed, FRESH_ROW_SALT)
            )
            atom_exact += exact
            atom_mc += not exact
            if value > best_atom:
                best_atom, best_atom_sigma = value, sigma_a
        else:
            ev2_hits += 1

    p_singular = _binomial_term(singular_hits, trials)
    term1 = _binomial_term(ev1_hits, trials, note="small-support left kernel")
    term2 = _binomial_term(ev2_hits, trials, scale=scale, note="kernel vector off the property")
    term3 = TermEstimate(
        hits=None, trials=in_property_trials, scale=scale,
        estimate=scale * best_atom,
        ci_low=scale * max(best_atom - 2.58 * best_atom_sigma, 0.0),
        ci_high=scale * min(best_atom + 2.58 * best_atom_sigma, 1.0),
        sigma=scale * best_atom_sigma,
        note=f"max observed atom proxy ({atom_exact} exact, {atom_mc} MC); "
        f"pooled zero-dot hits {atom_zero_hits}/{trials}",
    )
    combined = sqrt(
        p_singular.sigma**2 + term1.sigma**2 + term2.sigma**2 + term3.sigma**2
    )
    ok = p_singular.estimate <= term1.estimate + term2.estimate + term3.estimate + 3 * combined
    return DecompositionReport(
        model=model, n=n, density=density, t=t, predicate=pred.describe(),
        trials=trials, p_singular=p_singular, term_small_support=term1,
        term_off_property=term2, term_atom=term3, combined_sigma=combined,
        inequality_ok=ok, degenerate_t=t > n, kernel_budget_hits=kernel_budget_hits,
        atom_exact_count=atom_exact, atom_mc_count=atom_mc,
    )


# ---------------------------------------------------------------------------
# Complement agreement


@dataclass(frozen=True)
class ComplementReport:
    trials: int
    agreements: int
    disagreements: int


def verify_complement(n: int, d: int, trials: int, seed: int) -> ComplementReport:
    """Certify Q and its complement exactly and count verdict agreement.

    Requires 0 < d < n (the complement transform preserves constant row
    sums only away from the degenerate densities)."""
    if not 0 < d < n:
        raise InfeasibleDensity("needs 0 < d < n")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    agreements = disagreements = 0
    for i in range(trials):
        trial_seed = derive_seed(seed, i)
        q, cert_q = _certify_sample("combinatorial", n, d, trial_seed)
        cert_c = is_singular_exact(q.complement(), prime_seed=derive_seed(trial_seed, 2))
        if cert_q.verdict == cert_c.verdict:
            agreements += 1
        else:
            disagreements += 1
    return ComplementReport(trials, agreements, disagreements)

