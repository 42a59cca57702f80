"""The benchmark's workloads: fixed, golden-checked pools of singmat runs.

Each workload is a pool of chunks.  A sweep chunk is one
``harness.run_sweep`` call per model at n = 300 and the workload's c;
a small-n chunk is a run of steps, each one ``verify_lemma21`` trial
followed by one ``verify_complement`` trial.  Chunk seeds come from
``derive_seed`` and are fixed, so every output can be checked against
``golden.json``.  A run covers whole passes over the pool, so every run
of a workload measures the same mix of trials (the sweep-critical tail
included); ``--seed`` sets the order of the chunks within a pass.

Importing this module imports singmat, with its CLI, from the checkout's
``src`` directory.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import sys
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import singmat  # noqa: E402
import singmat.cli  # noqa: E402,F401  (part of the measured set-up)
from singmat import harness  # noqa: E402
from singmat.rng import derive_seed  # noqa: E402
from singmat.structure import PropertyPredicate  # noqa: E402

from tracing import CLOCK, Tracer  # noqa: E402

if Path(singmat.__file__).resolve().parent != SRC / "singmat":
    raise ImportError(f"singmat imported from {singmat.__file__}, not from {SRC}")

N = 300
MODELS = ("bernoulli", "combinatorial")
POOL_SEED = 201101291
# The latency p90 needs at least ten samples above it.
MIN_LATENCIES = 100

SMALL_N, SMALL_T, SMALL_SUPPORT = 50, 10, 10
COMPLEMENT_N, COMPLEMENT_D = 16, 4


@dataclass(frozen=True)
class Workload:
    name: str
    chunks: int  # chunks in one pass over the pool
    chunk_size: int  # trials per model (sweeps) or steps (small-n) per chunk
    c: Fraction | None = None  # sweeps only

    @property
    def is_sweep(self) -> bool:
        return self.c is not None

    def chunk_seed(self, chunk: int) -> int:
        return derive_seed(POOL_SEED ^ zlib.crc32(self.name.encode()), chunk)

    def pass_order(self, seed: int) -> list[int]:
        start = derive_seed(seed, 0) % self.chunks
        return [(start + k) % self.chunks for k in range(self.chunks)]

    def latencies_per_pass(self) -> int:
        per_chunk = self.chunk_size * (len(MODELS) if self.is_sweep else 1)
        return self.chunks * per_chunk


# Pools sized so that one pass takes about 18 s of CPU time on a 2-vCPU
# x86-64 virtual machine, so that a 12 s run covers exactly one pass even
# when the machine runs fast; sweep-critical needs about 26 s for the 100
# latencies of its p90.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-sparse", chunks=24, chunk_size=10, c=Fraction(1, 2)),
        Workload("sweep-critical", chunks=10, chunk_size=5, c=Fraction(1)),
        Workload("sweep-dense", chunks=7, chunk_size=10, c=Fraction(2)),
        Workload("small-n", chunks=20, chunk_size=50),
    )
}


@dataclass
class Chunk:
    """What one chunk did: timed calls, latencies and checkable outputs."""

    calls: list[tuple[str, float, int]] = field(default_factory=list)  # (model, seconds, trials)
    latencies: list[float] = field(default_factory=list)
    outputs: dict[str, dict] = field(default_factory=dict)


def _sweep_outputs(output: Path) -> dict:
    """Aggregate CSV bytes and per-trial verdict/gf2_rank/had_* columns."""
    with output.with_suffix(".trials.csv").open(newline="", encoding="utf-8") as fh:
        tokens = [
            f"{r['verdict'][0]}:{r['gf2_rank']}:{r['had_zero_line']}:{r['had_duplicate_line']}"
            for r in csv.DictReader(fh)
        ]
    return {"aggregate": output.read_text(encoding="utf-8"), "trials": tokens}


def run_sweep_chunk(w: Workload, chunk: int, out_dir: Path, trials: int | None = None) -> Chunk:
    result = Chunk()
    for model in MODELS:
        cfg = harness.SweepConfig(
            model=model, n_grid=(N,), c_grid=(w.c,), trials_per_cell=trials or w.chunk_size,
            master_seed=w.chunk_seed(chunk), output=str(out_dir / f"{model}.csv"), jobs=1,
        )
        with Tracer({"harness.run_trial"}) as timer:
            start = CLOCK()
            harness.run_sweep(cfg)
            elapsed = CLOCK() - start
        result.calls.append((model, elapsed, cfg.trials_per_cell))
        result.latencies += timer.durations("harness.run_trial")
        result.outputs[model] = _sweep_outputs(Path(cfg.output))
    return result


def _decomposition_token(report, fields: list[str]) -> str:
    text = repr(tuple(getattr(report, f) for f in fields))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def decomposition_fields() -> list[str]:
    return [f.name for f in dataclasses.fields(harness.DecompositionReport)]


def run_small_chunk(w: Workload, chunk: int, fields: list[str], steps: int | None = None) -> Chunk:
    density = harness.bernoulli_density(Fraction(1), SMALL_N)
    pred = PropertyPredicate.support_at_least(SMALL_SUPPORT)
    seed = w.chunk_seed(chunk)
    result = Chunk()
    lemma, comp = [], []
    for step in range(steps or w.chunk_size):
        start = CLOCK()
        report = harness.verify_lemma21(
            "bernoulli", SMALL_N, density, SMALL_T, pred, trials=1, seed=derive_seed(seed, 2 * step)
        )
        middle = CLOCK()
        c = harness.verify_complement(COMPLEMENT_N, COMPLEMENT_D, 1, derive_seed(seed, 2 * step + 1))
        end = CLOCK()
        result.calls += [("bernoulli", middle - start, 1), ("combinatorial", end - middle, 1)]
        result.latencies.append(end - start)
        lemma.append(_decomposition_token(report, fields))
        comp.append(f"{c.trials}:{c.agreements}:{c.disagreements}")
    result.outputs = {"lemma21": {"trials": lemma}, "complement": {"trials": comp}}
    return result


class Runner:
    """Runs a workload's chunks in one process and checks them."""

    def __init__(self, w: Workload, out_dir: Path, golden: dict):
        self.w = w
        self.out_dir = out_dir
        self.golden = golden
        self.fields = golden["decomposition_fields"]

    def warm_up(self) -> None:
        """Untimed first call: fills lazy caches before timing starts."""
        if self.w.is_sweep:
            run_sweep_chunk(self.w, 0, self.out_dir, trials=1)
        else:
            run_small_chunk(self.w, 0, self.fields, steps=1)

    def run(self, chunk: int) -> Chunk:
        if self.w.is_sweep:
            return run_sweep_chunk(self.w, chunk, self.out_dir)
        return run_small_chunk(self.w, chunk, self.fields)

    def expected(self, chunk: int) -> dict:
        return self.golden["workloads"][self.w.name]["chunks"][chunk]


def count_errors(got: dict, want: dict) -> tuple[int, int]:
    """(trials attempted, trials whose output differs from golden)."""
    attempted = errors = 0
    for label, exp in want.items():
        exp_tokens = exp["trials"].split()
        out = got.get(label, {})
        tokens = out.get("trials", [])
        attempted += len(exp_tokens)
        if out.get("aggregate") != exp.get("aggregate"):
            errors += len(exp_tokens)
            continue
        errors += sum(a != b for a, b in zip(tokens, exp_tokens))
        errors += max(len(exp_tokens) - len(tokens), 0)
    return attempted, errors


def load_golden(w: Workload) -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = golden["workloads"].get(w.name)
    if recorded is None or recorded["params"] != repr(w):
        raise SystemExit(f"golden.json has no outputs for {w!r}; run record_golden.py")
    return golden


@dataclass
class Tally:
    """Timed calls, latencies and golden-check counts over many chunks."""

    seconds: float = 0.0
    by_model: dict = field(default_factory=lambda: {m: [0.0, 0] for m in MODELS})
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, chunk: Chunk, expected: dict) -> None:
        for model, seconds, trials in chunk.calls:
            self.seconds += seconds
            self.by_model[model][0] += seconds
            self.by_model[model][1] += trials
        self.latencies += chunk.latencies
        attempted, errors = count_errors(chunk.outputs, expected)
        self.attempted += attempted
        self.failed += errors

    def add_crash(self, expected: dict) -> None:
        attempted, _ = count_errors({}, expected)
        self.attempted += attempted
        self.failed += attempted

    @property
    def trials(self) -> int:
        return sum(t for _, t in self.by_model.values())

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.seconds
