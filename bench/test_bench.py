"""Self-tests of the benchmark itself (not part of the tier-1 suite).

Run with:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads
from tracing import CERT, DET_MOD, KEPT, LIFT, NAME, PARENT, SPAN_NAMES, decided_by, self_times

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_sparse(tmp_path_factory):
    w = workloads.WORKLOADS["sweep-sparse"]
    runner = workloads.Runner(w, tmp_path_factory.mktemp("sparse"), workloads.load_golden(w))
    return worker.traced_run(runner, w.pass_order(0), seconds=1.0)


def test_traced_run_matches_golden_and_verifies(traced_sparse):
    assert traced_sparse.traced.attempted > 0
    assert traced_sparse.traced.failed == 0 and traced_sparse.untraced.failed == 0
    assert traced_sparse.rejected == 0


@pytest.mark.parametrize("name", ["sweep-critical", "small-n"])
def test_tracing_is_transparent(name, tmp_path):
    w = workloads.WORKLOADS[name]
    runner = workloads.Runner(w, tmp_path, workloads.load_golden(w))
    # One chunk of sweep-critical that reaches the kernel lift.
    chunk = 3 if w.is_sweep else 0
    run = worker.traced_run(runner, [chunk], seconds=0.0)
    assert run.traced.failed == 0 and run.rejected == 0
    if w.is_sweep:
        assert run.metrics[f"{LIFT}.calls"] > 0


def test_aliases_are_traced(traced_sparse):
    """certify calls det_mod through its own alias: every structurally
    decided sparse trial shows the three wasted screening primes."""
    spans = traced_sparse.tracer.spans
    det_mod_calls = {}
    for s in spans:
        if s[NAME] == DET_MOD:
            cert = s[PARENT]
            while cert >= 0 and spans[cert][NAME] != CERT:
                cert = spans[cert][PARENT]
            det_mod_calls[cert] = det_mod_calls.get(cert, 0) + 1
    structural = [
        i for i, s in enumerate(spans)
        if s[NAME] == CERT and decided_by(s[KEPT][1]) == "structural"
    ]
    assert structural
    assert all(det_mod_calls.get(i, 0) >= 3 for i in structural)


def test_self_times_cover_the_traced_wall_time(traced_sparse):
    covered = sum(self_times(traced_sparse.tracer.spans))
    wall = traced_sparse.traced.seconds
    assert abs(covered - wall) <= 0.05 * wall


def test_metric_names_match_benchmark_json(traced_sparse):
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(traced_sparse.metrics) == per_layer
    assert {f"{n}.calls" for n in SPAN_NAMES} <= per_layer
    tally = workloads.Tally()
    tally.add(workloads.Chunk(calls=[(m, 1.0, 1) for m in workloads.MODELS], latencies=[0.1] * 10), {})
    end_to_end = set(worker.end_to_end(tally)) | {"setup_s"}
    assert end_to_end == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert {m["name"] for m in BENCHMARK["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOADS)


def test_every_pass_has_enough_latencies_for_p90():
    for w in workloads.WORKLOADS.values():
        assert w.latencies_per_pass() >= workloads.MIN_LATENCIES


def test_refuses_to_run_optimized():
    proc = subprocess.run(
        [sys.executable, "-O", str(HERE / "run.py"), "--workload", "small-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
