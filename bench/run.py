"""The singmat benchmark.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-sparse, sweep-critical, sweep-dense, small-n (see
bench/README.md).  Each run measures in a fresh worker process
(bench/worker.py), one process at a time, with singmat imported from
``src``.  With ``--trace 0`` it reports the end-to-end metrics, and
set-up time as the median over this process and two set-up-only
processes; with ``--trace 1`` it reports the per-layer metrics of a
traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts
trials whose output differs from bench/golden.json or that did not
complete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep-sparse", "sweep-critical", "sweep-dense", "small-n")
SETUP_PROBES = 2

UNITS = {
    "trials_per_s": "1/s",
    "bernoulli.trials_per_s": "1/s",
    "combinatorial.trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certify.primes_per_cert": "count",
    "certify.screen_waste": "ratio",
    "certify.verify_share": "ratio",
    "trace_overhead": "ratio",
    "code.src_lines": "lines",
}


def unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms/trial"
    return UNITS.get(name, "count/trial")


def worker(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion and parse its result line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, check=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="singmat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: singmat's certificate check is an assert",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "singmat" / "__init__.py").is_file():
        print(f"no singmat source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload]
    setup = []
    if not args.trace:
        setup = [worker([*common, "--setup-only"], 60)["setup_s"] for _ in range(SETUP_PROBES)]
    result = worker(
        [*common, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        150,
    )
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup + [result["setup_s"]])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
