"""One fresh benchmark process: set up, measure one workload, check it.

Usage:
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --setup-only

Set-up is the time to import singmat (with its CLI) and finish the
untimed warm-up call.  The last line of standard output is a JSON object
with the set-up time and, unless ``--setup-only``, the run's counts and
metrics.  ``bench/run.py`` is the entry point that combines several of
these processes into one result.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402


def measure(runner, order: list[int], seconds: float, tally) -> None:
    """Run whole passes over ``order`` until ``seconds`` of timed calls.

    Stopping only at the end of a pass makes every run cover the same
    trials.  A chunk that raises counts all its trials as failed.
    """
    while True:
        for chunk in order:
            try:
                tally.add(runner.run(chunk), runner.expected(chunk))
            except Exception:
                traceback.print_exc()
                tally.add_crash(runner.expected(chunk))
        if tally.seconds >= seconds or tally.failed == tally.attempted:
            return


def end_to_end(tally) -> dict[str, float]:
    lat_ms = [1e3 * x for x in tally.latencies]
    out = {"trials_per_s": tally.trials_per_s}
    for model, (seconds, trials) in tally.by_model.items():
        out[f"{model}.trials_per_s"] = trials / seconds
    out["trial_p50_ms"] = statistics.median(lat_ms)
    out["trial_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def src_lines(root) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((root / "singmat").rglob("*.py")))


class TracedRun(NamedTuple):
    traced: object  # workloads.Tally
    untraced: object  # workloads.Tally
    rejected: int  # certificates the independent check rejected
    metrics: dict[str, float]
    tracer: object  # tracing.Tracer


def traced_run(runner, order: list[int], seconds: float) -> TracedRun:
    """Run each chunk untraced and then traced, for about ``seconds``.

    Alternating chunk by chunk keeps drift in machine speed out of the
    tracing overhead.
    """
    import workloads
    from tracing import Tracer, layer_metrics
    from singmat.certify import verify_certificate

    untraced, traced, tracer = workloads.Tally(), workloads.Tally(), Tracer()
    for chunk in itertools.cycle(order):
        measure(runner, [chunk], 0.0, untraced)
        with tracer:
            measure(runner, [chunk], 0.0, traced)
        if untraced.seconds + traced.seconds >= seconds or traced.failed == traced.attempted:
            break
    rejected = sum(not verify_certificate(m, cert) for m, cert in tracer.certificates())
    if rejected:
        print(f"independent verification rejected {rejected} certificates", file=sys.stderr)
    metrics = layer_metrics(tracer.spans, traced.trials)
    metrics["trace_overhead"] = traced.trials_per_s / untraced.trials_per_s
    metrics["code.src_lines"] = src_lines(workloads.SRC)
    return TracedRun(traced, untraced, rejected, metrics, tracer)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # singmat's own certificate check is an assert; -O would measure
        # a program that verifies nothing.
        print("refusing to run under python -O", file=sys.stderr)
        return 2

    import workloads

    w = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden(w)
    with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".bench-tmp-") as tmp:
        runner = workloads.Runner(w, workloads.Path(tmp), golden)
        runner.warm_up()
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        order = w.pass_order(args.seed)
        if args.trace:
            run = traced_run(runner, order, args.seconds)
            metrics = run.metrics
            attempted = run.traced.attempted + run.untraced.attempted
            failed = run.traced.failed + run.untraced.failed
            correct = failed == 0 and run.rejected == 0
        else:
            tally = workloads.Tally()
            measure(runner, order, args.seconds, tally)
            metrics = end_to_end(tally)
            attempted, failed = tally.attempted, tally.failed
            correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "setup_s": setup_s, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
