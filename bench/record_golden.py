"""Record the golden outputs every benchmark run is checked against.

Usage:
    python3 bench/record_golden.py [WORKLOAD ...]

Runs one pass over each named workload's pool (all by default) and
rewrites those workloads' entries in ``bench/golden.json``.  Record only
from a commit whose outputs are known to be right: every later run
counts a difference from these values as an error.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main(names: list[str]) -> int:
    golden = (
        json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))
        if workloads.GOLDEN.exists()
        else {"workloads": {}}
    )
    golden["decomposition_fields"] = workloads.decomposition_fields()
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        chunks = []
        with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".bench-tmp-") as tmp:
            runner = workloads.Runner(w, Path(tmp), golden)
            for chunk in range(w.chunks):
                outputs = runner.run(chunk).outputs
                chunks.append({
                    label: {**out, "trials": " ".join(out["trials"])}
                    for label, out in outputs.items()
                })
        golden["workloads"][name] = {"params": repr(w), "chunks": chunks}
        print(f"recorded {name}: {w.chunks} chunks", file=sys.stderr)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
