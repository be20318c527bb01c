"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (default: all), makes two traced runs with the same seed.
Each run must be correct, which includes its plain and traced passes writing
byte-identical report.json files, and the two runs must give identical
per-layer counts (.calls, .distinct, .rows, .nodes, .cells, .gap_cells,
.ambiguous).  Exits 1 and names the differences otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = (".calls", ".distinct", ".rows", ".nodes", ".cells", ".gap_cells", ".ambiguous")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="two traced runs must agree exactly")
    parser.add_argument("workloads", nargs="*", default=["shipped-2d", "weighted-2d", "weighted-3d"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    for workload in args.workloads:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for k, run in enumerate((first, second)):
            if not run["correct"]:
                problems.append(f"{workload}: run {k} not correct (reports differ or a value was wrong)")
        counts = [name for name in first["metrics"] if name.endswith(COUNTS)]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} != {b}")
        print(f"{workload}: {len(counts)} counts compared, reports compared in each run")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
