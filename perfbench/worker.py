"""One benchmark process: set up a workload, optionally run one timed pass, judge it.

    python3 perfbench/worker.py --workload NAME --seed N --index K --work DIR
                                --spawned NS [--setup-only] [--trace]

``--spawned`` is the parent's CLOCK_MONOTONIC reading (ns) just before it
started this process, so set-up time includes interpreter start and imports.
Prints one JSON object on its last line of output.
"""

import os

# BLAS reads its thread count once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="pass number within the run")
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()
    from workloads import WORKLOADS

    work = Path(args.work)
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.index, work)
    result = {"setup_s": (time.monotonic_ns() - args.spawned) / 1e9}
    if not args.setup_only:
        start = time.perf_counter()
        outcome = workload.run_pass()
        result["wall_s"] = time.perf_counter() - start
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["completed"] = workload.completed(outcome)
        verdicts = workload.check(outcome)
        result["attempted"] = len(verdicts)
        result["failed"] = sum(v.failed for v in verdicts)
        result["wrong"] = sum(v.wrong for v in verdicts)
        result["failures"] = [f"{v.op}: {v.reason}" for v in verdicts if v.failed]
        result["latency_s"] = workload.latencies(outcome)
        result["reports"] = workload.reports()
        result["numpy"] = sys.modules["numpy"].__version__
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write(work / "spans.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
