"""wulffkit benchmark: seeded workloads through the public API, checked by an oracle.

    python3 perfbench/run.py --workload {shipped-2d,weighted-2d,weighted-3d}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Every pass and every set-up probe is a fresh
single-threaded worker process (BLAS pinned to one thread), started one at a
time, so a pass is what a user of `wulffkit all` waits for.

--trace 0 starts a few set-up probes, then as many passes as fit in S
seconds at the workload's nominal pass time (at least one; pass k of a
generated workload gets its own scene from the seed and k), and reports the
end-to-end metrics: medians over the passes that ran to completion (all
passes if none did) and over all set-ups.  --trace 1
runs pass 0 plain and traced, reports the per-layer metrics of the traced
one, and requires both to write the same report.json bytes.  The
last line of output is a JSON object with correct, attempted, failed and
metrics; the lines before it give the sample counts, the query latencies,
fail_frac and the environment.  Exits non-zero, printing no result, when a
worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
# nominal seconds per pass on a 2-CPU x86 VM; fixes the pass count for a run length
PASS_SECONDS = {"shipped-2d": 25.0, "weighted-2d": 10.0, "weighted-3d": 18.0}
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = time.monotonic()
        self.count = 0

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, index=0, setup_only=False, trace=False):
        self.count += 1
        work = self.work / f"w{self.count}"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--index", str(index),
            "--work", str(work),
        ]
        cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
        env = {**os.environ, **THREADS}
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(
                cmd + ["--spawned", str(spawned)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        result["work"] = work
        return result


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def measure(runner, seconds):
    """Set-up probes, then the passes that fit in ``seconds`` at the nominal pass time."""
    setups = [runner.spawn(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    for index in range(max(1, int(seconds // PASS_SECONDS[runner.workload]))):
        passes.append(runner.spawn(index))
        setups.append(passes[-1]["setup_s"])
    return setups, passes


def summarize(passes, same_inputs):
    """Totals over passes; correct unless a value was wrong or same inputs gave other bytes."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    deterministic = not same_inputs or all(p["reports"] == passes[0]["reports"] for p in passes)
    correct = deterministic and not any(p["wrong"] for p in passes)
    lines = [f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)"]
    if not deterministic:
        lines.append("report.json differs between passes of one seed")
    failures = [f for p in passes for f in p["failures"]]
    lines += [f"failed: {f}" for f in failures[:20]]
    if len(failures) > 20:
        lines.append(f"failed: ... {len(failures) - 20} more")
    return correct, attempted, failed, lines


def environment(numpy_version):
    threads = " ".join(f"{k}={v}" for k, v in THREADS.items())
    return f"nproc {os.cpu_count()}, {threads}, numpy {numpy_version}, python {sys.version.split()[0]}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            plain = runner.spawn()
            traced = runner.spawn(trace=True)
            passes = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
            shutil.copyfile(traced["work"] / "spans.json", OUT / f"spans-{args.workload}.json")
            lines = [f"per-layer metrics from 1 traced pass; plain pass {plain['wall_s']:.3f} s"]
            wanted = spec["per_layer"]
        else:
            setups, passes = measure(runner, args.seconds)
            latency = [s * 1e3 for p in passes for s in p["latency_s"]]
            # A pass whose `all` raised stopped early: its failures are counted,
            # but its time and memory would understate a pass.
            completed = [p for p in passes if p["completed"]]
            timed = completed or passes
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p["wall_s"] for p in timed),
                "peak_rss_mb": statistics.median(p["rss_mb"] for p in timed),
            }
            of = f"{len(timed)} passes, {len(completed)} of {len(passes)} completed"
            lines = [
                f"setup_s {values['setup_s']:.4f} s (median of {len(setups)} set-ups)",
                f"wall_s {values['wall_s']:.4f} s (median of {of})",
                f"peak_rss_mb {values['peak_rss_mb']:.1f} MB (median of {of})",
            ]
            if latency:
                lines += [
                    f"query_p50_ms {quantile(latency, 0.50):.4f} ms ({len(latency)} queries)",
                    f"query_p99_ms {quantile(latency, 0.99):.4f} ms ({len(latency)} queries)",
                ]
            wanted = spec["end_to_end"]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed, checked = summarize(passes, same_inputs=bool(args.trace))
    print(f"{args.workload} seed {args.seed}: {environment(passes[0]['numpy'])}")
    for line in lines + checked:
        print(line)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
