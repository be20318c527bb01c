"""Run the benchmark in alternating pairs from two checkouts and summarize them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--workload W2 ...]
                                   --seeds A-B > pairs.json

For each seed from A to B, and each workload, ``perfbench/run.py --trace 0``
runs once from each checkout for the ``run_seconds`` of the change's
``BENCHMARK.json``, one run at a time: the parent first on odd seeds, the
change first on even ones.  Each run's metrics go to standard error as it
ends.  Standard output gets one JSON object with ``command``, ``method``, a
per-workload ``summary`` and the ``runs``, in the layout of the
``BENCH_*.json`` files.  Per metric the summary gives the parent's and the
change's linear-percentile quartiles, the ratio of their medians, the
parent's interquartile range, and how many pairs the change was lower or
higher on; a tie counts for neither side.  Each metric of the change's
``BENCHMARK.json`` ``end_to_end`` list also gets the acceptance rule read
from its ``better`` and ``bound``: ``gain`` when the change is better on at
least 9 of 10 of the pairs and its median is better than the parent's by more
than the parent's interquartile range, ``within_bound`` when its median
is worse than the parent's by at most ``bound`` times the parent's median,
and ``unresolved`` when the parent's interquartile range is wider than
``bound`` times its median and not every change run is better than every
parent run: the runs spread too widely for ``within_bound`` to tell.
Each run also records the CPUs the benchmark could use and the share of CPU
time stolen by the hypervisor over the run, from the aggregate ``cpu`` line
of ``/proc/stat`` before and after it (``null`` where that file is missing),
so a pair lost to a withheld vCPU shows as such.  Per side, the summary gives
the quartiles of the steal shares and how many runs had fewer usable CPUs
than the most any run had: a change that fans work out across CPUs reads
slower on runs that lost one, so either can flip its verdict.  Each run also
records its process tree's peak, ``ru_maxrss`` from ``os.wait4`` on the
run, in MB: the largest resident set of the run's process and of every
process it reaped, forked workers included, so memory that a change moves
from the measured process into its workers shows there.  A process started
by exec inherits its starter's peak, so the reading is never below that of
this script itself.  Each run also records its process tree's minor page
faults, ``ru_minflt`` from the same ``os.wait4``, as ``tree_minflt``: those
of the run's process and of every process it reaped, so faults that forked
workers take on freed and re-mapped memory show there.  Per side, the
summary gives the quartiles of both.

Both sides compile their modules alike: the script refuses to start, naming
the directory, while either checkout holds a ``__pycache__`` under ``src/``
or ``perfbench/``, and it runs every benchmark process with
``PYTHONDONTWRITEBYTECODE=1``.  Otherwise a checkout with bytecode skips the
compile that the other pays in every run, and a checkout with stale
bytecode for edited modules pays it only for those: either moves
``setup_s`` and ``peak_rss_mb`` with no change to the code.
Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {seconds} --trace 0"
METHOD = (
    "parent commit and change run from separate checkouts, one run at a time; pairs "
    "alternate which side runs first (odd seeds parent first); seeds {seeds}; {cpus} usable "
    "CPUs; neither checkout holds a __pycache__ under src/ or perfbench/ and every run has "
    "PYTHONDONTWRITEBYTECODE=1, so both compile every module in every run; quartiles are "
    "numpy linear percentiles; a tie counts for neither side"
)
STAT = Path("/proc/stat")


def cpu_ticks(stat_text: str):
    """(steal, total) clock ticks of the aggregate ``cpu`` line of a
    /proc/stat text, or None without one.  The total sums user through
    steal; guest time is already counted in user."""
    for line in stat_text.splitlines():
        fields = line.split()
        if len(fields) >= 9 and fields[0] == "cpu":
            ticks = [int(v) for v in fields[1:9]]
            return ticks[7], sum(ticks)
    return None


def steal_share(before, after):
    """Stolen share of the CPU ticks between two ``cpu_ticks`` readings, or
    None when either is missing or no tick passed."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


def read_ticks():
    try:
        return cpu_ticks(STAT.read_text())
    except OSError:
        return None


def usable_cpus() -> int:
    """CPUs this process, and so each benchmark run it starts, may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def bytecode_caches(checkout: Path):
    """The ``__pycache__`` directories under ``src/`` and ``perfbench/`` of
    ``checkout``, sorted."""
    return sorted(
        path
        for top in ("src", "perfbench")
        for path in (checkout / top).rglob("__pycache__")
        if path.is_dir()
    )


def run_tree(cmd, cwd):
    """(exit code, stdout, stderr, peak MB, minor faults) of ``cmd`` run in
    ``cwd`` to its end, with ``PYTHONDONTWRITEBYTECODE=1``.  The peak is
    ``ru_maxrss`` of ``os.wait4`` on it: the largest resident set of the
    process and of each descendant reaped below it; the faults are its
    ``ru_minflt``, summed over the same processes."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode, out.read().decode(), err.read().decode(),
            usage.ru_maxrss / 1024, usage.ru_minflt,
        )


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The JSON result line of one benchmark run from ``checkout``, the peak
    MB of its process tree and the tree's minor page faults."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    code, stdout, stderr, peak, minflt = run_tree(cmd, checkout)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {code}: {stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1]), round(peak, 2), minflt


def _quartiles(values):
    return [round(float(q), 4) for q in np.percentile(values, [25, 50, 75])]


def _acceptance(p, c, better: str, bound: float) -> dict:
    """``gain``, ``within_bound`` and ``unresolved`` of a metric's paired
    values p (parent) and c (change), for ``better`` "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median_p, q3 = np.percentile(p, [25, 50, 75])
    median_c = np.median(c)
    wins = int((sign * (p - c) > 0).sum())
    return {
        "gain": bool(10 * wins >= 9 * len(p) and sign * (median_p - median_c) > q3 - q1),
        "within_bound": bool(sign * (median_c - median_p) <= bound * abs(median_p)),
        "unresolved": bool(
            q3 - q1 > bound * abs(median_p) and (sign * c).max() >= (sign * p).min()
        ),
    }


def summarize(runs, end_to_end=()) -> dict:
    """Per workload: pair count, seeds, and per metric the quartiles, median
    ratio, parent IQR and the pairs the change was lower or higher on, with
    the acceptance rule of the metrics in ``end_to_end`` (entries of
    ``BENCHMARK.json``); plus, per side, the failed and attempted operations,
    the quartiles of the runs' steal shares, process-tree peaks and
    process-tree minor faults (``null`` without one) and the runs with
    fewer usable CPUs than the most seen in ``runs``."""
    rules = {m["name"]: m for m in end_to_end}
    most_cpus = max((r["cpus"] for r in runs if r.get("cpus") is not None), default=None)
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        seeds = sorted(s for s, sides in by_seed.items() if len(sides) == 2)
        records = {side: [by_seed[s][side] for s in seeds] for side in ("parent", "change")}
        parent = [r["result"] for r in records["parent"]]
        change = [r["result"] for r in records["change"]]
        row = {"pairs": len(seeds), "seeds": seeds}
        for metric in parent[0]["metrics"] if parent else ():
            p = np.array([r["metrics"][metric]["value"] for r in parent])
            c = np.array([r["metrics"][metric]["value"] for r in change])
            pq, cq = _quartiles(p), _quartiles(c)
            row[metric] = {
                "parent_q1_median_q3": pq,
                "change_q1_median_q3": cq,
                "median_ratio": round(float(np.median(c) / np.median(p)), 3),
                "parent_iqr": round(pq[2] - pq[0], 4),
                "change_lower": int((c < p).sum()),
                "change_higher": int((c > p).sum()),
                "ties": int((c == p).sum()),
            }
            if metric in rules:
                rule = rules[metric]
                row[metric].update(_acceptance(p, c, rule["better"], rule["bound"]))
        for key in ("failed", "attempted"):
            row[key] = {
                "parent": sum(r[key] for r in parent),
                "change": sum(r[key] for r in change),
            }
        row["steal_share_q1_median_q3"] = {}
        row["tree_peak_mb_q1_median_q3"] = {}
        row["tree_minflt_q1_median_q3"] = {}
        row["fewer_cpus"] = {}
        for side, side_runs in records.items():
            for key in ("steal_share", "tree_peak_mb", "tree_minflt"):
                values = [r[key] for r in side_runs if r.get(key) is not None]
                row[f"{key}_q1_median_q3"][side] = _quartiles(values) if values else None
            row["fewer_cpus"][side] = sum(
                r.get("cpus") is not None and r["cpus"] < most_cpus for r in side_runs
            )
        summary[workload] = row
    return summary


def _seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cached = [str(path) for checkout in sides.values() for path in bytecode_caches(checkout)]
    if cached:
        parser.error(f"remove the checkouts' bytecode caches first: {' '.join(cached)}")
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                cpus, before = usable_cpus(), read_ticks()
                result, peak, minflt = run_once(sides[side], workload, seed, seconds)
                steal = steal_share(before, read_ticks())
                runs.append({"side": side, "workload": workload, "seed": seed, "cpus": cpus,
                             "steal_share": steal, "tree_peak_mb": peak, "tree_minflt": minflt,
                             "result": result})
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps({k: v['value'] for k, v in result['metrics'].items()})} "
                      f"cpus {cpus} steal {steal} tree peak {peak} MB "
                      f"tree minor faults {minflt}", file=sys.stderr)
    out = {
        "command": COMMAND.format(seconds=seconds),
        "method": METHOD.format(
            seeds=f"{args.seeds.start}-{args.seeds.stop - 1}", cpus=usable_cpus()
        ),
        "summary": summarize(runs, bench.get("end_to_end", ())),
        "runs": runs,
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
