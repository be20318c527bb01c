import importlib.util
import os
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(side, seed, wall, failed=0, score=None, cpus=None, steal=None, peak=None, minflt=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    if score is not None:
        metrics["score"] = {"value": score, "unit": "1"}
    return {
        "side": side,
        "workload": "w",
        "seed": seed,
        "cpus": cpus,
        "steal_share": steal,
        "tree_peak_mb": peak,
        "tree_minflt": minflt,
        "result": {
            "correct": True,
            "attempted": 2,
            "failed": failed,
            "metrics": metrics,
        },
    }


RULES = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score", "unit": "1", "better": "higher", "bound": 0.1},
]


def test_summary_of_synthetic_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 1.0]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=11):
        runs += [_run("parent", seed, p, failed=seed == 12), _run("change", seed, c)]
    # a seed with one side only is not a pair
    runs.append(_run("parent", 99, 100.0))
    row = bench_pairs.summarize(runs)["w"]
    assert row["pairs"] == 5 and row["seeds"] == [11, 12, 13, 14, 15]
    wall = row["wall_s"]
    # linear percentiles: parent 2, 3, 4; change sorted 0.5, 1, 2, 2.5, 4.5
    assert wall["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert wall["change_q1_median_q3"] == [1.0, 2.0, 2.5]
    assert wall["median_ratio"] == pytest.approx(0.667)
    assert wall["parent_iqr"] == 2.0
    # seed 12 ties and counts for neither side
    assert (wall["change_lower"], wall["change_higher"], wall["ties"]) == (3, 1, 1)
    assert row["failed"] == {"parent": 1, "change": 0}
    assert row["attempted"] == {"parent": 10, "change": 10}
    # without the rules of BENCHMARK.json there is no verdict
    assert "gain" not in wall and "within_bound" not in wall
    # lower on 3 of 5 is no gain; the median is 1/3 lower, within the bound
    wall = bench_pairs.summarize(runs, RULES)["w"]["wall_s"]
    assert (wall["gain"], wall["within_bound"]) == (False, True)


def _pairs(parent, change, score=None):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        s = (None, None) if score is None else score[seed - 1]
        runs += [_run("parent", seed, p, score=s[0]), _run("change", seed, c, score=s[1])]
    return bench_pairs.summarize(runs, RULES)["w"]


def test_acceptance_rule_per_metric():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    # lower on 9 of 10, median 1.45 -> 0.95, parent IQR 0.45: a gain
    change = [p - 0.5 for p in parent[:9]] + [2.0]
    wall = _pairs(parent, change)["wall_s"]
    assert (wall["change_lower"], wall["change_higher"]) == (9, 1)
    assert (wall["gain"], wall["within_bound"]) == (True, True)
    # lower on 9 of 10 by less than the parent IQR: no gain
    wall = _pairs(parent, [p - 0.1 for p in parent[:9]] + [2.0])["wall_s"]
    assert (wall["gain"], wall["within_bound"]) == (False, True)
    # a tie counts for neither side, so 8 of 10 lower is no gain
    wall = _pairs(parent, change[:8] + [parent[8]] + change[9:])["wall_s"]
    assert (wall["change_lower"], wall["ties"], wall["gain"]) == (8, 1, False)
    # the median 30% higher is outside the 0.25 bound, 20% is inside
    assert not _pairs(parent, [1.3 * p for p in parent])["wall_s"]["within_bound"]
    assert _pairs(parent, [1.2 * p for p in parent])["wall_s"]["within_bound"]
    # "higher" is better: a score higher on every pair is a gain, and one 20%
    # lower is outside its 0.1 bound
    up = _pairs(parent, parent, score=[(s, 2.0 * s) for s in parent])["score"]
    assert (up["gain"], up["within_bound"]) == (True, True)
    down = _pairs(parent, parent, score=[(s, 0.8 * s) for s in parent])["score"]
    assert (down["gain"], down["within_bound"]) == (False, False)
    # the parent IQR 0.45 is wider than 0.25 of its median 1.45: unresolved,
    # unless every change run is below every parent run
    assert _pairs(parent, change)["wall_s"]["unresolved"]
    assert not _pairs(parent, [0.9] * 10)["wall_s"]["unresolved"]
    assert _pairs(parent, [0.9] * 9 + [1.0])["wall_s"]["unresolved"]
    # a parent IQR of 0.045 against a median of 1.145 resolves
    tight = [1.0 + p / 10 for p in parent]
    assert not _pairs(tight, tight)["wall_s"]["unresolved"]
    # "higher" is better: every change score above every parent score resolves
    assert not up["unresolved"]
    assert _pairs(parent, parent, score=[(s, s + 0.1) for s in parent])["score"]["unresolved"]


def test_seed_range():
    assert list(bench_pairs._seed_range("901-903")) == [901, 902, 903]
    assert list(bench_pairs._seed_range("7")) == [7]


STAT_TEXT = """cpu  100 5 50 800 20 3 2 20 7 0
cpu0 50 2 25 400 10 1 1 10 3 0
intr 12345
"""


def test_cpu_ticks_read_the_aggregate_line():
    # user through steal sum to 1000; guest time is already in user
    assert bench_pairs.cpu_ticks(STAT_TEXT) == (20, 1000)
    assert bench_pairs.cpu_ticks("intr 1\ncpu0 1 2 3 4 5 6 7 8\n") is None
    assert bench_pairs.cpu_ticks("") is None


def test_steal_share_between_two_readings():
    assert bench_pairs.steal_share((20, 1000), (70, 1500)) == 0.1
    assert bench_pairs.steal_share((20, 1000), (20, 1000)) is None
    assert bench_pairs.steal_share(None, (20, 1000)) is None
    assert bench_pairs.steal_share((20, 1000), None) is None


def test_summary_of_steal_shares_and_withheld_cpus():
    runs = []
    # the change lost a CPU on seeds 2 and 3, the parent on seed 4; seed 5
    # has no steal reading on the parent side
    for seed, (pc, cc, ps, cs) in enumerate(
        [(2, 2, 0.01, 0.02), (2, 1, 0.02, 0.2), (2, 1, 0.0, 0.4), (1, 2, 0.03, 0.0),
         (2, 2, None, 0.01)],
        start=1,
    ):
        runs += [_run("parent", seed, 1.0, cpus=pc, steal=ps),
                 _run("change", seed, 0.9, cpus=cc, steal=cs)]
    # a lone run counts for the most CPUs seen, but is no pair
    runs.append(_run("parent", 9, 1.0, cpus=4))
    row = bench_pairs.summarize(runs)["w"]
    assert row["fewer_cpus"] == {"parent": 5, "change": 5}
    row = bench_pairs.summarize(runs[:-1])["w"]
    assert row["fewer_cpus"] == {"parent": 1, "change": 2}
    # linear percentiles of 0, 0.01, 0.02, 0.03 and of 0, 0.01, 0.02, 0.2, 0.4
    assert row["steal_share_q1_median_q3"] == {
        "parent": [0.0075, 0.015, 0.0225], "change": [0.01, 0.02, 0.2]
    }
    # runs without either reading, as /proc/stat may be missing
    bare = bench_pairs.summarize([_run("parent", 1, 1.0), _run("change", 1, 1.0)])["w"]
    assert bare["steal_share_q1_median_q3"] == {"parent": None, "change": None}
    assert bare["fewer_cpus"] == {"parent": 0, "change": 0}


def test_summary_of_tree_peaks():
    runs = []
    for seed, (p, c) in enumerate([(46.0, 40.0), (47.0, 39.5), (46.5, None), (48.0, 41.0)], 1):
        runs += [_run("parent", seed, 1.0, peak=p), _run("change", seed, 1.0, peak=c)]
    row = bench_pairs.summarize(runs)["w"]
    # linear percentiles of 46, 46.5, 47, 48 and of 39.5, 40, 41; a run
    # without a reading counts for neither
    assert row["tree_peak_mb_q1_median_q3"] == {
        "parent": [46.375, 46.75, 47.25], "change": [39.75, 40.0, 40.5]
    }
    bare = bench_pairs.summarize([_run("parent", 1, 1.0), _run("change", 1, 1.0)])["w"]
    assert bare["tree_peak_mb_q1_median_q3"] == {"parent": None, "change": None}


def test_summary_of_tree_minor_faults():
    runs = []
    faults = [(85000, 37000), (84000, None), (86000, 38000), (90000, 36000)]
    for seed, (p, c) in enumerate(faults, 1):
        runs += [_run("parent", seed, 1.0, minflt=p), _run("change", seed, 1.0, minflt=c)]
    row = bench_pairs.summarize(runs)["w"]
    # linear percentiles of 84000, 85000, 86000, 90000 and of 36000, 37000,
    # 38000; a run without a reading counts for neither
    assert row["tree_minflt_q1_median_q3"] == {
        "parent": [84750.0, 85500.0, 87000.0], "change": [36500.0, 37000.0, 37500.0]
    }
    bare = bench_pairs.summarize([_run("parent", 1, 1.0), _run("change", 1, 1.0)])["w"]
    assert bare["tree_minflt_q1_median_q3"] == {"parent": None, "change": None}


# a process that forks a worker holding 64 MB, reaps it, and prints the
# worker's peak in MB and its minor faults, then its own, before it exits 3
FORKING_CHILD = """
import os, resource, sys
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    block = b"x" * (64 << 20)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    os.write(write, f"{usage.ru_maxrss / 1024} {usage.ru_minflt}".encode())
    os._exit(0)
os.close(write)
print(os.read(read, 64).decode())
os.waitpid(pid, 0)
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_maxrss / 1024, usage.ru_minflt)
print("to stderr", file=sys.stderr)
sys.exit(3)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_tree_reads_the_peak_of_the_reaped_workers(tmp_path):
    code, out, err, peak, minflt = bench_pairs.run_tree(
        [sys.executable, "-c", FORKING_CHILD], tmp_path
    )
    assert code == 3 and err == "to stderr\n"
    worker, worker_flt, own, own_flt = map(float, out.split())
    # the tree's peak is the larger of the process's own and its worker's;
    # the process's own can start at its starter's peak, which it inherits
    # when it is started by exec
    assert worker >= 64
    assert peak == pytest.approx(max(own, worker), abs=1.0)
    # the tree's faults sum the process's and its reaped worker's, each at
    # least what it read before it ended
    assert worker_flt > 0 and own_flt > 0
    assert minflt >= worker_flt + own_flt


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    code, out, err, _peak, _minflt = bench_pairs.run_tree(
        [sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"], tmp_path
    )
    assert code == 0 and out == "True\n"


def test_a_checkout_with_bytecode_is_refused(tmp_path, capsys):
    # compiled modules in one checkout alone would move its setup time and
    # peak memory: the script names each cache and runs nothing
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "pkg").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text('{"run_seconds": 1}')
    caches = [parent / "perfbench" / "__pycache__", change / "src" / "pkg" / "__pycache__"]
    for cache in caches:
        cache.mkdir(parents=True)
    # a __pycache__ elsewhere in the checkout is not the benchmark's
    (change / "tests" / "__pycache__").mkdir(parents=True)
    assert bench_pairs.bytecode_caches(change) == [caches[1]]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert all(str(cache) in err for cache in caches)
    assert str(change / "tests") not in err
