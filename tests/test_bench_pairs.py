import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(side, seed, wall, failed=0):
    return {
        "side": side,
        "workload": "w",
        "seed": seed,
        "result": {
            "correct": True,
            "attempted": 2,
            "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
        },
    }


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


def test_seed_range():
    assert list(bench_pairs._seed_range("901-903")) == [901, 902, 903]
    assert list(bench_pairs._seed_range("7")) == [7]
