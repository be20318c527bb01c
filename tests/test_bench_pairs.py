import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(side, seed, wall, failed=0, score=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    if score is not None:
        metrics["score"] = {"value": score, "unit": "1"}
    return {
        "side": side,
        "workload": "w",
        "seed": seed,
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


def test_seed_range():
    assert list(bench_pairs._seed_range("901-903")) == [901, 902, 903]
    assert list(bench_pairs._seed_range("7")) == [7]
