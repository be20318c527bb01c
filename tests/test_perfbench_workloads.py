"""The benchmark harness still runs against the library.

``perfbench/workloads.py`` calls the library by name: ``Scene.tolerances``,
``boundary_source(region=...)``, ``build_field``'s ``eps_cluster`` and
``tol_unique`` keywords, and ``project``.  A change under ``src/`` that
breaks one of them fails here, not only when the benchmark runs.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its oracle as a top-level module
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def test_workloads_set_up_and_weighted_2d_passes(workloads, tmp_path):
    built = {
        name: cls(ROOT, 1, 0, tmp_path / name) for name, cls in workloads.WORKLOADS.items()
    }
    assert set(built) == {"shipped-2d", "weighted-2d", "weighted-3d"}
    weighted = built["weighted-2d"]
    outcome = weighted.run_pass()
    assert weighted.completed(outcome)
    verdicts = weighted.check(outcome)
    assert verdicts
    assert [f"{v.op}: {v.reason}" for v in verdicts if v.failed] == []
