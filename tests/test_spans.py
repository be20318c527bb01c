"""The benchmark's span table names only functions and methods that exist, and a
traced in-process run records the calls of the public variation routines."""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))


def test_every_traced_function_exists():
    missing = [
        f"{module}.{name}"
        for module, name in SPANS["FUNCTIONS"]
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_every_traced_method_exists():
    missing = [
        f"{module}.{cls}.{method}"
        for (module, cls), (_, methods) in SPANS["METHODS"].items()
        for method in methods
        if method not in vars(getattr(importlib.import_module(module), cls, object))
    ]
    assert missing == []


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
tracer = spans.install()
from wulffkit import cli, fanout
fanout._usable_cpus = lambda: 1
cli.run("all", sys.argv[2], sys.argv[3])
print(json.dumps(tracer.metrics()))
"""


def _traced_metrics(scene, out):
    """The span metrics of ``all`` on ``scene``, traced in a fresh process
    with one usable CPU."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    args = [str(ROOT / "perfbench"), str(ROOT / "scenes" / scene), str(out)]
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_in_process_var_is_traced(tmp_path):
    # with one usable CPU the suites run in-process, and var calls the
    # public variation routines that the span table wraps by name; the
    # whole suites run through suites._SUITES, which the tracer rebinds
    metrics = _traced_metrics("wulff_d3.json", tmp_path)
    for name in ("variation.criticality_residual", "variation.first_variation"):
        assert metrics[name + ".calls"] == 1
        assert metrics[name + ".self_s"] > 0
    for name in ("dual", "wulff", "hk", "mr"):
        assert metrics[f"suites.{name}.calls"] == 1
        assert metrics[f"suites.{name}.s"] > 0


def test_in_process_run_traces_every_suite(tmp_path):
    # suites._SUITES holds the runner of every suite, the body-by-body ones
    # (curv, steiner, reach, var) by their part for one body, so a traced
    # in-process 2D run sees each of the eight
    metrics = _traced_metrics("wulff_d2.json", tmp_path)
    for name in ("dual", "wulff", "curv", "hk", "mr", "steiner", "reach", "var"):
        assert metrics[f"suites.{name}.calls"] >= 1, name
        assert metrics[f"suites.{name}.s"] > 0, name
