"""List the library functions that no production run enters.

    python3 scripts/traffic.py

Runs the production traffic in one process under ``sys.setprofile``:
``wulffkit all`` through ``cli.main`` on every scene under ``scenes/``, at
the scene's own seed and at ``--seed 1``, and the benchmark's generated
workloads, weighted-2d and weighted-3d of ``perfbench/workloads.py``, set up
and run at seeds 1-3 and passes 0-2, projection queries included.
``fanout._usable_cpus`` reads 1 meanwhile, so every fan-out item runs in
this process, where the trace sees it.  ``perfbench/`` is imported without
writing bytecode there.

A function is a ``def`` of a module of ``src/wulffkit``, nested ones
included, named ``module.qualname``.  Prints each function that no run
enters and that ``ALLOWLIST`` does not name, one a line, then each
allowlisted name that a run enters or that names no function, prefixed
``allowlisted:``; exits 1 if it printed anything.  ``ALLOWLIST`` gives each
name's reason and a test that enters it.  ``tests/test_traffic.py`` traces a
subset of the same runs (one seed per scene, one pass per workload).  Takes
about 10 s on 2 CPUs.  Needs numpy; imports wulffkit from ``src/``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wulffkit"

# seeds of `all` on each shipped scene (None: the scene's own), and the
# (seed, pass) pairs of each generated workload
SCENE_SEEDS = (None, 1)
GENERATED = ("weighted-2d", "weighted-3d")
PASSES = tuple((seed, index) for seed in (1, 2, 3) for index in (0, 1, 2))

# name -> (why no production run enters it, a test that does)
ALLOWLIST = {
    "cli._float_error": (
        "refusal: no production run overflows, divides by zero or makes a NaN",
        "tests/test_scene_cli.py::test_a_float_overflow_exits_1_in_one_line",
    ),
    "duality.DualNorm._newton_polish": (
        "fallback of the conjugate solve for rows the damped loop leaves",
        "tests/test_duality.py::test_strongly_anisotropic_3d_solve_converges",
    ),
    "errors.SolverError.__init__": (
        "refusal: no production solve fails to converge",
        "tests/test_duality.py::test_solver_error_carries_best_and_gap",
    ),
    **{
        f"hypersurface.StarBody.{name}": (
            "abstract: every body kind overrides it",
            "tests/test_traffic.py::test_abstract_methods_raise",
        )
        for name in ("phi", "grad_phi", "hess_phi", "ray_radii")
    },
    **{
        f"integrand.Integrand.{name}": (
            "abstract: every integrand family overrides it",
            "tests/test_traffic.py::test_abstract_methods_raise",
        )
        for name in ("value", "grad", "hess")
    },
    "fanout._usable_cpus": (
        "read as 1 while tracing, so that the items run where the trace sees them",
        "tests/test_fanout.py::test_each_worker_is_pinned_to_its_own_cpu",
    ),
    "fanout._keep_freed_memory": (
        "runs only in forked workers, which the in-process trace does not start",
        "tests/test_fanout.py::test_keeping_freed_memory_leaves_other_c_libraries_alone",
    ),
    "fanout._blas_threads": (
        "called only by a fan-out that forks workers, which the in-process trace does not start",
        "tests/test_fanout.py::test_a_worker_runs_blas_on_one_thread",
    ),
    "fanout._fan_out.<locals>.run_worker": (
        "runs only in forked workers, which the in-process trace does not start",
        "tests/test_fanout.py::test_results_come_back_in_item_order",
    ),
    "hk.hk_evaluate": (
        "bound by name in perfbench/spans.py; the suites use hk_row and hk_report",
        "tests/test_hk.py::test_hk_single_wulff_equality",
    ),
    "variation.flow_energy_derivative": (
        "bound by name in perfbench/spans.py; criticality_residual makes the pushes",
        "tests/test_variation.py::test_criticality_reuses_the_flow_pushes",
    ),
    "variation._check_step": (
        "the step check of flow_energy_derivative",
        "tests/test_variation.py::test_flow_step_guard",
    ),
}


def functions() -> dict:
    """``module.qualname`` -> the (path, first line) of each of its defs, for
    every function of ``src/wulffkit``; class bodies, lambdas and
    comprehensions are not functions here."""
    found = {}

    def walk(code, prefix):
        # the qualname is built here, as co_qualname needs Python 3.11
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            name = f"{prefix}{const.co_name}"
            if not const.co_flags & inspect.CO_OPTIMIZED:
                walk(const, f"{name}.")
                continue
            if not const.co_name.startswith("<"):
                found.setdefault(name, set()).add((const.co_filename, const.co_firstlineno))
            walk(const, f"{name}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), os.path.realpath(path), "exec"), f"{path.stem}.")
    return found


def _workloads():
    """``perfbench/workloads.py``'s WORKLOADS, imported without writing
    bytecode; ``perfbench/`` leaves ``sys.path`` again afterwards."""
    bench = str(ROOT / "perfbench")
    sys.path.insert(0, bench)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.dont_write_bytecode = before
        sys.path.remove(bench)


def runs(out: Path, scenes, scene_seeds=SCENE_SEEDS, passes=PASSES):
    """(label, call) of each production run, writing under ``out``: `all`
    on each scene path at each of ``scene_seeds``, then each ``GENERATED``
    workload, set up and run once, at each (seed, pass) of ``passes``."""
    from wulffkit import cli

    found = []
    for path in scenes:
        for seed in scene_seeds:
            label = path.stem if seed is None else f"{path.stem} --seed {seed}"
            argv = ["all", "--scene", str(path), "--out", str(out / label)]
            argv += [] if seed is None else ["--seed", str(seed)]
            found.append((label, lambda argv=argv: cli.main(argv)))
    workloads = _workloads()
    for name in GENERATED:
        for seed, index in passes:
            label = f"{name} seed {seed} pass {index}"

            def call(name=name, seed=seed, index=index, work=out / label):
                workloads[name](ROOT, seed, index, work).run_pass()

            found.append((label, call))
    return found


def trace(runs) -> dict:
    """label -> the set of (path, first line) of the functions each run
    enters, from ``sys.setprofile``, with every fan-out in-process."""
    from wulffkit import fanout

    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    with mock.patch.object(fanout, "_usable_cpus", lambda: 1):
        for label, call in runs:
            codes = {}
            sys.setprofile(profile)
            try:
                call()
            finally:
                sys.setprofile(None)
            entered[label] = {
                (os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes.values()
            }
    return entered


def unreached(entered) -> list:
    """The sorted names of the functions that none of the ``entered`` sets
    of (path, first line) holds."""
    reached = set().union(*entered)
    return sorted(name for name, keys in functions().items() if not keys & reached)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        scenes = sorted((ROOT / "scenes").glob("*.json"))
        missed = unreached(trace(runs(Path(tmp), scenes)).values())
    lines = [name for name in missed if name not in ALLOWLIST]
    lines += [f"allowlisted: {name}" for name in ALLOWLIST if name not in missed]
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
