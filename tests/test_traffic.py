"""Every library function carries production traffic, or the allowlist says why not.

``scripts/traffic.py`` traces the production runs in one process and lists
the functions of ``src/wulffkit`` that none of them enters.  Here a subset
of those runs is traced once: ``all`` on each shipped scene at ``--seed 1``,
and one pass of each generated workload.  The functions it leaves unreached
are exactly the allowlist's, and every test the allowlist names exists.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wulffkit import Integrand, StarBody

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "traffic.py"
spec = importlib.util.spec_from_file_location("traffic", SCRIPT)
traffic = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traffic)

SCENES = sorted((ROOT / "scenes").glob("*.json"))


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """label -> the functions each run of the subset enters."""
    out = tmp_path_factory.mktemp("traffic")
    return traffic.trace(traffic.runs(out, SCENES, scene_seeds=(1,), passes=((1, 0),)))


def test_unreached_functions_are_the_allowlist(entered):
    assert traffic.unreached(entered.values()) == sorted(traffic.ALLOWLIST)


def test_every_allowlisted_test_exists():
    defined = {}
    for name, (reason, test) in traffic.ALLOWLIST.items():
        path, function = test.split("::")
        if path not in defined:
            tree = ast.parse((ROOT / path).read_text())
            defined[path] = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert reason and function in defined[path], (name, test)


def test_a_scene_left_out_leaves_its_body_kind_unreached(entered):
    # the check can fail: without superellipse_d2, no run samples a
    # superellipse, and each of its methods shows up unreached
    kind = [name for name in traffic.functions() if name.startswith("hypersurface.Superellipse.")]
    assert len(kind) >= 4
    rest = [keys for label, keys in entered.items() if not label.startswith("superellipse_d2")]
    assert len(rest) == len(entered) - 1
    missed = set(traffic.unreached(rest))
    assert set(kind) <= missed
    assert missed - set(kind) == set(traffic.ALLOWLIST)


def test_abstract_methods_raise():
    x = np.ones((1, 2))
    for method in (StarBody.phi, StarBody.grad_phi, StarBody.hess_phi, StarBody.ray_radii):
        with pytest.raises(NotImplementedError):
            method(StarBody(), x)
    for method in (Integrand.value, Integrand.grad, Integrand.hess):
        with pytest.raises(NotImplementedError):
            method(Integrand(), x)
