"""The fan-out contract: results in item order, nested fan-outs, and whole
runs whose suites run in forked workers."""

import hashlib
import json
import mmap
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from wulffkit import cli, distance, fanout, suites
from wulffkit.errors import InputError, WulffkitError
from wulffkit.integrand import EuclideanNorm
from wulffkit.scene import SUITE_ORDER, load_scene

ROOT = Path(__file__).resolve().parents[1]
SCENES = sorted((ROOT / "scenes").glob("*.json"))
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _forks(monkeypatch, cpus):
    """Pretend ``cpus`` usable CPUs, and list the forks this process makes."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_item_order(monkeypatch):
    forks = _forks(monkeypatch, 3)
    items = list(range(40))
    results = fanout._fan_out(items, lambda i: None if i % 3 == 0 else (i, os.getpid()))
    assert len(forks) == 3
    _no_child_left()
    assert [r and r[0] for r in results] == [None if i % 3 == 0 else i for i in items]
    assert os.getpid() not in {r[1] for r in results if r}


@pytest.mark.skipif(len(CPUS) < 2, reason="needs two usable CPUs")
def test_each_worker_is_pinned_to_its_own_cpu():
    cpus = CPUS
    items = max(len(cpus), fanout.FAN_OUT_ITEMS)
    # each worker holds its first item until every worker has started one,
    # so no worker runs two items before the others start
    started = np.frombuffer(mmap.mmap(-1, 8 * items), dtype=np.int64)

    def hold(i):
        started[i] = 1
        deadline = time.monotonic() + 30
        while started.sum() < len(cpus) and time.monotonic() < deadline:
            os.sched_yield()
        return os.getpid(), sorted(os.sched_getaffinity(0)), fanout._usable_cpus()

    results = fanout._fan_out(list(range(items)), hold)
    _no_child_left()
    pinned = dict((pid, cpu) for pid, (cpu,), _ in results)
    assert sorted(pinned.values()) == cpus
    # a fan-out inside a pinned worker spreads over the caller's CPUs again
    assert all(usable == len(cpus) for _, _, usable in results)
    assert sorted(os.sched_getaffinity(0)) == cpus and fanout._caller_cpus is None


def test_nested_fan_out_leaves_no_grandchild(monkeypatch):
    forks = _forks(monkeypatch, 3)

    def nested(i):
        inner = fanout._fan_out(list(range(fanout.FAN_OUT_ITEMS)), lambda j: os.getpid())
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return os.getpid(), inner, True
        return os.getpid(), inner, False

    results = fanout._fan_out(list(range(fanout.FAN_OUT_ITEMS)), nested)
    assert len(forks) == 3
    _no_child_left()
    workers = {pid for pid, _, _ in results}
    grandchildren = {pid for _, inner, _ in results for pid in inner}
    assert os.getpid() not in workers and not workers & grandchildren
    assert all(reaped for _, _, reaped in results)


def test_unpicklable_result_is_the_worker_error(monkeypatch):
    _forks(monkeypatch, 2)
    with pytest.raises((pickle.PicklingError, AttributeError)):
        fanout._fan_out(list(range(fanout.FAN_OUT_ITEMS)), lambda i: lambda: i)
    _no_child_left()


def _tree(out: Path):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("scene", SCENES, ids=[p.stem for p in SCENES])
def test_all_writes_the_serial_bytes(tmp_path, monkeypatch, scene):
    forks = _forks(monkeypatch, 1)
    serial = cli.run("all", scene, tmp_path / "serial")
    assert not forks
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 3)
    fanned = cli.run("all", scene, tmp_path / "fanned")
    _no_child_left()
    # one worker per pretended CPU for the suites, and for 2D scenes three
    # more per field the warm-up builds
    assert len(forks) >= 3 and set(forks) == {os.getpid()}
    assert fanned == serial == 0
    assert _tree(tmp_path / "fanned") == _tree(tmp_path / "serial")


OVERLAPPING = {
    "integrand": {"family": "quadratic", "matrix": [[4.0, 0.0], [0.0, 1.0]]},
    "bodies": [
        {"id": "a", "kind": "wulff", "center": [0.0, 0.0], "radius": 1.0},
        {"id": "b", "kind": "wulff", "center": [0.5, 0.0], "radius": 1.0},
    ],
    "resolution": 512,
    "seed": 3,
}


@pytest.mark.parametrize("with_mr", [False, True], ids=["hk alone", "hk and mr"])
def test_overlapping_bodies_refuse_as_the_serial_run(tmp_path, monkeypatch, capsys, with_mr):
    # the warm-up's HK report refuses, and the suites that read it raise the
    # refusal again: in-process with one usable CPU, in workers with three
    raw = dict(OVERLAPPING, suites=["dual", "wulff", "curv", "hk", "var"] + ["mr"] * with_mr)
    scene = tmp_path / "overlap.json"
    scene.write_text(json.dumps(raw))
    refused = []
    warm = suites.RunCache.warm

    def watched(self, names):
        try:
            warm(self, names)
        except WulffkitError as exc:
            refused.append(exc)
            raise

    monkeypatch.setattr(suites.RunCache, "warm", watched)
    raised = {}
    for cpus in (1, 3):
        forks = _forks(monkeypatch, cpus)
        with pytest.raises(InputError) as exc:
            cli.run("all", scene, tmp_path / str(cpus))
        _no_child_left()
        assert bool(forks) == (cpus > 1)
        assert not (tmp_path / str(cpus) / "report.json").exists()
        raised[cpus] = exc.value
    assert len(refused) == 2
    assert "not disjoint" in str(raised[1])
    assert type(raised[3]) is type(raised[1])
    assert str(raised[3]) == str(raised[1])
    # var, after hk in the order, still ran and wrote its CSV on both
    assert (tmp_path / "1" / "var_residuals.csv").exists()
    assert _tree(tmp_path / "3") == _tree(tmp_path / "1")

    for cpus in (1, 3):
        monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
        capsys.readouterr()
        code = cli.main(["all", "--scene", str(scene), "--out", str(tmp_path / f"main{cpus}")])
        _no_child_left()
        assert code == 1
        assert capsys.readouterr().err == f"error: {raised[1]}\n"


def test_run_cache_keeps_a_refusal(tmp_path, monkeypatch):
    # the warm-up's HK report refuses once: hk and mr raise the kept refusal
    # again and evaluate nothing anew, in-process as in forked workers
    raw = dict(OVERLAPPING, suites=["dual", "wulff", "curv", "hk", "mr", "var"])
    scene = tmp_path / "overlap.json"
    scene.write_text(json.dumps(raw))
    log = _SharedLog()
    hk_evaluate = suites.hk_evaluate

    def counted(tables):
        log.add(len(tables))
        return hk_evaluate(tables)

    monkeypatch.setattr(suites, "hk_evaluate", counted)
    for cpus in (1, 3):
        log.data[0] = 0
        forks = _forks(monkeypatch, cpus)
        with pytest.raises(InputError) as exc:
            cli.run("all", scene, tmp_path / str(cpus))
        _no_child_left()
        assert bool(forks) == (cpus > 1)
        assert len(log.keys()) == 1
        assert type(exc.value) is InputError
        assert str(exc.value).startswith("bodies 0 and 1 are not disjoint (F* of their centres'")


def test_first_refusal_in_suite_order_is_raised(tmp_path, monkeypatch):
    # curv and var both refuse; with one usable CPU as with three, var runs
    # too and the run raises curv's refusal
    table = dict(suites._SUITES)

    def refusing(name):
        def suite(scene, out, cache):
            raise InputError(f"{name} refuses")

        return suite

    monkeypatch.setattr(suites, "_SUITES", {**table, "curv": refusing("curv"), "var": refusing("var")})
    scene = ROOT / "scenes" / "wulff_d3.json"
    for cpus in (1, 3):
        forks = _forks(monkeypatch, cpus)
        with pytest.raises(InputError, match="^curv refuses$"):
            cli.run("all", scene, tmp_path / str(cpus))
        _no_child_left()
        assert bool(forks) == (cpus > 1)


def test_warm_builds_every_product_the_suites_read():
    scene = load_scene(ROOT / "scenes" / "wulff_d2.json")
    bodies = [body for _, body in scene.bodies]
    cache = suites.RunCache(scene)
    cache.warm(["dual", "wulff", "curv", "var"])
    # each body's sample and umbilicity fit; no HK report, source or field
    assert set(cache._built) == set(bodies) | {("umbilicity", body) for body in bodies}

    cache = suites.RunCache(scene)
    cache.warm(list(SUITE_ORDER))
    assert "hk" in cache._built
    assert all((body, scene.integrand) in cache._built for body in bodies)
    # the reach suite's Euclidean field is left to the suite
    assert not isinstance(scene.integrand, EuclideanNorm)
    assert all((body, EuclideanNorm(2)) not in cache._built for body in bodies)


class _SharedLog:
    """Keys of the calls made in this process and in its forked workers,
    appended under a lock to an array in a shared mapping."""

    def __init__(self, slots=256):
        self.lock = multiprocessing.get_context("fork").Lock()
        self.data = np.frombuffer(mmap.mmap(-1, 8 * (slots + 1)), dtype=np.int64)

    def add(self, *parts):
        digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
        with self.lock:
            n = int(self.data[0])
            self.data[1 + n] = int.from_bytes(digest, "little", signed=True)
            self.data[0] = n + 1

    def keys(self):
        return list(self.data[1 : 1 + int(self.data[0])])


def _logged(monkeypatch):
    """Log each sample_surface, curvature_table and build_field call by the
    content of its inputs."""
    logs = {name: _SharedLog() for name in ("sample_surface", "curvature_table", "build_field")}
    sample_surface, curvature_table, build_field = (
        suites.sample_surface, suites.curvature_table, distance.build_field
    )

    def sampled(body, resolution):
        logs["sample_surface"].add(repr(body), repr(resolution))
        return sample_surface(body, resolution)

    def table(body, f, quad):
        logs["curvature_table"].add(repr(body), repr(f), quad.points.tobytes())
        return curvature_table(body, f, quad)

    def field(source, f, grid):
        logs["build_field"].add(source.points.tobytes(), repr(f), repr(grid))
        return build_field(source, f, grid)

    for module in (suites, distance):
        monkeypatch.setattr(module, "sample_surface", sampled)
    monkeypatch.setattr(suites, "curvature_table", table)
    monkeypatch.setattr(distance, "build_field", field)
    return logs


@pytest.mark.parametrize("name", ["wulff_d2", "two_wulff_d2", "wulff_d3"])
def test_shared_products_are_built_once_across_processes(tmp_path, monkeypatch, name):
    scene = ROOT / "scenes" / f"{name}.json"
    logs = _logged(monkeypatch)
    forks = _forks(monkeypatch, 1)
    cli.run("all", scene, tmp_path / "serial")
    assert not forks
    serial = {k: log.keys() for k, log in logs.items()}
    for log in logs.values():
        log.data[0] = 0
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 3)
    cli.run("all", scene, tmp_path / "fanned")
    assert forks
    _no_child_left()
    for key, log in logs.items():
        calls = log.keys()
        assert len(calls) == len(set(calls)), key
        assert sorted(calls) == sorted(serial[key]), key
    assert logs["sample_surface"].keys() and logs["curvature_table"].keys()
    assert bool(logs["build_field"].keys()) == name.endswith("d2")
