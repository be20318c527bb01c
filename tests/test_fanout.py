"""The fan-out contract: results in item order, field readers that wait
for their own field's blocks, nested fan-outs, and whole runs whose suites
and field blocks run in one round of forked workers."""

import contextlib
import dataclasses
import functools
import hashlib
import json
import mmap
import multiprocessing
import os
import pickle
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from wulffkit import cli, distance, fanout, suites
from wulffkit.duality import dual_norm_of
from wulffkit.errors import HypothesisViolationError, InputError, SolverError, WulffkitError
from wulffkit.hypersurface import WulffBody
from wulffkit.integrand import EuclideanNorm
from wulffkit.scene import SUITE_ORDER, load_scene, parse_scene

import sampling

ROOT = Path(__file__).resolve().parents[1]
SCENES = sorted((ROOT / "scenes").glob("*.json"))
E2 = EuclideanNorm(2)
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


def test_only_forked_workers_keep_their_freed_memory(monkeypatch):
    # each worker sets the allocator once, and neither the caller nor an
    # in-process run does
    kept = []
    monkeypatch.setattr(fanout, "_keep_freed_memory", lambda: kept.append(os.getpid()))
    _forks(monkeypatch, 2)
    results = fanout._fan_out(list(range(8)), lambda i: (os.getpid(), list(kept)))
    _no_child_left()
    assert kept == []
    assert all(own == [pid] for pid, own in results)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    assert fanout._fan_out(list(range(8)), lambda i: list(kept)) == [[]] * 8


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="needs glibc")
def test_glibc_accepts_the_worker_thresholds():
    # mallopt returns 1 for a value it takes and 0 for one it refuses; a
    # forked child asks, so this process's allocator stays as it is
    pid = os.fork()
    if pid == 0:
        mallopt = fanout.ctypes.CDLL(None).mallopt
        took = [
            mallopt(fanout.M_MMAP_THRESHOLD, fanout.MMAP_THRESHOLD),
            mallopt(fanout.M_TRIM_THRESHOLD, fanout.TRIM_THRESHOLD),
        ]
        os._exit(0 if took == [1, 1] else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def test_keeping_freed_memory_leaves_other_c_libraries_alone(monkeypatch):
    def unknown(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "confstr", unknown)
    monkeypatch.setattr(fanout.ctypes, "CDLL", lambda *args: pytest.fail("loaded the C library"))
    fanout._keep_freed_memory()


@pytest.mark.skipif(fanout._blas_threads() is None, reason="needs OpenBLAS")
def test_a_worker_runs_blas_on_one_thread(monkeypatch):
    # a forked worker kept its parent's BLAS thread count; one that set its
    # own count rebuilt OpenBLAS's thread pool, one more thread on its CPU
    get, put = fanout._blas_threads()
    _forks(monkeypatch, 2)
    before = get()
    put(2)
    try:
        threads = fanout._fan_out(
            list(range(8)), lambda i: (get(), len(os.listdir("/proc/self/task")))
        )
        assert get() == 2
    finally:
        put(before)
    _no_child_left()
    assert threads == [(1, 1)] * 8


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
    # a pinned worker reports one usable CPU, so a fan-out inside it runs
    # its items in-process
    assert all(usable == 1 for _, _, usable in results)
    assert sorted(os.sched_getaffinity(0)) == cpus


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


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _disk_plan():
    """The plan of a small Euclidean field to the outside of the unit disk:
    nine blocks, none scanned."""
    disk = WulffBody(dual_norm_of(E2), np.zeros(2), 1.0)
    source = distance.boundary_source([disk], 1024, region="complement")
    grid = distance.GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=96)
    return distance._plan_field(source, E2, grid)


def _wait_for(flags, i):
    deadline = time.monotonic() + 30
    while not flags[i] and time.monotonic() < deadline:
        time.sleep(0.001)


def test_a_reader_waits_for_its_fields_blocks_in_flight(monkeypatch):
    # the last block's item holds until the reader, claimed by the other
    # worker, has found that block pending: the reader waits for it and reads
    # the bits of a one-process scan, and every block is scanned once
    forks = _forks(monkeypatch, 2)
    plan = _disk_plan()
    last = len(plan.blocks) - 1
    scans = _SharedLog()
    started = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    scan_block = plan.scan_block

    def counted(k):
        if k == last:
            _wait_for(started, 0)
        scans.put(k)
        scan_block(k)

    plan = dataclasses.replace(plan, scan_block=counted)

    def read():
        pending = bool(plan.state[last] == distance.PENDING)
        started[0] = 1
        field = plan.scan()
        return pending, field.delta.copy(), field.gap.copy()

    items = [functools.partial(plan.scan_block, k) for k in range(len(plan.blocks))] + [read]
    with _time_limit(60):
        *_, (pending, delta, gap) = fanout._fan_out(items, lambda item: item())
    assert len(forks) == 2
    _no_child_left()
    assert pending
    assert sorted(scans.keys()) == list(range(len(plan.blocks)))
    assert (plan.state == distance.SCANNED).all()
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    whole = _disk_plan().scan()
    assert np.array_equal(delta, whole.delta) and np.array_equal(gap, whole.gap)


def test_in_process_items_run_in_list_order(monkeypatch):
    forks = _forks(monkeypatch, 1)
    order = []

    def work(i):
        order.append(i)
        return -i

    assert fanout._fan_out([3, 1, 2, 7, 0, 5], work) == [-3, -1, -2, -7, 0, -5]
    assert not forks
    assert order == [3, 1, 2, 7, 0, 5]


def test_failure_while_a_reader_waits_leaves_no_child(monkeypatch):
    # the last block's item fails without scanning once the reader waits for
    # that block: the caller raises the failure, kills the waiting reader and
    # leaves no worker
    forks = _forks(monkeypatch, 2)
    plan = _disk_plan()
    last = len(plan.blocks) - 1
    # the reader started, and it returned
    flags = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)

    def block(k):
        if k == last:
            _wait_for(flags, 0)
            time.sleep(0.1)
            raise ValueError("the last block's item fails")
        plan.scan_block(k)

    def read():
        flags[0] = 1
        plan.scan()
        flags[1] = 1

    items = [functools.partial(block, k) for k in range(len(plan.blocks))] + [read]
    with _time_limit(60), pytest.raises(ValueError) as info:
        fanout._fan_out(items, lambda item: item())
    assert str(info.value) == "the last block's item fails"
    assert len(forks) == 2
    _no_child_left()
    assert flags[0] == 1 and flags[1] == 0
    assert plan.state[last] == distance.PENDING


def test_a_pending_block_whose_owner_is_gone_raises():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    plan = dataclasses.replace(_disk_plan(), owner=pid)
    with _time_limit(60), pytest.raises(ProcessLookupError):
        plan.scan()
    assert (plan.state == distance.PENDING).all()


def _tree(out: Path):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


# a Wulff ball and an ellipsoid under a 3D weighted sum, as in the
# weighted-3d benchmark workload: two bodies, whose 3D run forks
WULFF_ELLIPSOID_D3 = {
    "integrand": {
        "family": "weighted-sum",
        "terms": [
            {"weight": 0.45, "integrand": {"family": "euclidean", "dimension": 3}},
            {
                "weight": 0.55,
                "integrand": {"family": "quadratic", "matrix": np.diag([3.2, 1.0, 1.0]).tolist()},
            },
        ],
    },
    "bodies": [
        {"id": "w", "kind": "wulff", "center": [0.3, -0.2, 0.5], "radius": 1.0},
        {
            "id": "e",
            "kind": "ellipsoid",
            "matrix": np.diag([0.6, 0.6, 1.0]).tolist(),
            "center": [2.5, 4.0, -3.5],
        },
    ],
    "resolution": [64, 128],
    "seed": 11,
    "suites": ["dual", "wulff", "curv", "hk", "mr", "var"],
}
RUNS = SCENES + ["wulff_ellipsoid_d3"]
STEMS = {p.stem for p in SCENES}


def _scene_file(tmp_path, scene):
    """The path of a shipped scene, or the generated one written to tmp_path."""
    if isinstance(scene, Path):
        return scene
    path = tmp_path / f"{scene}.json"
    path.write_text(json.dumps(WULFF_ELLIPSOID_D3))
    return path


@pytest.mark.parametrize("scene", RUNS, ids=[getattr(p, "stem", p) for p in RUNS])
def test_all_writes_the_serial_bytes(tmp_path, monkeypatch, scene):
    scene = _scene_file(tmp_path, scene)
    forks = _forks(monkeypatch, 1)
    serial = cli.run("all", scene, tmp_path / "serial")
    assert not forks
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 3)
    fanned = cli.run("all", scene, tmp_path / "fanned")
    _no_child_left()
    # one round of one worker per pretended CPU, but wulff_d3 runs its one
    # body, dual and wulff in-process: three items, fewer than FAN_OUT_ITEMS
    assert len(forks) == (0 if scene.stem == "wulff_d3" else 3)
    assert set(forks) <= {os.getpid()}
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
    # the run's HK report refuses once, from the flags the bodies' items sent
    # back, and the suites that read it raise the refusal again: the bodies
    # in-process with one usable CPU, in workers with three
    raw = dict(OVERLAPPING, suites=["dual", "wulff", "curv", "hk", "var"] + ["mr"] * with_mr)
    scene = tmp_path / "overlap.json"
    scene.write_text(json.dumps(raw))
    refused = []
    refuse_overlaps = suites.refuse_overlaps

    def watched(bodies, overlaps):
        try:
            refuse_overlaps(bodies, overlaps)
        except WulffkitError as exc:
            refused.append(exc)
            raise

    monkeypatch.setattr(suites, "refuse_overlaps", watched)
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


# a Wulff ball of radius 1e200 beside a far ellipsoid, in 3D
HUGE_BALL = {
    "integrand": {
        "family": "weighted-sum",
        "terms": [
            {"weight": 0.5, "integrand": {"family": "euclidean", "dimension": 3}},
            {
                "weight": 0.5,
                "integrand": {"family": "quadratic", "matrix": np.diag([3, 1, 1]).tolist()},
            },
        ],
    },
    "bodies": [
        {"id": "w", "kind": "wulff", "center": [0, 0, 0], "radius": 1e200},
        {
            "id": "e",
            "kind": "ellipsoid",
            "matrix": np.diag([1, 0.5, 0.25]).tolist(),
            "center": [6, 0, 0],
        },
    ],
    "resolution": [32, 64],
    "seed": 1,
    "suites": ["dual", "wulff", "curv", "hk", "mr", "var"],
}


def test_a_float_overflow_in_a_worker_exits_1_in_one_line(tmp_path, monkeypatch, capsys):
    # the workers overflowed with numpy warnings and the run ended in
    # 'derivative of the integrand is undefined at the origin'; they
    # inherit the run's floating-point setting and refuse the overflow
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps(HUGE_BALL))
    forks = _forks(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["all", "--scene", str(scene), "--out", str(tmp_path / "out")])
    _no_child_left()
    assert len(forks) == 2 and code == 1
    assert capsys.readouterr().err == "error: floating-point overflow in the run\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_run_cache_keeps_a_refusal(tmp_path, monkeypatch):
    # the run's HK report refuses once: hk and mr raise the kept refusal
    # again and evaluate nothing anew, and each body's node-rule flags and
    # row are built once, in-process as in forked workers
    raw = dict(OVERLAPPING, suites=["dual", "wulff", "curv", "hk", "mr", "var"])
    scene = tmp_path / "overlap.json"
    scene.write_text(json.dumps(raw))
    logs = {name: _SharedLog() for name in ("refuse_overlaps", "node_overlaps", "hk_row")}
    for name, log in logs.items():
        monkeypatch.setattr(suites, name, _counting(log, getattr(suites, name)))
    for cpus in (1, 3):
        for log in logs.values():
            log.data[0] = 0
        forks = _forks(monkeypatch, cpus)
        with pytest.raises(InputError) as exc:
            cli.run("all", scene, tmp_path / str(cpus))
        _no_child_left()
        assert bool(forks) == (cpus > 1)
        assert len(logs["refuse_overlaps"].keys()) == 1
        assert sorted(logs["node_overlaps"].keys()) == sorted(set(logs["node_overlaps"].keys()))
        assert len(logs["node_overlaps"].keys()) == len(logs["hk_row"].keys()) == 2
        assert type(exc.value) is InputError
        assert str(exc.value).startswith("bodies 0 and 1 are not disjoint (F* of their centres'")


NESTED = {
    "integrand": {"family": "quadratic", "matrix": [[4.0, 0.0], [0.0, 1.0]]},
    "bodies": [
        {"id": "e", "kind": "ellipsoid", "matrix": [[0.1, 0.0], [0.0, 0.1]], "center": [0.0, 0.0]},
        {"id": "w", "kind": "wulff", "center": [0.2, 0.0], "radius": 0.5},
    ],
    "resolution": 512,
    "seed": 3,
}
REFUSING = {
    # a Wulff ball inside an ellipsoid, which the node rule refuses
    "nested": (InputError, "bodies 1 and 0 are not disjoint (a boundary node of 1 lies in 0)"),
    # a second body with H <= 0 at its dents
    "flower": (HypothesisViolationError, "body 1 node "),
}


@pytest.mark.parametrize("case", list(REFUSING))
def test_forked_run_refuses_as_the_in_process_run(tmp_path, monkeypatch, case):
    # with one usable CPU the run raises the refusal pinned in REFUSING, and
    # var, after hk in the order, still writes its CSV; with three it forks,
    # raises the same refusal and writes the same bytes
    names = ["dual", "wulff", "curv", "hk", "mr", "var"]
    if case == "nested":
        scene = parse_scene(dict(NESTED, suites=names))
    else:
        ball = WulffBody(dual_norm_of(E2), np.array([-4.0, 0.0]), 1.0)
        scene = sampling.scene([("w", ball), ("f", sampling.Flower(0.35))], E2, 1024, names)
    kind, message = REFUSING[case]
    raised = {}
    for cpus in (1, 3):
        forks = _forks(monkeypatch, cpus)
        with pytest.raises(WulffkitError) as exc:
            suites.run_suites(names, scene, tmp_path / str(cpus))
        _no_child_left()
        assert bool(forks) == (cpus > 1)
        assert type(exc.value) is kind and str(exc.value).startswith(message)
        assert (tmp_path / str(cpus) / "var_residuals.csv").exists()
        raised[cpus] = str(exc.value)
    assert raised[3] == raised[1]
    assert _tree(tmp_path / "3") == _tree(tmp_path / "1")


def test_first_refusal_in_suite_order_is_raised(tmp_path, monkeypatch):
    # curv and var both refuse on both bodies; with one usable CPU as with
    # three, var runs too and the run raises curv's refusal of the first body
    def refusing(name):
        def part(scene, out, cache, k, res):
            raise InputError(f"{name} refuses body {k}")

        return part

    for name in ("curv", "var"):
        monkeypatch.setitem(suites._SUITES, name, refusing(name))
    scene = _scene_file(tmp_path, "wulff_ellipsoid_d3")
    for cpus in (1, 3):
        forks = _forks(monkeypatch, cpus)
        with pytest.raises(InputError, match="^curv refuses body 0$"):
            cli.run("all", scene, tmp_path / str(cpus))
        _no_child_left()
        assert bool(forks) == (cpus > 1)


def test_suites_that_read_no_body_make_no_body_items(tmp_path, monkeypatch):
    # dual and wulff read no body's products: on three bodies with three
    # usable CPUs they are the run's two items, which run in-process
    raw = dict(OVERLAPPING, bodies=[
        {"id": f"w{k}", "kind": "wulff", "center": [3.0 * k, 0.0], "radius": 1.0} for k in range(3)
    ])
    counts, fan_out = [], suites._fan_out

    def counted(items, work):
        counts.append(len(items))
        return fan_out(items, work)

    monkeypatch.setattr(suites, "_fan_out", counted)
    forks = _forks(monkeypatch, 3)
    results = suites.run_suites(["dual", "wulff"], parse_scene(raw), tmp_path)
    assert [r.name for r in results] == ["dual", "wulff"] and all(r.passed for r in results)
    assert counts == [2] and not forks

def test_fields_plans_every_field_the_suites_read():
    scene = load_scene(ROOT / "scenes" / "wulff_d2.json")
    bodies = [body for _, body in scene.bodies]
    cache = suites.RunCache(scene)
    cache.fields(["dual", "wulff", "curv", "var"])
    # no field, and nothing else
    assert not cache.plans and not cache._built

    cache = suites.RunCache(scene)
    cache.fields(list(SUITE_ORDER))
    assert all((body, scene.integrand) in cache._built for body in bodies)
    # and, for the reach suite, each body's Euclidean field
    assert not isinstance(scene.integrand, EuclideanNorm)
    assert all((body, EuclideanNorm(2)) in cache._built for body in bodies)
    assert len(cache.plans) == 2 * len(bodies)

    cache = suites.RunCache(scene)
    cache.fields(["steiner"])
    # steiner reads only the scene-integrand field, beside each body's table
    assert all((body, scene.integrand) in cache._built for body in bodies)
    assert all((body, EuclideanNorm(2)) not in cache._built for body in bodies)
    assert len(cache.plans) == len(bodies)
    assert set(cache._built) == {
        key for body in bodies for key in (body, ("source", body), (body, scene.integrand))
    }


class _SharedLog:
    """Keys of the calls made in this process and in its forked workers,
    appended under a lock to an array in a shared mapping."""

    def __init__(self, slots=256):
        self.lock = multiprocessing.get_context("fork").Lock()
        self.data = np.frombuffer(mmap.mmap(-1, 8 * (slots + 1)), dtype=np.int64)

    def add(self, *parts):
        digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
        self.put(int.from_bytes(digest, "little", signed=True))

    def put(self, key: int):
        with self.lock:
            n = int(self.data[0])
            self.data[1 + n] = key
            self.data[0] = n + 1

    def keys(self):
        return list(self.data[1 : 1 + int(self.data[0])])


def _counting(log, fn):
    """``fn``, logging each call by its last argument: the body index of
    ``node_overlaps`` and ``hk_row``."""

    def counted(*args):
        log.add(repr(args[-1]))
        return fn(*args)

    return counted


def _planned(log_plan, log_scan):
    """``distance._plan_field``, logging each call through ``log_plan`` and
    each block scan of its plans through ``log_scan``, both with the content
    of the plan's inputs, the scan with the block's index too."""
    plan_field = distance._plan_field

    def plan(source, f, grid, *args):
        key = (source.points.tobytes(), repr(f), repr(grid))
        log_plan(*key)
        made = plan_field(source, f, grid, *args)

        def scan_block(k):
            log_scan(*key, k)
            return made.scan_block(k)

        return dataclasses.replace(made, scan_block=scan_block)

    return plan


def _blocks(scene) -> int:
    """Coarse blocks of each of the scene's fields."""
    grid = scene.grid
    whole = tuple(slice(0, n) for n in grid.shape)
    return len(list(distance._boxes(whole, distance.BLOCK_CELLS)))


def _logged(monkeypatch):
    """Log each sample_surface, curvature_table and field plan by the content
    of its inputs, and each block scan by its field's inputs and its index."""
    logs = {name: _SharedLog() for name in ("sample_surface", "curvature_table", "plan")}
    logs["scan"] = _SharedLog(slots=1024)
    sample_surface, curvature_table = suites.sample_surface, suites.curvature_table

    def sampled(body, resolution):
        logs["sample_surface"].add(repr(body), repr(resolution))
        return sample_surface(body, resolution)

    def table(body, f, quad):
        logs["curvature_table"].add(repr(body), repr(f), quad.points.tobytes())
        return curvature_table(body, f, quad)

    for module in (suites, distance):
        monkeypatch.setattr(module, "sample_surface", sampled)
    monkeypatch.setattr(suites, "curvature_table", table)
    monkeypatch.setattr(distance, "_plan_field", _planned(logs["plan"].add, logs["scan"].add))
    return logs


@pytest.mark.parametrize("name", ["wulff_d2", "two_wulff_d2", "wulff_d3", "wulff_ellipsoid_d3"])
def test_shared_products_are_built_once_across_processes(tmp_path, monkeypatch, name):
    scene = _scene_file(tmp_path, ROOT / "scenes" / f"{name}.json" if name in STEMS else name)
    bodies = len(load_scene(scene).bodies)
    logs = _logged(monkeypatch)
    forks = _forks(monkeypatch, 1)
    cli.run("all", scene, tmp_path / "serial")
    assert not forks
    serial = {k: log.keys() for k, log in logs.items()}
    for log in logs.values():
        log.data[0] = 0
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 3)
    cli.run("all", scene, tmp_path / "fanned")
    # wulff_d3's body, dual and wulff, three items, run in-process
    assert bool(forks) == (name != "wulff_d3")
    _no_child_left()
    for key, log in logs.items():
        calls = log.keys()
        assert len(calls) == len(set(calls)), key
        assert sorted(calls) == sorted(serial[key]), key
    # each body's table once per run, and in 2D its two complement fields,
    # under F for steiner and reach and Euclidean for reach, each planned
    # once and each of their blocks scanned once
    assert logs["sample_surface"].keys()
    assert len(logs["curvature_table"].keys()) == bodies
    fields = 2 * bodies * name.endswith("d2")
    assert len(logs["plan"].keys()) == fields
    scans = fields * _blocks(load_scene(scene)) if fields else 0
    assert len(logs["scan"].keys()) == scans


# a weighted-sum Wulff ball on an h = 0.01 grid, as in the weighted-2d
# benchmark workload: one body whose reach suite reads a Euclidean field
WEIGHTED_D2 = {
    "integrand": {
        "family": "weighted-sum",
        "terms": [
            {"weight": 0.45, "integrand": {"family": "euclidean", "dimension": 2}},
            {
                "weight": 0.55,
                "integrand": {"family": "quadratic", "matrix": [[2.5, 0.9], [0.9, 1.5]]},
            },
        ],
    },
    "bodies": [{"id": "w", "kind": "wulff", "center": [0.2, -0.3], "radius": 0.45}],
    "resolution": 4096,
    "grid": {"bounds": [[-1.0, 1.4], [-1.5, 0.9]], "cells": [240, 240]},
    "seed": 5,
    "steiner": {"source_resolution": 1024},
}


@pytest.mark.parametrize("name", ["wulff_d2", "two_wulff_d2", "weighted_d2"])
def test_the_run_alone_forks_and_builds_fields(tmp_path, monkeypatch, name):
    # one fork round per run: the run's own process plans every field and
    # makes one fan-out, which forks min(CPUs, items) workers; with two and
    # three usable CPUs they scan every block once, and none of them forks.
    # Each run writes the bytes of the one-CPU run
    if name in STEMS:
        scene = ROOT / "scenes" / f"{name}.json"
    else:
        scene = tmp_path / f"{name}.json"
        scene.write_text(json.dumps(WEIGHTED_D2))
    loaded = load_scene(scene)
    pids = {"fork": _SharedLog(), "plan": _SharedLog(), "scan": _SharedLog(slots=1024)}
    fork, fan_out, counts = os.fork, suites._fan_out, []

    def forked():
        pids["fork"].put(os.getpid())
        return fork()

    def counted(items, work):
        counts.append(len(items))
        return fan_out(items, work)

    monkeypatch.setattr(os, "fork", forked)
    monkeypatch.setattr(suites, "_fan_out", counted)
    monkeypatch.setattr(
        distance,
        "_plan_field",
        _planned(lambda *key: pids["plan"].put(os.getpid()), lambda *key: pids["scan"].put(os.getpid())),
    )
    runs = {}
    for cpus in (1, 2, 3):
        for log in pids.values():
            log.data[0] = 0
        counts.clear()
        monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
        runs[cpus] = cli.run("all", scene, tmp_path / str(cpus))
        _no_child_left()
        forks, plans, scans = (pids[key].keys() for key in ("fork", "plan", "scan"))
        assert len(plans) == 2 * len(loaded.bodies) and set(plans) == {os.getpid()}
        # every block of every field, one item per body, dual and wulff,
        # and last one per body and field reader
        (items,) = counts
        assert len(scans) == len(plans) * _blocks(loaded)
        assert items == len(scans) + 3 * len(loaded.bodies) + 2
        if cpus == 1:
            assert not forks and set(scans) == {os.getpid()}
        else:
            assert len(forks) == min(cpus, items) and set(forks) == {os.getpid()}
            assert os.getpid() not in set(scans)
    assert runs[3] == runs[2] == runs[1] == 0
    assert _tree(tmp_path / "3") == _tree(tmp_path / "2") == _tree(tmp_path / "1")


def test_a_refused_block_refuses_its_field_alone(tmp_path, monkeypatch, capsys):
    # membership refuses in two blocks of wulff_d2's Euclidean field: with
    # one, two and three usable CPUs the run exits 1 naming the first of them
    # in row-major order, as a one-CPU scan stops there; steiner, which reads
    # the scene-integrand field alone, writes its CSV, and reach, which reads
    # both, writes nothing, nor does the run write its report
    scene = ROOT / "scenes" / "wulff_d2.json"
    grid = load_scene(scene).grid
    whole = tuple(slice(0, n) for n in grid.shape)
    boxes = list(distance._boxes(whole, distance.BLOCK_CELLS))
    refused = {distance._box_centers(grid._axes(), boxes[k])[0].tobytes(): k for k in (50, 30)}
    plan_field = distance._plan_field

    def plan(source, f, grid, *args):
        if isinstance(f, EuclideanNorm):
            outside = source.inside

            def inside(x):
                k = refused.get(x[0].tobytes())
                if k is not None:
                    raise SolverError(f"membership refused in block {k}")
                return outside(x)

            source = dataclasses.replace(source, inside=inside)
        return plan_field(source, f, grid, *args)

    monkeypatch.setattr(distance, "_plan_field", plan)
    trees = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(fanout, "_usable_cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        assert cli.main(["all", "--scene", str(scene), "--out", str(out)]) == 1
        _no_child_left()
        assert capsys.readouterr().err == "error: membership refused in block 30\n"
        trees[cpus] = _tree(out)
    assert trees[3] == trees[2] == trees[1]
    files = {str(path) for path in trees[1]}
    assert "steiner_w1.csv" in files and "var_residuals.csv" in files
    assert "report.json" not in files
