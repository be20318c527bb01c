"""The benchmark's workloads: seeded scene generation, one timed pass, and its oracle.

Constructing a workload is its set-up (scene generation and ``load_scene``);
``run_pass`` is the timed part and only calls the public API
(``wulffkit.cli.run``, ``wulffkit.distance``); ``check`` judges the pass
afterwards with ``oracle``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from wulffkit import cli, load_scene
from wulffkit import distance as dist
from wulffkit.errors import WulffkitError

from oracle import check_queries, check_scene, weighted_norm

H = 0.01          # grid spacing of the generated 2D scene
MARGIN = 1.2      # grid half-width over the body's half-width, per axis
QUERIES = 350     # projections per weighted-2d pass; three passes give a p99 with 10 beyond it


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def _run_all(scene_path, out, seed=None):
    """`wulffkit all` through the public entry point; an exit code or the error."""
    try:
        return cli.run("all", scene_path, out, seed=seed)
    except WulffkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _weighted_sum(a, m):
    dim = len(m)
    return {
        "family": "weighted-sum",
        "terms": [
            {"weight": a, "integrand": {"family": "euclidean", "dimension": dim}},
            {"weight": 1.0 - a, "integrand": {"family": "quadratic", "matrix": m.tolist()}},
        ],
    }


def _rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class Workload:
    """Set up in the constructor; ``run_pass`` is timed, ``check`` is not.

    A workload is built from the run's seed and the pass index, so each pass
    of a generated workload gets its own scene and one unlucky scene moves a
    run's median little; the shipped scenes ignore the index.
    """

    def latencies(self, outcome):
        """Seconds per projection query of a pass."""
        return []

    def completed(self, outcome) -> bool:
        """Whether every `wulffkit all` of the pass returned instead of raising."""
        raise NotImplementedError


class ShippedScenes(Workload):
    """`all` on the shipped 2D scenes with the benchmark seed as --seed."""

    SCENES = {
        "ball": "wulff-union",
        "ellipse": "strict",
        "superellipse": "strict",
        "two_wulff": "wulff-union",
        "wulff": "wulff-union",
    }

    def __init__(self, root: Path, seed: int, index: int, work: Path):
        self.seed, self.work = seed, work
        self.paths = {name: root / "scenes" / f"{name}_d2.json" for name in self.SCENES}
        for path in self.paths.values():
            load_scene(path)

    def run_pass(self):
        return {
            name: _run_all(path, self.work / name, seed=self.seed)
            for name, path in self.paths.items()
        }

    def check(self, outcome):
        return [
            check_scene(name, outcome[name], self.work / name / "report.json", expected)
            for name, expected in self.SCENES.items()
        ]

    def reports(self):
        return {name: _digest(self.work / name / "report.json") for name in self.SCENES}

    def completed(self, outcome):
        return all(isinstance(code, int) for code in outcome.values())


class Weighted2D(Workload):
    """A seeded weighted-sum Wulff ball on an h = 0.01 grid, then projection queries.

    The radius is scaled so the grid holds about (2 * MARGIN * 0.5 / H)^2
    cells whatever the anisotropy, which keeps a pass's cost steady across
    seeds; bounds are symmetric about the centre as in the shipped scenes.
    """

    SOURCE_RESOLUTION = 1024

    def __init__(self, root: Path, seed: int, index: int, work: Path):
        self.work = work
        rng = np.random.default_rng([seed, index, 2])
        self.a = float(rng.uniform(0.3, 0.7))
        lam = rng.uniform(2.0, 4.0)
        rot = _rotation(rng, 2)
        self.m = rot @ np.diag([lam, 1.0]) @ rot.T
        self.center = rng.uniform(-1.0, 1.0, 2)
        half = weighted_norm(np.eye(2), self.a, self.m)  # support function on the axes
        self.radius = float(0.5 / np.sqrt(half.prod()))
        extent = MARGIN * self.radius * half
        raw = {
            "integrand": _weighted_sum(self.a, self.m),
            "bodies": [
                {"id": "w", "kind": "wulff", "center": self.center.tolist(), "radius": self.radius}
            ],
            "resolution": 4096,
            "grid": {
                "bounds": np.stack([self.center - extent, self.center + extent], axis=1).tolist(),
                "cells": [int(round(2 * e / H)) for e in extent],
            },
            "seed": seed,
            "steiner": {
                "lo_frac": 0.05,
                "hi_frac": 0.9,
                "samples": 40,
                "reference_radius": 0.95 * self.radius,
                "source_resolution": self.SOURCE_RESOLUTION,
            },
        }
        work.mkdir(parents=True, exist_ok=True)
        self.scene_path = work / "weighted_2d.json"
        self.scene_path.write_text(json.dumps(raw, indent=1))
        self.scene = load_scene(self.scene_path)
        grid = self.scene.grid
        self.points = grid.lo + rng.uniform(size=(QUERIES, 2)) * (grid.hi - grid.lo)

    def run_pass(self):
        code = _run_all(self.scene_path, self.work / "weighted")
        scene = self.scene
        results, latency = [], []
        try:
            source = dist.boundary_source(
                [scene.bodies[0][1]], self.SOURCE_RESOLUTION, region="complement"
            )
            field = dist.build_field(
                source,
                scene.integrand,
                scene.grid,
                eps_cluster=scene.tolerances["eps_cluster"],
                tol_unique=scene.tolerances["tol_unique"],
            )
        except WulffkitError as exc:
            return code, [f"field: {type(exc).__name__}: {exc}"] * len(self.points), latency
        for x in self.points:
            start = time.perf_counter()
            try:
                res = dist.project(field, x)
                results.append((res.delta, res.ambiguous))
            except WulffkitError as exc:
                results.append(f"{type(exc).__name__}: {exc}")
            latency.append(time.perf_counter() - start)
        return code, results, latency

    def check(self, outcome):
        code, results, _latency = outcome
        report = self.work / "weighted" / "report.json"
        return [check_scene("weighted-2d", code, report, "wulff-union")] + check_queries(
            self.points, results, self.a, self.m, self.center, self.radius, self.scene.grid.h
        )

    def reports(self):
        return {"weighted-2d": _digest(self.work / "weighted" / "report.json")}

    def latencies(self, outcome):
        return outcome[2]

    def completed(self, outcome):
        return isinstance(outcome[0], int)


class Weighted3D(Workload):
    """A seeded 3D weighted-sum Wulff ball and a far-away ellipsoid; no grid.

    M and the ellipsoid are axis-aligned, as in scenes/wulff_d3.json: rotated
    at random, more of their checks exceed the pinned tolerances on the
    lat-long grid at [96, 192] (see README.md).
    """

    RESOLUTION = [96, 192]

    def __init__(self, root: Path, seed: int, index: int, work: Path):
        self.work = work
        rng = np.random.default_rng([seed, index, 3])
        a = float(rng.uniform(0.3, 0.7))
        m = np.diag([rng.uniform(2.0, 4.0), 1.0, 1.0])
        wulff_center = rng.uniform(-1.0, 1.0, 3)
        ellipsoid = np.diag(1.0 / rng.uniform(1.0, 2.0, 3) ** 2)
        away = rng.standard_normal(3)
        # bounding radii are at most 2 (Wulff ball) and 2 (ellipsoid)
        ellipsoid_center = wulff_center + 6.0 * away / np.linalg.norm(away)
        raw = {
            "integrand": _weighted_sum(a, m),
            "bodies": [
                {"id": "w", "kind": "wulff", "center": wulff_center.tolist(), "radius": 1.0},
                {
                    "id": "e",
                    "kind": "ellipsoid",
                    "matrix": ellipsoid.tolist(),
                    "center": ellipsoid_center.tolist(),
                },
            ],
            "resolution": self.RESOLUTION,
            "seed": seed,
            "suites": ["dual", "wulff", "curv", "hk", "mr", "var"],
        }
        work.mkdir(parents=True, exist_ok=True)
        self.scene_path = work / "weighted_3d.json"
        self.scene_path.write_text(json.dumps(raw, indent=1))
        load_scene(self.scene_path)

    def run_pass(self):
        return _run_all(self.scene_path, self.work / "weighted")

    def check(self, outcome):
        return [
            check_scene("weighted-3d", outcome, self.work / "weighted" / "report.json", "strict")
        ]

    def reports(self):
        return {"weighted-3d": _digest(self.work / "weighted" / "report.json")}

    def completed(self, outcome):
        return isinstance(outcome, int)


WORKLOADS = {
    "shipped-2d": ShippedScenes,
    "weighted-2d": Weighted2D,
    "weighted-3d": Weighted3D,
}
