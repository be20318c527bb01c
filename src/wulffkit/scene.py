"""Scene files: JSON descriptions of an integrand, bodies, grid, and suites."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .distance import GridSpec
from .duality import DualNorm, dual_norm_of
from .errors import InputError, SceneError
from .hypersurface import Ellipsoid, StarBody, Superellipse, WulffBody
from .integrand import EuclideanNorm, Integrand, QuadraticNorm, WeightedSum
from .spheregrid import grid_counts

__all__ = ["Scene", "load_scene", "parse_scene", "DEFAULT_TOLERANCES", "SUITE_ORDER"]

# canonical suite order; the CLI exit code 2 + index names the first failure
SUITE_ORDER = ("dual", "wulff", "curv", "hk", "mr", "steiner", "reach", "var")

DEFAULT_TOLERANCES = {
    "tol_eq": 1e-3,
    "tol_fit": 1e-3,
    "tol_r": 0.02,
    "eps_cluster": 1e-3,
    "tol_unique": None,
    "steiner_residual": 1e-2,
}

DEFAULT_STEINER = {"lo_frac": 0.05, "hi_frac": 0.9, "samples": 40}


@dataclass(frozen=True, eq=False)
class Scene:
    integrand: Integrand
    dual: DualNorm
    bodies: tuple            # of (id, StarBody)
    resolution: object
    grid: Optional[GridSpec]
    seed: int
    suites: tuple
    tolerances: dict
    hk_c: Optional[float]
    steiner: dict

    @property
    def dim(self) -> int:
        return self.integrand.dim


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise SceneError(f"{where}: expected an object")
    if key not in mapping:
        raise SceneError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _section(raw, key, default):
    """An optional object or list field of the scene root, of the default's kind."""
    value = raw.get(key, default)
    if isinstance(default, dict) and not isinstance(value, dict):
        raise SceneError(f"{key}: expected an object")
    if isinstance(default, list) and not isinstance(value, (list, tuple)):
        raise SceneError(f"{key}: expected a list")
    return value


def _convert(kind, value, where):
    """kind(value) for a scalar field, finite if a float, or a SceneError
    naming the field."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise SceneError(f"{where}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not np.isfinite(out):
        raise SceneError(f"{where}: expected a finite number, got {value!r}")
    return out


def _array(value, where):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise SceneError(f"{where}: expected an array of numbers") from None


def _count(value, where):
    """A whole number as an int, or a SceneError naming the field."""
    count = _convert(int, value, where)
    if isinstance(value, float) and value != count:
        raise SceneError(f"{where}: expected an integer, got {value!r}")
    return count


def _counts(value, where):
    """One whole number, or a list of them as a hashable tuple."""
    if isinstance(value, list):
        return tuple(_count(v, where) for v in value)
    return _count(value, where)


def _resolution(value, where, dim):
    """``_counts`` that ``grid_counts`` accepts in dimension ``dim``."""
    value = _counts(value, where)
    try:
        grid_counts(dim, value)
    except InputError as exc:
        raise SceneError(f"{where}: {exc}") from None
    return value


def _parse_integrand(spec, where="integrand") -> Integrand:
    family = _require(spec, "family", where)
    try:
        if family == "euclidean":
            dim = _count(_require(spec, "dimension", where), f"{where}.dimension")
            return EuclideanNorm(dim)
        if family == "quadratic":
            return QuadraticNorm(np.asarray(_require(spec, "matrix", where), dtype=float))
        if family == "weighted-sum":
            terms = _require(spec, "terms", where)
            parsed = []
            for k, term in enumerate(terms):
                w = float(_require(term, "weight", f"{where}.terms[{k}]"))
                inner = _parse_integrand(
                    _require(term, "integrand", f"{where}.terms[{k}]"),
                    f"{where}.terms[{k}].integrand",
                )
                parsed.append((w, inner))
            return WeightedSum(tuple(parsed))
    except SceneError:
        raise
    except Exception as exc:
        raise SceneError(f"{where}: {exc}") from exc
    raise SceneError(f"{where}: unknown family {family!r}")


def _parse_body(spec, dual: DualNorm, index: int) -> tuple:
    where = f"bodies[{index}]"
    kind = _require(spec, "kind", where)
    body_id = str(spec.get("id", f"body{index}"))
    center = _array(_require(spec, "center", where), f"{where}.center")
    try:
        if kind == "wulff":
            body: StarBody = WulffBody(
                dual=dual, center=center, radius=float(_require(spec, "radius", where))
            )
        elif kind == "ellipsoid":
            body = Ellipsoid(
                matrix=np.asarray(_require(spec, "matrix", where), dtype=float),
                center=center,
            )
        elif kind == "superellipse":
            body = Superellipse(
                semi_axes=tuple(_require(spec, "semi_axes", where)),
                exponent=float(_require(spec, "exponent", where)),
                center=center,
            )
        else:
            raise SceneError(f"{where}: unknown kind {kind!r}")
    except SceneError:
        raise
    except Exception as exc:
        raise SceneError(f"{where}: {exc}") from exc
    return body_id, body


def parse_scene(raw: dict) -> Scene:
    if not isinstance(raw, dict):
        raise SceneError("scene root must be an object")
    integrand = _parse_integrand(_require(raw, "integrand", "scene"))
    dual = dual_norm_of(integrand)

    bodies = []
    for k, spec in enumerate(_section(raw, "bodies", [])):
        bodies.append(_parse_body(spec, dual, k))
    ids = [b[0] for b in bodies]
    if len(set(ids)) != len(ids):
        raise SceneError("bodies: ids must be unique")
    for body_id, body in bodies:
        if body.dim != integrand.dim:
            raise SceneError(f"bodies[{body_id}]: dimension differs from the integrand")

    resolution = _resolution(
        raw.get("resolution", 4096 if integrand.dim == 2 else [64, 128]),
        "resolution",
        integrand.dim,
    )

    grid = None
    if "grid" in raw:
        gspec = raw["grid"]
        bounds = _array(_require(gspec, "bounds", "grid"), "grid.bounds")
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise SceneError("grid.bounds: expected [[lo, hi], ...] per axis")
        try:
            cells = _counts(gspec.get("cells", 256), "grid.cells")
            grid = GridSpec(lo=bounds[:, 0], hi=bounds[:, 1], cells=cells)
        except (InputError, TypeError, ValueError) as exc:
            raise SceneError(f"grid: {exc}") from None
        if grid.dim != integrand.dim:
            raise SceneError("grid: dimension differs from the integrand")

    suites = tuple(_section(raw, "suites", list(SUITE_ORDER)))
    for s in suites:
        if s not in SUITE_ORDER:
            raise SceneError(f"suites: unknown suite {s!r}")

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in _section(raw, "tolerances", {}).items():
        if key not in DEFAULT_TOLERANCES:
            raise SceneError(f"tolerances: unknown key {key!r}")
        if DEFAULT_TOLERANCES[key] is None and value is None:
            continue
        tolerances[key] = _convert(float, value, f"tolerances.{key}")
        if tolerances[key] < 0.0:
            raise SceneError(f"tolerances.{key}: expected a non-negative number, got {value!r}")

    steiner = dict(DEFAULT_STEINER)
    for key, value in _section(raw, "steiner", {}).items():
        if key not in ("lo_frac", "hi_frac", "samples", "reference_radius", "source_resolution"):
            raise SceneError(f"steiner: unknown key {key!r}")
        if key == "source_resolution":
            value = _resolution(value, "steiner.source_resolution", integrand.dim)
        elif key == "samples":
            value = _count(value, "steiner.samples")
        elif value is not None or key != "reference_radius":
            value = _convert(float, value, f"steiner.{key}")
        steiner[key] = value
    lo, hi, r_ref = steiner["lo_frac"], steiner["hi_frac"], steiner.get("reference_radius")
    if lo <= 0.0:
        raise SceneError(f"steiner.lo_frac: expected a positive number, got {lo!r}")
    if hi <= lo:
        raise SceneError(f"steiner.hi_frac: expected a number above lo_frac {lo!r}, got {hi!r}")
    if r_ref is not None and r_ref <= 0.0:
        raise SceneError(f"steiner.reference_radius: expected a positive number, got {r_ref!r}")

    hk_c = None
    for key, value in _section(raw, "hk", {}).items():
        if key != "c":
            raise SceneError(f"hk.{key}: unknown key")
        if value is not None:
            hk_c = _convert(float, value, "hk.c")
            if hk_c <= 0.0:
                raise SceneError(f"hk.c: expected a positive number, got {value!r}")
    seed = _count(raw.get("seed", 0), "seed")
    if seed < 0:
        raise SceneError(f"seed: expected a non-negative integer, got {seed}")
    return Scene(
        integrand=integrand,
        dual=dual,
        bodies=tuple(bodies),
        resolution=resolution,
        grid=grid,
        seed=seed,
        suites=suites,
        tolerances=tolerances,
        hk_c=hk_c,
        steiner=steiner,
    )


def load_scene(path) -> Scene:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise SceneError(f"scene file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SceneError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return parse_scene(raw)
