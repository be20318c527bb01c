"""Scene files: JSON descriptions of an integrand, bodies, grid, and suites."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .distance import EPS_CLUSTER, GridSpec
from .duality import DualNorm, dual_norm_of
from .errors import InputError, SceneError
from .hypersurface import Ellipsoid, StarBody, Superellipse, WulffBody, surface_counts
from .integrand import EuclideanNorm, Integrand, QuadraticNorm, WeightedSum
from .steiner import HI_FRAC, LO_FRAC, SAMPLES

__all__ = ["Scene", "load_scene", "parse_scene", "reseed", "SUITE_ORDER"]

# canonical suite order; the CLI exit code 2 + index names the first failure
SUITE_ORDER = ("dual", "wulff", "curv", "hk", "mr", "steiner", "reach", "var")

# the tube window of the steiner suite is pinned in the library; a scene may
# still state each key, at its pinned value only
_PINNED_STEINER = {"lo_frac": LO_FRAC, "hi_frac": HI_FRAC, "samples": SAMPLES}


@dataclass(frozen=True, eq=False)
class Scene:
    integrand: Integrand
    dual: DualNorm
    bodies: tuple            # of (id, StarBody)
    resolution: object
    grid: Optional[GridSpec]
    seed: int
    suites: tuple
    hk_c: Optional[float]
    steiner: dict

    @property
    def dim(self) -> int:
        return self.integrand.dim

    @property
    def tolerances(self) -> dict:
        """The one value ``build_field`` accepts for each of its pinned
        ``eps_cluster`` and ``tol_unique`` keywords, by keyword, as the
        benchmark harness passes them; no scene sets them."""
        return {"eps_cluster": EPS_CLUSTER, "tol_unique": None}


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
    naming the field.  A JSON boolean is not a number."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise SceneError(f"{where}: expected {kind.__name__}, got {value!r}") from None
    if kind is float and not np.isfinite(out):
        raise SceneError(f"{where}: expected a finite number, got {value!r}")
    return out


def _array(value, where):
    """value as a float array, or a SceneError naming the field.  A JSON
    boolean at any depth is not a number."""
    try:
        if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).ravel()):
            raise TypeError
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
    """``_counts`` that ``sample_surface`` takes in dimension ``dim``."""
    value = _counts(value, where)
    try:
        surface_counts(dim, value)
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
            return QuadraticNorm(_array(_require(spec, "matrix", where), f"{where}.matrix"))
        if family == "weighted-sum":
            terms = _require(spec, "terms", where)
            parsed = []
            for k, term in enumerate(terms):
                at = f"{where}.terms[{k}]"
                w = _convert(float, _require(term, "weight", at), f"{at}.weight")
                inner = _parse_integrand(_require(term, "integrand", at), f"{at}.integrand")
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
    body_id = spec.get("id", f"body{index}")
    # ids name output files and CSV fields
    if not isinstance(body_id, str) or not re.fullmatch(r"[A-Za-z0-9_-]+", body_id):
        raise SceneError(
            f"{where}.id: expected a string of letters, digits, '_' or '-', got {body_id!r}"
        )
    center = _array(_require(spec, "center", where), f"{where}.center")
    try:
        if kind == "wulff":
            body: StarBody = WulffBody(
                dual=dual,
                center=center,
                radius=_convert(float, _require(spec, "radius", where), f"{where}.radius"),
            )
        elif kind == "ellipsoid":
            body = Ellipsoid(
                matrix=_array(_require(spec, "matrix", where), f"{where}.matrix"),
                center=center,
            )
        elif kind == "superellipse":
            body = Superellipse(
                semi_axes=_array(_require(spec, "semi_axes", where), f"{where}.semi_axes"),
                exponent=_convert(float, _require(spec, "exponent", where), f"{where}.exponent"),
                center=center,
            )
        else:
            raise SceneError(f"{where}: unknown kind {kind!r}")
    except SceneError:
        raise
    except Exception as exc:
        raise SceneError(f"{where}: {exc}") from exc
    return body_id, body


def _seed(value) -> int:
    seed = _count(value, "seed")
    if seed < 0:
        raise SceneError(f"seed: expected a non-negative integer, got {seed}")
    return seed


def reseed(scene: Scene, seed) -> Scene:
    """``scene`` with another seed, refused as the same seed in its file
    would be."""
    return replace(scene, seed=_seed(seed))


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

    if "tolerances" in raw:
        section = raw["tolerances"]
        key = next(iter(section), None) if isinstance(section, dict) else None
        where = "tolerances" if key is None else f"tolerances.{key}"
        raise SceneError(f"{where}: verdict tolerances are pinned in the library, not the scene")

    steiner = {}
    for key, value in _section(raw, "steiner", {}).items():
        where = f"steiner.{key}"
        if key in _PINNED_STEINER:
            pinned = _PINNED_STEINER[key]
            # type, not isinstance: a JSON boolean is not a number
            if type(value) not in (int, float) or value != pinned:
                raise SceneError(
                    f"{where}: the tube window is pinned in the library at {pinned}, "
                    f"not the scene; got {value!r}"
                )
            continue
        if key == "source_resolution":
            value = _resolution(value, where, integrand.dim)
        elif key != "reference_radius":
            raise SceneError(f"steiner: unknown key {key!r}")
        elif value is not None:
            value = _convert(float, value, where)
            if value <= 0.0:
                raise SceneError(f"{where}: expected a positive number, got {value!r}")
        steiner[key] = value

    hk_c = None
    for key, value in _section(raw, "hk", {}).items():
        if key != "c":
            raise SceneError(f"hk.{key}: unknown key")
        if value is not None:
            hk_c = _convert(float, value, "hk.c")
            if hk_c <= 0.0:
                raise SceneError(f"hk.c: expected a positive number, got {value!r}")
    return Scene(
        integrand=integrand,
        dual=dual,
        bodies=tuple(bodies),
        resolution=resolution,
        grid=grid,
        seed=_seed(raw.get("seed", 0)),
        suites=suites,
        hk_c=hk_c,
        steiner=steiner,
    )


def load_scene(path) -> Scene:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SceneError(f"scene file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SceneError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SceneError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from None
    return parse_scene(raw)
