"""Every distance field that ``wulffkit all`` plans on the shipped 2D scenes,
and fields whose F* prunes by the box extent bound (a rotated M, weighted
sums), against a brute force over every source.

Of the shipped scenes, those under Euclidean or diagonal-quadratic F take
the axis tables, and ``rotated_ellipse_d2`` and ``weighted_wulff_d2`` prune
by the extent bound; the generated ones follow the weighted-sum benchmark
scene's recipe (a weighted sum of |x| and a rotated M, a Wulff ball, 1024
sources, an h = 0.01 grid) and add the complement of two rotated ellipses
under a rotated M.

delta is the least of the field's own closed-form values F*(a - x) over
every source a (``dual.batch_value_fast``, as ``project``'s cross-check
takes them; under a rotated M, the Euclidean distances of the mapped
points, as ``distance._pairwise_values`` takes them, which can differ
from ``batch_value_fast`` in the last bit), and the flag is the
pdist oracle ``resolve_flag`` on those values: a near-minimizer cluster
split into several single-linkage components at ``tol_unique``, or holding
half the curve.  Neither goes through the field's blocks, tiles, candidate
bounds or cluster analysis.  The checked cells are a seeded sample outside
A, every flagged cell, and a seeded sample of cells on the borders of the
coarse blocks and fine tiles, where a candidate bound is tightest.
"""

from pathlib import Path

import numpy as np
import pytest

from wulffkit import (
    DualNorm, Ellipsoid, EuclideanNorm, GridSpec, QuadraticNorm, WeightedSum, WulffBody,
    boundary_source, distance, load_scene,
)
from wulffkit.distance import WINDOW_CELLS
from wulffkit.scene import SUITE_ORDER
from wulffkit.suites import RunCache

from oracles import resolve_flag
from sampling import grid_centers, region_source

ROOT = Path(__file__).resolve().parents[1]
SCENES = sorted(p.stem for p in (ROOT / "scenes").glob("*_d2.json"))
SAMPLE = 256


def _plans(name):
    scene = load_scene(ROOT / "scenes" / f"{name}.json")
    cache = RunCache(scene)
    cache.fields([s for s in SUITE_ORDER if s in scene.suites])
    return cache.plans


def _borders(n, block, side):
    """Per cell along one grid axis of n cells, whether it is the first or
    the last of its coarse block of ``block`` cells or of its fine tile of
    ``side`` cells."""
    first = np.arange(n) % block % side == 0
    return first | np.append(first[1:], True)


def _checked_cells(field, rng):
    """Flat indices of the cells to check: a sample outside A, every flagged
    cell, and a sample on block and tile borders."""
    grid = field.grid
    outside = ~field.source.membership(grid_centers(grid))
    lines = distance._axis_lines(field.dual, field.source.points, grid._axes())
    tile = distance.AXIS_TILE_CELLS if lines is not None else distance.TILE_CELLS
    block, side = distance._side(grid.dim, distance.BLOCK_CELLS), distance._side(grid.dim, tile)
    edge = np.zeros(grid.cells, dtype=bool)
    for k, n in enumerate(grid.cells):
        shape = [1] * grid.dim
        shape[k] = n
        edge |= _borders(n, block, side).reshape(shape)
    pools = (np.flatnonzero(outside), np.flatnonzero(outside & edge.ravel()))
    sampled = [rng.choice(pool, min(SAMPLE, len(pool)), replace=False) for pool in pools]
    flagged = np.flatnonzero(field.gap.ravel())
    return np.unique(np.concatenate(sampled + [flagged])), outside


def _matches_brute_force(field, rng, name):
    """The checked cells of a field against the brute force; a quadratic
    field without axis tables takes each cell's values from
    ``_pairwise_values``, as the field does."""
    src, grid = field.source, field.grid
    cells, outside = _checked_cells(field, rng)
    mapped = isinstance(field.f, QuadraticNorm) and (
        distance._axis_lines(field.dual, src.points, grid._axes()) is None
    )
    centers = grid_centers(grid)
    delta, flag = field.delta.ravel(), field.gap.ravel()
    window = WINDOW_CELLS * grid.h
    place, pairwise = distance._pairwise_values(field.dual, src.points)
    every = np.arange(len(src.points))
    for i in cells:
        if mapped:
            values = pairwise(place(centers[[i]]), every)[0]
        else:
            values = field.dual.batch_value_fast(src.points - centers[i])
        assert outside[i], (name, i)
        assert delta[i] == values.min(), (name, type(field.f).__name__, i)
        expected = resolve_flag(src.points, values, distance.EPS_CLUSTER, window, field.tol_unique)
        assert flag[i] == expected, (name, type(field.f).__name__, i, flag[i], expected)
    assert np.count_nonzero(flag) > 0


@pytest.mark.parametrize("name", SCENES)
def test_fields_match_brute_force_over_every_source(name):
    plans = _plans(name)
    assert plans
    rng = np.random.default_rng(len(name))
    for plan in plans:
        _matches_brute_force(plan.scan(), rng, name)


def _rotated(rng, diagonal):
    """A random rotation of the diagonal matrix ``diagonal``."""
    q, r = np.linalg.qr(rng.standard_normal((2, 2)))
    q = q * np.sign(np.diag(r))
    return q @ np.diag(diagonal) @ q.T


def _weighted_ball(seed):
    """The weighted-sum scene's field: a Wulff ball of a |x| + (1 - a) sqrt(x'Mx),
    a in [0.3, 0.7] and M a random rotation of diag(lam, 1), lam in [2, 4],
    whose width makes the grid about 120 x 120 cells of h = 0.01."""
    rng = np.random.default_rng([seed, 2])
    a = rng.uniform(0.3, 0.7)
    m = _rotated(rng, [rng.uniform(2.0, 4.0), 1.0])
    f = WeightedSum(((a, EuclideanNorm(2)), (1.0 - a, QuadraticNorm(m))))
    center = rng.uniform(-1.0, 1.0, 2)
    # the Wulff ball's half-widths along the axes are F of the axes
    half = f.value(np.eye(2))
    radius = 0.5 / np.sqrt(half.prod())
    extent = 1.2 * radius * half
    body = WulffBody(DualNorm(f), center, radius)
    src = boundary_source([body], 1024, region="complement")
    cells = [int(round(2 * e / 0.01)) for e in extent]
    return distance.build_field(src, f, GridSpec(center - extent, center + extent, cells))


def _rotated_ellipses():
    """Two overlapping rotated ellipses' complement under a rotated M."""
    rng = np.random.default_rng(5)
    bodies = [Ellipsoid(_rotated(rng, [1.0, 4.0]), np.array([c, 0.1 * c])) for c in (-0.4, 0.4)]
    src = region_source(bodies, 1024, "complement")
    f = QuadraticNorm(_rotated(rng, [3.0, 1.0]))
    return distance.build_field(src, f, GridSpec([-1.7, -0.9], [1.7, 0.9], [170, 90]))


@pytest.mark.parametrize(
    "name", ["weighted seed 1", "weighted seed 2", "weighted seed 3", "rotated M"]
)
def test_extent_bound_fields_match_brute_force_over_every_source(name):
    field = _rotated_ellipses() if name == "rotated M" else _weighted_ball(int(name[-1]))
    # these fields prune by the box extent bound, on tiles of TILE_CELLS
    assert distance._axis_lines(field.dual, field.source.points, field.grid._axes()) is None
    _matches_brute_force(field, np.random.default_rng(len(name)), name)
