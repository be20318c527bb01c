"""Every distance field that ``wulffkit all`` plans on the shipped 2D scenes,
against a brute force over every source.

delta is the least of the field's own closed-form values F*(a - x) over
every source a (``dual.batch_value_fast``, as ``DistanceField._nearest``
takes them), and the gap is the pdist oracle ``resolve_gap`` on those
values; neither goes through the field's blocks, tiles, candidate bounds or
cluster analysis.  The checked cells are a seeded sample outside A, every
cell with a gap above ``tol_unique``, and a seeded sample of cells on the
borders of the coarse blocks and fine tiles, where a candidate bound is
tightest.
"""

from pathlib import Path

import numpy as np
import pytest

from wulffkit import distance, load_scene
from wulffkit.distance import WINDOW_CELLS
from wulffkit.scene import SUITE_ORDER
from wulffkit.suites import RunCache

from oracles import resolve_gap

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
    """Flat indices of the cells to check: a sample outside A, every cell
    with a gap above tol_unique, and a sample on block and tile borders."""
    grid = field.grid
    outside = ~field.source.membership(grid.centers())
    lines = distance._axis_lines(field.dual, field.source.points, grid._axes())
    tile = distance.AXIS_TILE_CELLS if lines is not None else distance.TILE_CELLS
    block, side = distance._side(grid.dim, distance.BLOCK_CELLS), distance._side(grid.dim, tile)
    edge = np.zeros(grid.shape, dtype=bool)
    for k, n in enumerate(grid.shape):
        shape = [1] * grid.dim
        shape[k] = n
        edge |= _borders(n, block, side).reshape(shape)
    pools = (np.flatnonzero(outside), np.flatnonzero(outside & edge.ravel()))
    sampled = [rng.choice(pool, min(SAMPLE, len(pool)), replace=False) for pool in pools]
    gapped = np.flatnonzero(field.gap.ravel() > field.tol_unique)
    return np.unique(np.concatenate(sampled + [gapped])), outside


@pytest.mark.parametrize("name", SCENES)
def test_fields_match_brute_force_over_every_source(name):
    plans = _plans(name)
    assert plans
    rng = np.random.default_rng(len(name))
    for plan in plans:
        field = plan.scan()
        src, grid = field.source, field.grid
        cells, outside = _checked_cells(field, rng)
        centers = grid.centers()
        delta, gap = field.delta.ravel(), field.gap.ravel()
        window = WINDOW_CELLS * grid.h
        for i in cells:
            values = field.dual.batch_value_fast(src.points - centers[i])
            assert outside[i], (name, i)
            assert delta[i] == values.min(), (name, type(field.f).__name__, i)
            expected = resolve_gap(
                src.points, src.loops, values, field.eps_cluster, window, field.tol_unique
            )
            assert gap[i] == expected, (name, type(field.f).__name__, i, gap[i], expected)
        assert np.count_nonzero(gap > field.tol_unique) > 0
