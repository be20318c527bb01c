"""Anisotropic distance fields, nearest-point projections, and reach estimates.

The field stores, per grid cell, the distance delta(x) = min_a F*(a - x)
to a dense boundary sample of a closed set A and an ambiguity flag ``gap``;
``project`` finds the nearest sample point of one query.  A cell is flagged
when its near-minimizer cluster is spatially split or holds half the curve:
cluster points are grouped by single-linkage at the source sampling scale,
three times the larger of the source spacing and the grid h (the field's
``tol_unique``), so the contiguous arc of samples around a unique foot
never triggers, while genuinely multi-valued projections (two feet across a
medial axis, or a whole equidistant loop) do.  A is the closure of the
outside of the sampled body (``boundary_source``), as the paper's tube and
reach arguments work inward from the body's complement.

The cluster window combines the relative tie tolerance ``EPS_CLUSTER``
with an absolute floor of ``WINDOW_CELLS`` grid spacings; the floor is
what guarantees every cell within about one cell of the medial axis is
flagged, making the reach estimate accurate to a couple of grid cells.
The window and the linkage scale are pinned in the library.

Nearest-source search is brute force over spatial cell blocks (desk scale:
<= 1024^2 cells, <= 1e4 source points); no fast marching.  Each coarse
block prunes the sources with an exact bound, and each fine tile inside it
prunes them again.  Euclidean F* and a diagonal M use axis tables, chosen
from the integrand: the mapped centre coordinates are constant along the
other grid axes and do not decrease along their own, so the squared
coordinate difference of a source over a range of cells is bounded by its
values at the range's two end rows.  One call bounds a block over every
source, and one more bounds all of the block's tiles (about 14 x 14 cells)
over the block's candidates; each tile then sums its per-axis tables on its
kept sources alone, each table shaped to broadcast along the tile's other
axes, into its squared distances, and delta is the root of
each row's least square, which is the least root since a rounded square
root does not decrease.  A rotated M and weighted sums keep, for the
block and then for each tile (about 10 x 10 cells), the sources within a
bound from the box's centre at its F*-extent: the largest F* from the centre
to a corner cell's centre, once per box shape, which bounds F* from the
centre to each of its cells since F* is convex; the values are taken on the
block's own centres.

The grid is streamed through its blocks: each block builds its cell
centres from the grid's per-axis coordinates and classifies them with one
membership call, and only its cells outside A are scanned; delta is 0 and
the flag False on A.  Besides delta and the flag, 9 bytes per cell, the
caller holds no array with one entry per cell.

A tile counts the runs of consecutive sources in each row's cluster by the
run starts of its mask, and a tile whose rows each hold one run and cover
no half of the curve is done there.  Flagged clusters of one tile are
screened together before any linkage search: their union is cut into runs
of consecutive source indices, and when no two runs come within
``tol_unique`` a cluster that meets two runs is split without a search of
its own; ``project`` shares the analysis.

A field is planned, then scanned.  ``_plan_field`` checks the arguments,
lays out the coarse blocks in row-major order and allocates one shared
anonymous mapping that backs the field's delta and flag; its
``scan_block(k)`` writes block k's rows into the mapping from any process
and marks the block scanned, or unscanned where its scan raises, in one
shared byte per block that starts pending.  ``build_field`` hands the
blocks to forked worker processes, one pinned to each usable CPU
(``fanout._fan_out``), which claim them in row-major order; the caller
only waits and reaps them, and raises the refusal of the first refusing
block in row-major order.  A run of ``wulffkit all`` plans every field it
reads and puts the blocks of all of them into its one fan-out
(``suites.run_suites``); a reader of a field in a worker of that fan-out
waits for the field's pending blocks, then scans in its own process the
ones whose scan raised (``_FieldPlan.scan``).  Each row's results depend
only on its own near-minimizers, so the bits depend neither on the block
order nor on which worker scans which block.  The scan stays in-process
where ``fanout`` keeps its items in-process: one usable CPU, no ``fork``,
a running thread, or fewer than ``FAN_OUT_ITEMS`` blocks.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import time
import traceback
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .duality import DualNorm, dual_norm_of
from .errors import InputError, WulffkitError
from .fanout import _fan_out
from .hypersurface import StarBody, sample_surface
from .integrand import (
    EuclideanNorm, Integrand, QuadraticNorm, _finite_rows, _whole, tangential_hessian,
)
from .spheregrid import sphere_quadrature, tangent_frames

__all__ = [
    "GridSpec",
    "SourceSet",
    "boundary_source",
    "DistanceField",
    "build_field",
    "project",
    "ProjectionResult",
    "estimate_reach_F",
    "reach_comparison",
    "ReachComparison",
]

# relative tie tolerance of the near-minimizer window; no caller sets it
EPS_CLUSTER = 1e-3
# absolute floor of the near-minimizer window, in grid spacings
WINDOW_CELLS = 1.5
# cells per coarse pruning block (40 x 40 in d=2) and per fine tile inside
# it: 14 x 14 on the axis tables, 10 x 10 under the F*-extent bound
BLOCK_CELLS = 1600
AXIS_TILE_CELLS = 196
TILE_CELLS = 100


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Axis-aligned cell grid; distances are sampled at cell centers."""

    lo: np.ndarray
    hi: np.ndarray
    cells: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or hi.ndim != 1 or len(lo) == 0:
            raise InputError(f"grid bounds must be vectors, got shapes {lo.shape} and {hi.shape}")
        cells = tuple(
            _whole(c, f"grid axis {k} cell count") for k, c in enumerate(np.atleast_1d(self.cells))
        )
        if len(cells) == 1:
            cells = cells * len(lo)
        if len(lo) != len(hi) or len(lo) != len(cells):
            raise InputError("grid bounds/cells dimension mismatch")
        # NaN widths and infinite ones fail both comparisons
        if not np.all((0.0 < hi - lo) & (hi - lo < np.inf)) or any(c < 4 for c in cells):
            raise InputError("grid box must be finite, nonempty and at least 4 cells per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "cells", cells)

    @property
    def dim(self):
        return len(self.lo)

    @property
    def spacing(self):
        return (self.hi - self.lo) / np.asarray(self.cells)

    @cached_property
    def h(self) -> float:
        return float(self.spacing.max())

    @cached_property
    def _axis_bounds(self):
        """Per axis, (lo, hi, spacing, cells) as Python numbers."""
        return list(zip(self.lo.tolist(), self.hi.tolist(), self.spacing.tolist(), self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def _axes(self):
        """Per grid axis, the centre coordinates of its cells."""
        return [
            self.lo[k] + (np.arange(self.cells[k]) + 0.5) * self.spacing[k]
            for k in range(self.dim)
        ]

    def cell_of(self, x):
        """Grid index of the cell holding the one point x of ``dim`` finite
        coordinates inside the closed box."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InputError(f"expected one point of shape ({self.dim},), got shape {x.shape}")
        # Python floats, which round as numpy's float64 does
        x, bounds = x.tolist(), self._axis_bounds
        bad = [k for k, v in enumerate(x) if not math.isfinite(v)]
        if bad:
            raise InputError(f"non-finite coordinate x[{bad[0]}] = {x[bad[0]]}")
        if not all(lo <= v <= hi for v, (lo, hi, _s, _n) in zip(x, bounds)):
            raise InputError("point outside the grid box")
        # the quotient of a point just below hi can round up to the cell count
        return tuple(min(math.floor((v - lo) / s), n - 1) for v, (lo, _hi, s, n) in zip(x, bounds))


@dataclass(frozen=True, eq=False)
class SourceSet:
    """Boundary sample of a closed set A, in order along one closed curve.

    ``points`` is a finite (N, d) array whose consecutive rows, and its last
    row and its first, are neighbours along the curve, which is what lets
    the field builder tell one contiguous foot arc from several separated
    feet.  The set keeps its own read-only copy of them, so a foot that
    ``project`` returns cannot write into the field.  ``inside`` classifies
    membership in A (delta is zero there) of an (N, d) array of rows.
    """

    points: np.ndarray
    inside: Callable

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.size == 0 or not np.isfinite(points).all():
            raise InputError("source points must be a nonempty (N, d) array of finite numbers")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @cached_property
    def spacing(self) -> float:
        """Longest step between consecutive samples, with the wrap from the
        last sample back to the first; computed once."""
        curve = np.concatenate([self.points, self.points[:1]])
        return float(np.linalg.norm(np.diff(curve, axis=0), axis=1).max())

    def membership(self, x):
        """Whether each of the finite (N, d) rows x lies in A; other input is
        an InputError."""
        return np.asarray(self.inside(_finite_rows(x, self.points.shape[1])), dtype=bool)


def boundary_source(
    bodies: Sequence[StarBody], resolution, region: str = "complement"
) -> SourceSet:
    """Sample the boundary of the one star body of ``bodies`` as the source
    set of its complement: A is the closure of the outside, so delta
    measures inward depth.  Any other number of bodies is an InputError, and
    so is a body of d != 2.  ``region`` is pinned in the library at
    "complement", and any other value is an InputError.
    """
    if region != "complement":
        raise InputError(f"region is pinned in the library at 'complement', got {region!r}")
    if len(bodies) != 1:
        raise InputError(f"a source samples exactly one body, got {len(bodies)}")
    (body,) = bodies
    if body.dim != 2:
        raise InputError(f"sources are sampled curves: got a body with d={body.dim}")

    def inside(x):
        return body.sign(x) >= 0

    return SourceSet(points=sample_surface(body, resolution).points, inside=inside)


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Grid of anisotropic distances and ambiguity flags: ``gap`` is True
    where a cell's near-minimizer cluster is split at ``tol_unique`` or
    holds half the curve."""

    grid: GridSpec
    source: SourceSet
    dual: DualNorm
    delta: np.ndarray
    gap: np.ndarray
    tol_unique: float

    @property
    def f(self) -> Integrand:
        return self.dual.base

    @cached_property
    def _queries(self):
        """What every ``project`` query of this field shares: the grid's h,
        the cluster analysis, the indices of every source it takes and their
        ``_columns``, the offsets of x and of its 2 d shifted points x + h e_k
        and x - h e_k, and the cross-check's reach 2 lip h, lip = ``grad_bound()``.  x's own
        offset is -0.0, and the shifts' other coordinates are +0.0 for
        x + h e_k and -0.0 for x - h e_k, so x + offset carries the bits of
        x, x + h e_k and x - h e_k, signed zeros included."""
        h, e = self.grid.h, self.grid.h * np.eye(self.grid.dim)
        resolve = _cluster_analysis(self.source, WINDOW_CELLS * h, self.tol_unique)
        every = np.arange(len(self.source.points))
        offsets = np.concatenate([np.full((1, len(e)), -0.0), e, -e])
        reach = 2.0 * self.dual.grad_bound() * h
        return h, resolve, every, _columns(every, len(every)), offsets, reach


def _differences(src, x):
    """a - x_i for each row x_i of x and each a of src, one row per pair with
    i major, column-major, so each coordinate is one contiguous array."""
    out = np.empty((len(x) * len(src), src.shape[1]), order="F")
    for k in range(src.shape[1]):
        np.subtract(src[None, :, k], x[:, k, None], out=out[:, k].reshape(len(x), len(src)))
    return out


def _box_centers(axes, box):
    """Centres of the cells of ``box`` (one slice of cell indices per grid
    axis) from the per-axis coordinates ``axes``, one row per cell in the
    box's C order; each row carries the bits of its row for the whole grid's
    box, whatever box holds the cell."""
    lines = [line[s] for line, s in zip(axes, box)]
    out = np.empty([len(line) for line in lines] + [len(lines)])
    for k, line in enumerate(lines):
        out[..., k] = line.reshape([-1 if j == k else 1 for j in range(len(lines))])
    return out.reshape(-1, len(lines))


def _pairwise_values(dual: DualNorm, sources):
    """(place, values): ``values(x, cand)`` is F*(a_j - y_i) over the points
    y_i whose rows ``x = place(y)`` holds and the source indices j in
    ``cand``, as a (len(x), len(cand)) array.

    A quadratic F*(a - y) = |L^T (a - y)|, with L L^T = M^-1, is a Euclidean
    distance of mapped points, summed axis by axis: the sources are mapped
    once, and ``place`` maps a block of points as ``y @ L``, whose rows are
    those of the whole grid's product (pinned by the tests), so each entry's
    bits do not depend on how the grid is cut into blocks and tiles.  Other
    F* take ``batch_value_fast`` of the differences.  ``build_field`` comes
    here only for a rotated M and weighted sums: Euclidean F* and a diagonal
    M take ``_axis_lines``.
    """
    base = dual.base
    if isinstance(base, QuadraticNorm):
        l = np.linalg.cholesky(base.inverse)
        mapped = sources @ l
        return (lambda y: y @ l), (lambda x, cand: np.sqrt(_sqdist(x, mapped[cand])))

    def values(x, cand):
        return dual.batch_value_fast(_differences(sources[cand], x)).reshape(len(x), len(cand))

    return (lambda y: y), values


def _axis_lines(dual: DualNorm, sources, axes):
    """Per grid axis k, the mapped coordinate k of the cell centres along
    axis k (``axes[k]``) and of the sources, for Euclidean F* and a
    QuadraticNorm whose map L (L L^T = M^-1) is diagonal; None for other F*.

    Only for those is every mapped coordinate k constant along the other
    grid axes, since L^T scales coordinate k by L_kk alone.  Then F*(a - x)^2
    of the cell with grid index (i_0, ..., i_{d-1}) is the sum over k of
    (line_k[i_k] - src_k)^2, with the bits of ``_sqdist`` on the mapped
    points.  Each line_k does not decrease, which ``_box_keep`` needs: the
    cell centres lo + (i + 0.5) h do not decrease along their axis, L_kk is
    positive, and each step rounds monotonically.
    """
    base = dual.base
    if isinstance(base, EuclideanNorm):
        return [(line, sources[:, k].copy()) for k, line in enumerate(axes)]
    if not isinstance(base, QuadraticNorm):
        return None
    l = np.linalg.cholesky(base.inverse)
    scale = np.diagonal(l)
    if np.count_nonzero(l - np.diag(scale)):
        return None
    return [(line * s, sources[:, k] * s) for k, (line, s) in enumerate(zip(axes, scale))]


def _box_keep(lines, starts, stops, cols, window_abs):
    """Which of the sources ``cols`` can be near-minimizers of some cell of
    each box, as a bool array of shape (len(starts[0]), ...,
    len(starts[d-1]), len(cols)); the boxes are the products of the per-axis
    cell ranges [starts[k][i], stops[k][i]).

    Along axis k the differences line_k[i] - src_k do not decrease with i,
    and squaring rounds monotonically in their size, so over a range of cells
    (line_k[i] - src_k)^2 is largest at one of the range's two end rows and
    least at the nearer one, or 0 when src_k lies inside the range.  Summed
    over the axes in order, these bound source j's squared F* from every
    cell of a box below by lo[j] and above by hi[j].  Each cell's least F*
    is then at most big = min_j sqrt(hi[j]), and every step is a monotone
    rounded operation, so each near-minimizer j of each cell has
    sqrt(lo[j]) <= big + (EPS_CLUSTER big + window_abs), which
    ``_square_bound`` turns into a bound on lo[j] itself.
    """
    lo = hi = 0.0
    for k, ((line, src), start, stop) in enumerate(zip(lines, starts, stops)):
        coord = src[cols]
        first = line[np.asarray(start)][:, None] - coord
        last = line[np.asarray(stop) - 1][:, None] - coord
        shape = [1] * len(lines) + [len(cols)]
        shape[k] = len(first)
        # first <= last: the nearer end row, or 0 inside the range, and the
        # farther one
        first_sq, last_sq = first**2, last**2
        nearer = np.where(first > 0.0, first_sq, np.where(last < 0.0, last_sq, 0.0))
        lo = lo + nearer.reshape(shape)
        hi = hi + np.maximum(first_sq, last_sq).reshape(shape)
    big = np.sqrt(hi.min(axis=-1, keepdims=True))
    return lo <= _square_bound(big + (EPS_CLUSTER * big + window_abs))


def _tile_distances(lines, box, rows, cand):
    """Squared F* from the cells ``rows`` (positions in the box's C order) of
    a box ``box`` of cells (one slice per grid axis) to the sources ``cand``:
    one table of squared coordinate differences per axis, shaped to
    broadcast along the box's other axes and summed in axis order as
    ``_sqdist`` sums, so every cell's entry is its sum of the same squares;
    the rows are taken only where the box has cells in A."""
    d = None
    for k, ((line, src), s) in enumerate(zip(lines, box)):
        t = (line[s, None] - src[None, cand]) ** 2
        t = t.reshape([-1 if j == k else 1 for j in range(len(box))] + [len(cand)])
        d = t if d is None else d + t
    d = d.reshape(-1, len(cand))
    return d if len(rows) == len(d) else d[rows]


def _block_scan(dual: DualNorm, pts, axes, spacing, window_abs):
    """(tile_cells, scan): the fine tiles hold about ``tile_cells`` cells, and
    scan(block, centers) prunes the sources for a coarse block, a box
    ``block`` of cells (one slice per grid axis) whose cell centres are the
    rows of ``centers``, and returns tile_scan(tile, cells, rows): F* from
    the cells ``rows`` (positions in the tile's C order) of one fine tile
    ``tile`` of the block (one slice per axis, from the block's corner), at
    the positions ``cells`` of the block's C order, to the tile's
    candidates, those candidates, and whether the values are squared, as
    (values, cand, squared).

    Euclidean F* and a diagonal M bound by the end rows of ``_box_keep`` on
    the grid's axis lines: once for the block over every source, and once
    for all the block's tiles of ``AXIS_TILE_CELLS`` together over the
    block's candidates; their tiles give squared values.  Other F* prune
    with the bound of ``_candidates`` at the box's F*-extent (``_extent``
    of its corner cells' centres on the grid ``spacing``, once per box
    shape), for the block and then for each of its tiles of ``TILE_CELLS``,
    and map the block's own centres once for its values.
    """
    every = np.arange(len(pts))
    lines = _axis_lines(dual, pts, axes)
    if lines is not None:
        side = _side(len(axes), AXIS_TILE_CELLS)

        def scan(block, centers):
            corner = np.array([s.start for s in block])
            ends = np.array([s.stop for s in block])
            # the block itself, one range per axis
            whole = _box_keep(lines, corner[:, None], ends[:, None], every, window_abs)
            coarse = np.flatnonzero(whole)
            # the tiles of ``_boxes``: per axis, ranges of ``side`` cells
            # from the block's corner, the last one cut short
            starts = [np.arange(c, e, side) for c, e in zip(corner, ends)]
            stops = [np.minimum(s + side, e) for s, e in zip(starts, ends)]
            keep = _box_keep(lines, starts, stops, coarse, window_abs)
            # the block's own stretch of each axis line
            own = [(line[s], src) for (line, src), s in zip(lines, block)]

            def tile_scan(tile, cells, rows):
                cand = coarse[keep[tuple(s.start // side for s in tile)]]
                return _tile_distances(own, tile, rows, cand), cand, True

            return tile_scan

        return AXIS_TILE_CELLS, scan
    place, values = _pairwise_values(dual, pts)
    # the cell centres, the boxes' centres and the differences round within
    # a few ulps of the largest coordinate s, and the values within a few
    # ulps of themselves, so F* moves by a few ulps of L s at most, L =
    # ``grad_bound()``: 1e-12 (1 + L s) is thousands of them
    scale = max(np.abs(pts).max(), *(np.abs(line).max() for line in axes))
    allowance = 1e-12 * (1.0 + dual.grad_bound() * scale)
    extents = {}

    def candidates(cand, box, ends):
        """The sources among ``cand`` that ``_candidates`` keeps for the box
        whose first and last cell centres are the rows of ``ends``, about
        their midpoint, at the extent of its corner cells' centres."""
        dims = tuple(s.stop - s.start for s in box)
        extent = extents.get(dims)
        if extent is None:
            extent = extents[dims] = _extent(dual, 0.5 * (np.asarray(dims) - 1) * spacing)
        xc = 0.5 * (ends[0] + ends[1])
        return _candidates(dual, pts, cand, xc, extent, allowance, window_abs)

    def scan(block, centers):
        coarse = candidates(every, block, centers[[0, -1]])
        mapped = place(centers)

        def tile_scan(tile, cells, rows):
            cand = candidates(coarse, tile, centers[cells[[0, -1]]])
            return values(mapped[cells[rows]], cand), cand, False

        return tile_scan

    return TILE_CELLS, scan


def _columns(cand, n):
    """What the cluster analysis reads of the sorted source indices ``cand``
    alone, on a curve of ``n`` samples.

    Samples consecutive on the curve sit in adjacent columns: a run also
    starts at a column after a break, where the left neighbour is no sample
    just before it.  Returns the breaks and the columns after them, whether
    the candidates hold half of the curve or more, and whether the curve's
    last and first samples, which are neighbours, are the last and the first
    candidates."""
    breaks = (np.diff(cand) != 1).nonzero()[0]
    wrap = len(cand) > 1 and cand[0] == 0 and cand[-1] == n - 1
    return breaks, breaks + 1, 2 * len(cand) >= n, wrap


def _cluster_analysis(source: SourceSet, window_abs, tol_unique):
    """The near-minimizer cluster analysis, as ``resolve(d, cand, columns,
    squared)``.

    ``d`` holds F* from a block of points (rows) to the sorted source indices
    ``cand`` (columns), which include every near-minimizer of every row, or
    its squares where ``squared`` is true; ``columns`` is ``_columns(cand,
    n)``, which the caller computes once per candidate array.  ``resolve``
    returns each row's minimum m and its flag: whether its cluster (the
    sources within m + EPS_CLUSTER m + window_abs) covers half a curve or
    more or is not one single-linkage component at scale ``tol_unique``.
    On squares m is the square root of the least entry, which is the least
    root since a rounded square root does not decrease, and the cluster is
    the entries at most ``_square_bound`` of the window, which are those
    whose roots lie within it.

    Samples consecutive on the curve lie within ``source.spacing <=
    tol_unique``, so one run of consecutive sources never splits: a row
    whose cluster is one run, counted by the run starts of its mask in one
    pass, and covers no half of the curve is unflagged at once, and a tile
    without any other row is done there.  Half-curve cover is counted only
    where the candidates hold half of the curve.  Clusters of several runs
    go through ``_linkage_screen`` together before any of them is searched
    alone.
    """
    n = len(source.points)

    def resolve(d, cand, columns, squared):
        if squared:
            m = np.sqrt(d.min(axis=1))
            near = d <= _square_bound(m + (EPS_CLUSTER * m + window_abs))[:, None]
        else:
            m = d.min(axis=1)
            near = d <= (m + (EPS_CLUSTER * m + window_abs))[:, None]
        breaks, after_breaks, half, wrap = columns
        # a run starts at each near column whose left neighbour is not near
        # or lies across a break
        starts = [near[:, 1:] > near[:, :-1], near[:, :1]]
        if len(breaks):
            starts.append(near[:, breaks] & near[:, after_breaks])
        cover = 2 * near.sum(axis=1) >= n if half else np.zeros(len(d), dtype=bool)
        flagged = cover
        # each row's least entry is near, so each row starts a run, and only
        # a block with more starts than rows has a row of several runs; the
        # curve's last sample also precedes its first
        if sum(map(np.count_nonzero, starts)) > len(d):
            n_runs = sum(s.sum(axis=1) for s in starts)
            if wrap:
                n_runs -= near[:, 0] & near[:, -1]
            flagged = cover | (n_runs >= 2)
        if not np.count_nonzero(flagged):
            return m, flagged
        rows = flagged.nonzero()[0]
        split = cover[rows]
        search = np.flatnonzero(~split)
        if len(search):
            split[search] = _linkage_screen(source.points, cand, near[rows[search]], tol_unique)
        for r in np.flatnonzero(~split):
            split[r] = not _connected(source.points[cand[near[rows[r]]]], tol_unique)
        flagged[rows] = split
        return m, flagged

    return resolve


def _square_bound(t):
    """The largest doubles q with fl(sqrt(q)) <= t, elementwise, for finite
    t >= 0: fl(sqrt) does not decrease, so fl(sqrt(q)) <= t exactly when q
    is at most this bound.  It starts at fl(t t) and moves to adjacent
    doubles, down while the root exceeds t and then up while the next
    root does not."""
    q = t * t
    over = np.sqrt(q) > t
    while np.count_nonzero(over):
        q = np.where(over, np.nextafter(q, 0.0), q)
        over = np.sqrt(q) > t
    up = np.nextafter(q, np.inf)
    fits = np.sqrt(up) <= t
    while np.count_nonzero(fits):
        q = np.where(fits, up, q)
        up = np.nextafter(q, np.inf)
        fits = np.sqrt(up) <= t
    return q


def _linkage_screen(points, cand, near, linkage):
    """Which rows of ``near`` (cluster masks over the sorted source indices
    ``cand``) hold a cluster that is not one single-linkage component at
    scale ``linkage``, as far as one screen of all the rows tells; False
    leaves a row undecided.

    The union of the clusters is cut into maximal runs of consecutive source
    indices, and each pair of runs is compared once.  When no pair comes
    within ``linkage``, a cluster that meets two runs is split, since a path
    between them would need a link across runs; otherwise every row is left
    undecided.
    """
    none_split = np.zeros(len(near), dtype=bool)
    cols = np.flatnonzero(near.any(axis=0))
    idx = cand[cols]
    starts = np.flatnonzero(np.diff(idx, prepend=-2) != 1)
    if len(starts) < 2:
        return none_split
    link2 = linkage**2
    for a, b in itertools.combinations(np.split(points[idx], starts[1:]), 2):
        if not _sqdist(a, b).min() > link2:
            return none_split
    return np.logical_or.reduceat(near[:, cols], starts, axis=1).sum(axis=1) >= 2


def _side(ndim: int, target: int) -> int:
    """Side of a cubic box of about ``target`` cells in ``ndim`` dimensions."""
    return max(2, int(round(target ** (1.0 / ndim))))


def _boxes(box, target: int):
    """Boxes of about ``target`` cells tiling the box of cells ``box`` (one
    slice of cell indices per grid axis) from its corner, in row-major order;
    the last box along an axis is cut short."""
    side = _side(len(box), target)
    for corner in itertools.product(*(range(s.start, s.stop, side) for s in box)):
        yield tuple(slice(c, min(c + side, s.stop)) for c, s in zip(corner, box))


def _extent(dual, half) -> float:
    """The F*-extent of the box of half-widths ``half`` about the origin:
    the largest ``batch_value_fast`` over its corners.  F* is convex, so it
    is largest at a corner: every offset v in the box has F*(v) at most the
    extent, and by evenness F*(-v) too."""
    corners = np.array(list(itertools.product(*((-a, a) for a in half))))
    return float(dual.batch_value_fast(corners).max())


def _candidates(dual, pts, cand, xc, extent, allowance, window_abs):
    """The sources among ``cand`` that can be near-minimizers of a cell x
    with F*(x - xc) and F*(xc - x) at most ``extent``.  F* is subadditive:
    with m the least F*(a - xc) over ``cand``, x's least value is at most
    m + S, S = ``extent``, and a near-minimizer a of x has F*(a - x) <=
    (m + S) + EPS_CLUSTER (m + S) + window, so F*(a - xc) <= m +
    EPS_CLUSTER (m + S) + window + 2 S.  ``allowance`` covers the rounding
    of the coordinates, of their differences and of the values."""
    d = dual.batch_value_fast(pts[cand] - xc)
    m = float(d.min())
    bound = m + EPS_CLUSTER * (m + extent) + window_abs + 2.0 * extent
    return cand[d <= bound + allowance]


# the states of a planned block, one shared byte each: an item of the run
# will scan it, it was scanned, or its scan raised
PENDING, SCANNED, UNSCANNED = 0, 1, 2


@dataclass(frozen=True, eq=False)
class _FieldPlan:
    """A distance field and the coarse blocks that fill it.

    The delta and the flag of ``field`` live in one anonymous shared mapping
    and hold 0 and False until their block is scanned.  ``blocks`` lists the
    coarse blocks in row-major order, as boxes; ``scan_block(k)`` scans
    block k into the mapping, in any process and in any order, and leaves
    its byte in ``state``, one shared byte per block, ``SCANNED`` or
    ``UNSCANNED``; every byte starts ``PENDING``.  ``owner`` is the pid of
    the process that planned the field.
    """

    field: DistanceField
    blocks: list
    scan_block: Callable
    state: np.ndarray
    owner: int

    def scan(self) -> DistanceField:
        """``field``, once every block not yet scanned is scanned here
        (``_fan_out``): none where every block was scanned before.  Where
        some of them refuse, every one is still tried, and the refusal of
        the first in row-major order is raised, whichever worker ends first.
        In a process other than ``owner``, a pending block is one that an
        item of the owner's run scans, so this first waits, in 1 ms sleeps,
        until no block is pending, and raises ProcessLookupError if
        ``owner`` is gone."""
        while os.getpid() != self.owner and (self.state == PENDING).any():
            os.kill(self.owner, 0)
            time.sleep(0.001)
        for refusal in _fan_out(np.flatnonzero(self.state != SCANNED).tolist(), self._refusal):
            if refusal is not None:
                raise refusal
        return self.field

    def _refusal(self, k):
        """None once block k is scanned, or the WulffkitError its scan
        raises, which carries a worker's traceback in a note."""
        try:
            self.scan_block(k)
        except WulffkitError as exc:
            if os.getpid() != self.owner and hasattr(exc, "add_note"):
                exc.add_note("in a worker process:\n" + traceback.format_exc())
            return exc


def _plan_field(source: SourceSet, f: Integrand, grid: GridSpec) -> _FieldPlan:
    """``build_field``'s checks of its arguments, its shared mapping and its
    blocks, with nothing scanned yet."""
    dual = dual_norm_of(f)
    _assert_even(dual)
    if grid.dim != f.dim:
        raise InputError("grid and integrand dimensions differ")
    if source.points.shape[1] != f.dim:
        raise InputError("source and integrand dimensions differ")
    h = grid.h
    # an infinite spacing, which would link every cluster, fails the comparison
    if not source.spacing <= 1.0001 * h:
        raise InputError(
            f"source sample too sparse: spacing {source.spacing:.3g} exceeds grid h {h:.3g}"
        )
    tol_unique = 3.0 * max(source.spacing, h)
    # squared F* past the largest double would leave ``_square_bound``
    # looking for a root above an infinite bound; F* is at most grad_bound()
    # times the Euclidean norm, along each axis too
    pts = source.points
    with np.errstate(over="ignore"):
        spans = np.maximum(grid.hi, pts.max(axis=0)) - np.minimum(grid.lo, pts.min(axis=0))
        spans *= dual.grad_bound()
        if not np.isfinite(np.sum(spans * spans)):
            raise InputError("grid box and source span too far for squared distances to be finite")

    window_abs = WINDOW_CELLS * h
    axes = grid._axes()
    tile_cells, scan = _block_scan(dual, pts, axes, grid.spacing, window_abs)
    resolve = _cluster_analysis(source, window_abs, tol_unique)
    blocks = list(_boxes(tuple(slice(0, n) for n in grid.cells), BLOCK_CELLS))

    # delta and flag of every cell, 0 and False on A, and the state of each
    # block, in mappings shared with the block workers
    n_cells = math.prod(grid.cells)
    out = mmap.mmap(-1, 9 * n_cells)
    delta = np.frombuffer(out, dtype=float, count=n_cells)
    gap = np.frombuffer(out, dtype=bool, offset=8 * n_cells)
    state = np.frombuffer(mmap.mmap(-1, len(blocks)), dtype=np.uint8)

    # per block shape, its fine tiles with the positions of their cells in
    # the block's C order
    tilings = {}

    # two-level candidate pruning: each coarse block keeps the sources that
    # can be near-minimizers of any of its cells, and each fine tile inside
    # it prunes those again, by the end-row box bound or else at its own
    # F*-extent; both bounds are exact, so a tile's sorted candidates hold every
    # near-minimizer of its cells, and each row's results depend only on its
    # own near-minimizers, so scanning a tile's cells outside A alone, in any
    # block order and in any process, leaves their bits as a full scan would
    def fill(block):
        centers = _box_centers(axes, block)
        member = source.membership(centers)
        if member.all():
            return
        tile_scan = scan(block, centers)
        shape = tuple(s.stop - s.start for s in block)
        tiles = tilings.get(shape)
        if tiles is None:
            local = np.arange(len(centers)).reshape(shape)
            inner = tuple(slice(0, n) for n in shape)
            tiles = [(t, local[t].ravel()) for t in _boxes(inner, tile_cells)]
            tilings[shape] = tiles
        # per cell of the block, its flat index in the grid
        ranges = np.ix_(*(np.arange(s.start, s.stop) for s in block))
        flat = np.ravel_multi_index(ranges, grid.cells).ravel()
        for tile, cells in tiles:
            rows = (~member[cells]).nonzero()[0]
            if len(rows):
                outside = flat[cells[rows]]
                d, cand, squared = tile_scan(tile, cells, rows)
                delta[outside], gap[outside] = resolve(d, cand, _columns(cand, len(pts)), squared)

    def scan_block(k):
        try:
            fill(blocks[k])
        except BaseException:
            state[k] = UNSCANNED
            raise
        state[k] = SCANNED

    field = DistanceField(
        grid=grid,
        source=source,
        dual=dual,
        delta=delta.reshape(grid.cells),
        gap=gap.reshape(grid.cells),
        tol_unique=tol_unique,
    )
    return _FieldPlan(field, blocks, scan_block, state, owner=os.getpid())


def build_field(
    source: SourceSet, f: Integrand, grid: GridSpec, eps_cluster=EPS_CLUSTER, tol_unique=None
) -> DistanceField:
    """Compute delta and the ambiguity flag on the grid.

    The grid is scanned one coarse block at a time, and each block works
    from its own cells alone: it builds its cell centres from the grid's
    per-axis coordinates, classifies them with one membership call, and is
    done when every cell lies in A.  Otherwise each fine tile scans its cells
    outside A against the candidates of the whole tile, which hold every
    near-minimizer of each of them; delta is 0 and the flag False on A.  For
    Euclidean F* and a diagonal M both levels bound each source by the end
    rows of the box's cell ranges, all tiles of a block in one call; other
    F* bound from each box's centre at its F*-extent (``_extent``).  The
    clusters flagged in a tile are screened together (``_linkage_screen``),
    and only the ones the screen leaves undecided run their own linkage
    search.  Besides delta and the flag, the caller holds no array with one
    entry per cell.

    ``_plan_field`` checks the arguments and lays out the blocks, and
    ``_FieldPlan.scan`` hands them to forked workers, one per usable CPU
    (``_fan_out``), in row-major order; each writes its rows of delta and
    the flag into the mapping behind the returned arrays, and every worker is
    reaped before this returns or raises.  Since a row's results depend only
    on its own near-minimizers, the field is bit for bit the one-process
    scan's whatever the block order and the split.  The scan stays
    in-process with one usable CPU (in a forked worker, which is pinned to
    one), without ``os.fork``, while another thread runs, or with fewer than
    ``FAN_OUT_ITEMS`` blocks.  Where blocks refuse, the refusal of the first
    of them in row-major order is raised.

    The source sample may be no sparser than the grid h.  The cluster
    window's relative tolerance ``EPS_CLUSTER`` and the linkage scale, three
    times the larger of the source spacing and h (the field's
    ``tol_unique``), are pinned in the library: ``eps_cluster`` and
    ``tol_unique`` are accepted only at their defaults, EPS_CLUSTER and
    None, and any other value is an InputError that names the keyword.
    """
    if not isinstance(eps_cluster, float) or eps_cluster != EPS_CLUSTER:
        raise InputError(f"eps_cluster is pinned in the library, got {eps_cluster!r}")
    if tol_unique is not None:
        raise InputError(f"tol_unique is pinned in the library, got {tol_unique!r}")
    return _plan_field(source, f, grid).scan()


def _assert_even(dual: DualNorm):
    rng = np.random.default_rng(7)
    v = rng.standard_normal((8, dual.dim))
    fwd, bwd = dual.batch_value(v), dual.batch_value(-v)
    if not np.allclose(fwd, bwd, rtol=1e-9):
        raise InputError("conjugate norm is not even; the integrand must satisfy F(-x) = F(x)")


def _sqdist(a, b):
    """Squared Euclidean distances between the rows of a and b, shape (a's
    rows, b's rows): coordinate by coordinate, the squared differences
    summed in axis order."""
    out = (a[:, None, 0] - b[None, :, 0]) ** 2
    for k in range(1, a.shape[1]):
        out += (a[:, None, k] - b[None, :, k]) ** 2
    return out


def _connected(pts, linkage):
    """Single-linkage connectivity of a point set at the given scale.

    Consecutive rows within ``linkage`` of each other are joined into runs
    first (a sampled arc is one run); the search then spreads from the first
    run to every run with a point within ``linkage`` of a reached one, so it
    steps over runs rather than points.
    """
    link2 = linkage**2
    step2 = ((pts[1:] - pts[:-1]) ** 2).sum(axis=1)
    run = np.concatenate(([0], np.cumsum(step2 > link2)))
    reached = run == 0
    frontier = reached
    while not reached.all():
        rest = np.nonzero(~reached)[0]
        near = (_sqdist(pts[frontier], pts[rest]) <= link2).any(axis=0)
        if not near.any():
            return False
        frontier = np.isin(run, run[rest[near]])
        reached = reached | frontier
    return True


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Nearest-point query outcome; ambiguous results keep the best foot."""

    point: np.ndarray
    delta: float
    ambiguous: bool
    foot_index: int
    grad_check_dev: Optional[float]


def project(field: DistanceField, x) -> ProjectionResult:
    """Nearest source point of x, with the gradient-formula cross-check.

    The cross-check runs on every query outside A that projects uniquely from
    more than 2h away.  It reconstructs the foot as x - delta * grad F(grad
    delta) with grad delta from central differences at grid spacing; its
    deviation from the direct argmin is reported (expected <= 5h for unique
    feet).  A shifted point y's delta is 0 in A, and otherwise its least
    F*(a - y) over the sources a within m + 2 lip h of x, which hold its
    nearest ones (m the query's delta, lip = ``grad_bound()``).  The query
    is ambiguous where its own near-minimizer cluster or the field's cell
    holding it is flagged.  A query in A gets delta 0, is not ambiguous, as
    the field stores, and gets no cross-check; its point is still the
    nearest source sample.  x must be one point of ``grid.dim`` finite
    coordinates in the grid box.
    """
    x = np.asarray(x, dtype=float)
    cell = field.grid.cell_of(x)  # raises unless x is one finite point in the box
    h, resolve, every, columns, offsets, reach = field._queries
    source = field.source
    d = field.dual.batch_value_fast(source.points - x)
    (m,), (flag,) = resolve(d[None], every, columns, False)
    m, best = float(m), int(d.argmin())
    ambiguous = bool(flag or field.gap[cell])
    cross_check = not ambiguous and m > 2 * h

    # x, then for the cross-check the 2 d shifted points, in one membership call
    probes = x + offsets if cross_check else x[None]
    member = source.membership(probes)
    if member[0]:
        m = 0.0
        ambiguous = cross_check = False

    dev = None
    if cross_check:
        # F* is lip-Lipschitz, so a nearest source a of a shifted point y has
        # F*(a - x) <= F*(a - y) + lip h <= F*(best - y) + lip h <= m + 2 lip h,
        # so y's least F*(a - y), ignoring A, is the least over those sources
        pts = source.points[d <= m + reach + 1e-12]
        d_near = field.dual.batch_value_fast(_differences(pts, probes[1:]))
        shifted = np.where(member[1:], 0.0, d_near.reshape(-1, len(pts)).min(axis=1))
        grad = (shifted[: len(x)] - shifted[len(x) :]) / (2 * h)
        # the Euclidean norms as np.linalg.norm takes them, sqrt(v.v); grad
        # is a difference quotient of finite values, so it is finite, and
        # nonzero past the test
        if math.sqrt(grad.dot(grad)) > 1e-12:
            off = x - m * field.f._grad(grad[None])[0] - source.points[best]
            dev = math.sqrt(off.dot(off))
    return ProjectionResult(
        point=source.points[best], delta=m, ambiguous=ambiguous,
        foot_index=best, grad_check_dev=dev,
    )


def estimate_reach_F(field: DistanceField) -> float:
    """Largest r such that every cell with 0 < delta < r projects uniquely."""
    flagged = (field.delta > 0) & field.gap
    if not flagged.any():
        return float(field.delta.max())
    return float(field.delta[flagged].min())


@dataclass(frozen=True, eq=False)
class ReachComparison:
    """Euclidean vs anisotropic reach with the rolling-ball factor rho."""

    rho: float
    reach_euclidean: float
    reach_anisotropic: float
    slack: float
    ok: bool


def reach_comparison(
    field_euclid: DistanceField, field_aniso: DistanceField
) -> ReachComparison:
    """Check reach(A) >= rho * reach^F(A) - 4h; ``ok`` says whether it holds.

    rho is the interior rolling-ball radius of the unit Wulff shape of the
    anisotropic field's norm F, its least radius of curvature: the least
    eigenvalue of the tangential Hessian of F, minimized over the unit
    normals of a sphere grid.  Both fields must lie on one grid: the same
    cell counts and bit for bit the same bounds, or it is an InputError.
    """
    ga, gb = field_euclid.grid, field_aniso.grid
    bounds = [(g.lo.tobytes(), g.hi.tobytes()) for g in (ga, gb)]
    if ga.cells != gb.cells or bounds[0] != bounds[1]:
        raise InputError("reach comparison requires a shared grid")
    f = field_aniso.dual.base
    nu = sphere_quadrature(f.dim, 2048 if f.dim == 2 else (64, 128))[0]
    rho = float(np.linalg.eigvalsh(tangential_hessian(f, nu, tangent_frames(nu)))[:, 0].min())
    r_e = estimate_reach_F(field_euclid)
    r_f = estimate_reach_F(field_aniso)
    slack = 4.0 * field_euclid.grid.h
    ok = r_e >= rho * r_f - slack
    return ReachComparison(
        rho=rho, reach_euclidean=r_e, reach_anisotropic=r_f, slack=slack, ok=ok
    )
