import contextlib
import mmap
import os
import re
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.spatial.distance import cdist, pdist

from wulffkit import (
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    GridSpec,
    InputError,
    Integrand,
    QuadraticNorm,
    SourceSet,
    WeightedSum,
    WulffBody,
    boundary_source,
    build_field,
    parse_scene,
    estimate_reach_F,
    project,
    reach_comparison,
)
from wulffkit import distance, fanout
from wulffkit.errors import SolverError
from wulffkit.distance import EPS_CLUSTER, WINDOW_CELLS, _connected, _diameters, _square_bound

from oracles import (
    project_reference, resolve_gap, rolling_ball_by_wulff_sample, single_linkage_connected,
)
from sampling import grid_centers, nowhere, region_source

E2 = EuclideanNorm(2)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
DQ = DualNorm(Q2)
UNIT_DISK = Ellipsoid(np.eye(2), np.zeros(2))


def _polygon(vertices, step, inside=nowhere):
    """A source sampled along the closed polygon through ``vertices``: each
    edge from its first vertex in equal steps of at most ``step``, so an
    axis-aligned edge of whole length on half-integer vertices has
    half-integer samples at unit steps."""
    vertices = np.asarray(vertices, dtype=float)
    pts = []
    for p0, p1 in zip(vertices, np.roll(vertices, -1, axis=0)):
        n = int(np.ceil(np.linalg.norm(p1 - p0) / step))
        pts.append(p0 + np.arange(n)[:, None] * ((p1 - p0) / n))
    return SourceSet(points=np.concatenate(pts), inside=inside)


def _delta_at(field, x):
    """The stored delta of the cell holding x."""
    return float(field.delta[field.grid.cell_of(x)])


def _direction_deviation(field, body, f, xs):
    """max over xs of |(x - a)/F*(x - a) - grad F(nu(a))|, with a the foot of
    x from ``project`` and nu(a) the normal of body at a toward x: the
    direction of a distance fibre is grad F of the normal at its foot."""
    worst = 0.0
    for x in np.atleast_2d(xs):
        res = project(field, x)
        assert not res.ambiguous
        g = body.grad_phi(res.point[None])[0]
        side = 1.0 if body.sign(x[None])[0] > 0 else -1.0
        lhs = (x - res.point) / field.dual.batch_value((x - res.point)[None])[0]
        nu = side * g / np.linalg.norm(g)
        worst = max(worst, float(np.linalg.norm(lhs - f.grad(nu[None])[0])))
    return worst


@pytest.fixture(scope="module")
def disk_field():
    src = boundary_source([UNIT_DISK], 2048, region="complement")
    grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=256)
    return build_field(src, E2, grid)


@pytest.fixture(scope="module")
def wulff_field():
    body = WulffBody(DQ, np.zeros(2), 1.0)
    src = boundary_source([body], 2048, region="complement")
    grid = GridSpec(lo=[-2.2, -1.2], hi=[2.2, 1.2], cells=[440, 240])
    return build_field(src, Q2, grid), body


def test_delta_to_circle_as_curve():
    src = region_source([UNIT_DISK], 2048, "curve")
    grid = GridSpec(lo=[-2.2, -2.2], hi=[2.2, 2.2], cells=128)
    field = build_field(src, E2, grid)
    # A is the curve alone, so delta is positive on both sides of it, and
    # within half the sample spacing of the distance to the circle
    r = np.linalg.norm(grid_centers(grid), axis=1)
    assert field.delta.min() > 0
    assert np.abs(field.delta.ravel() - np.abs(r - 1.0)).max() <= 0.5 * src.spacing


def test_delta_zero_on_membership(disk_field):
    # A = complement of the disk: delta vanishes exactly outside
    assert _delta_at(disk_field, [1.2, 0.2]) == 0.0
    assert _delta_at(disk_field, [0.0, 0.01]) > 0.9
    assert np.all(disk_field.delta >= 0)


def test_delta_from_wulff_center(wulff_field):
    field, _ = wulff_field
    # anisotropic distance from the center of an F*-ball equals its radius;
    # brute force over the samples is the oracle here
    brute = field.dual.batch_value(field.source.points).min()
    assert brute == pytest.approx(1.0, abs=1e-6)


def test_project_examples(disk_field):
    res = project(disk_field, [0.5, 0.0])
    assert not res.ambiguous
    assert res.point == pytest.approx([1.0, 0.0], abs=2e-3)
    center = project(disk_field, [0.0, 0.0])
    assert center.ambiguous
    assert center.gap > disk_field.tol_unique


def test_project_gradient_formula(disk_field):
    h = disk_field.grid.h
    for x in ([0.5, 0.1], [-0.3, 0.4], [0.2, -0.6]):
        res = project(disk_field, x)
        assert res.grad_check_dev is not None
        assert res.grad_check_dev <= 5 * h


def test_project_ellipse_minor_axis():
    # foot of (0, 0.5) on the ellipse is (0, 1): brute-force argmin oracle
    ell = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    src = region_source([ell], 4096, "curve")
    grid = GridSpec(lo=[-2.2, -1.2], hi=[2.2, 1.2], cells=[220, 120])
    field = build_field(src, E2, grid)
    res = project(field, [0.0, 0.5])
    assert not res.ambiguous
    assert res.point == pytest.approx([0.0, 1.0], abs=2e-3)


def test_lipschitz_in_conjugate_norm(wulff_field):
    field, _ = wulff_field
    delta = field.delta
    centers = grid_centers(field.grid).reshape(*field.grid.shape, 2)
    slack = 2 * field.grid.h * field.dual.grad_bound()
    for axis in (0, 1):
        d1 = np.take(delta, range(1, delta.shape[axis]), axis=axis)
        d0 = np.take(delta, range(0, delta.shape[axis] - 1), axis=axis)
        c1 = np.take(centers, range(1, delta.shape[axis]), axis=axis)
        c0 = np.take(centers, range(0, delta.shape[axis] - 1), axis=axis)
        step = field.dual.batch_value((c1 - c0).reshape(-1, 2)).reshape(d1.shape)
        assert np.all(np.abs(d1 - d0) <= step + slack)
        # away from the zeroed membership region the discrete distance is
        # exactly Lipschitz
        interior = (d0 > 0) & (d1 > 0)
        assert np.all(np.abs(d1 - d0)[interior] <= step[interior] + 1e-12)


def test_fiber_property(disk_field):
    # delta(a + t(x - a)) = t delta(x) within grid slack
    h = disk_field.grid.h
    for xv in ([0.3, 0.2], [-0.1, 0.55]):
        res = project(disk_field, xv)
        a, d = res.point, res.delta
        for t in (0.25, 0.5, 0.75):
            p = a + t * (np.asarray(xv) - a)
            assert abs(_delta_at(disk_field, p) - t * d) <= 3 * h


def test_segment_projection_property(disk_field):
    res = project(disk_field, [0.4, 0.0])
    a, d = res.point, res.delta
    u = (np.asarray([0.4, 0.0]) - a) / d
    for s in (0.2 * d, 0.5 * d, 0.9 * d):
        r2 = project(disk_field, a + s * u)
        assert np.linalg.norm(r2.point - a) <= 3 * disk_field.source.spacing + 1e-9


def test_direction_check_disk(disk_field):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(12, 2))
    dev = _direction_deviation(disk_field, UNIT_DISK, E2, pts)
    assert dev <= 2 * disk_field.grid.h


def test_direction_check_ellipse():
    ell = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    src = boundary_source([ell], 4096, region="complement")
    grid = GridSpec(lo=[-2.2, -1.2], hi=[2.2, 1.2], cells=[440, 240])
    field = build_field(src, E2, grid)
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, 2 * np.pi, 10)
    near = np.stack([2 * np.cos(theta), np.sin(theta)], axis=1) * 0.9
    dev = _direction_deviation(field, ell, E2, near)
    assert dev <= 5 * field.grid.h


def test_direction_check_wulff(wulff_field):
    field, body = wulff_field
    rng = np.random.default_rng(2)
    theta = rng.uniform(0, 2 * np.pi, 10)
    near = np.stack([2 * np.cos(theta), np.sin(theta)], axis=1) * 0.85
    dev = _direction_deviation(field, body, Q2, near)
    assert dev <= 5 * field.grid.h
    # the fiber identity a + delta * nu^F = x holds for any tied foot at the center
    res = project(field, [0.0, 0.0])
    x = np.zeros(2)
    a = res.point
    nu_f = (x - a) / field.dual.batch_value((x - a)[None])[0]
    assert a + res.delta * nu_f == pytest.approx(x, abs=1e-12)


def test_reach_disk(disk_field):
    reach = estimate_reach_F(disk_field)
    assert abs(reach - 1.0) <= 2 * disk_field.grid.h


def test_reach_wulff(wulff_field):
    field, _ = wulff_field
    assert abs(estimate_reach_F(field) - 1.0) <= 2 * field.grid.h


def test_reach_two_segments():
    # two long sides of a rectangle whose short sides lie far outside the
    # grid: the medial axis in the grid is the midline
    s = 0.6
    src = _polygon([[-3.0, -s], [3.0, -s], [3.0, s], [-3.0, s]], 0.00375)
    grid = GridSpec(lo=[-1.2, -0.58], hi=[1.2, 0.58], cells=[240, 116])
    field = build_field(src, E2, grid)
    assert abs(estimate_reach_F(field) - s) <= 2 * field.grid.h


def test_reach_comparison_euclidean_is_identity(disk_field):
    cmp_ = reach_comparison(disk_field, disk_field)
    assert cmp_.rho == pytest.approx(1.0, abs=1e-10)
    assert cmp_.ok
    assert cmp_.reach_euclidean == cmp_.reach_anisotropic


def test_reach_comparison_wulff(wulff_field):
    field_f, body = wulff_field
    src = boundary_source([body], 2048, region="complement")
    field_e = build_field(src, E2, field_f.grid)
    cmp_ = reach_comparison(field_e, field_f)
    # rolling-ball radius of the diag(4,1) Wulff ellipse is b^2/a = 1/2
    assert cmp_.rho == pytest.approx(0.5, rel=1e-4)
    assert cmp_.ok
    assert cmp_.reach_euclidean >= cmp_.rho * cmp_.reach_anisotropic - cmp_.slack


def _small_reach_comparison(f):
    src = boundary_source([UNIT_DISK], 256, region="complement")
    grid = GridSpec(lo=[-1.2, -1.2], hi=[1.2, 1.2], cells=24)
    return reach_comparison(build_field(src, E2, grid), build_field(src, f, grid))


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize(
    "m",
    [
        np.diag([4.0, 1.0]),
        _rotation(0.7) @ np.diag([0.3, 2.5]) @ _rotation(0.7).T,
        _rotation(-1.9) @ np.diag([1.0, 1.6]) @ _rotation(-1.9).T,
    ],
    ids=["diag", "rotated", "mild"],
)
def test_rolling_ball_radius_of_quadratic_norm(m):
    # the Wulff shape x'M^-1 x <= 1 is an ellipse with semi-axes sqrt(lambda_i)
    # of M, so its least radius of curvature is b^2 / a = lambda_min / sqrt(lambda_max)
    lam = np.linalg.eigvalsh(m)
    rho = _small_reach_comparison(QuadraticNorm(0.5 * (m + m.T))).rho
    assert rho == pytest.approx(lam[0] / np.sqrt(lam[-1]), rel=1e-5)


def test_rolling_ball_radius_of_weighted_sum_matches_wulff_sample():
    w2 = WeightedSum(((0.3, E2), (1.0, QuadraticNorm(np.array([[3.0, 1.0], [1.0, 1.5]])))))
    rho = _small_reach_comparison(w2).rho
    assert rho == pytest.approx(rolling_ball_by_wulff_sample(w2, 8192), rel=1e-5)


def test_weighted_sum_field_with_cell_centre_on_body_centre():
    # odd cell counts on bounds symmetric about the centre put a cell centre
    # exactly on it, where the complement membership test evaluates F*(0)
    w2 = WeightedSum(((0.5, E2), (1.0, Q2)))
    body = WulffBody(DualNorm(w2), np.zeros(2), 1.0)
    src = boundary_source([body], 1024, region="complement")
    grid = GridSpec(lo=[-3.125, -2.125], hi=[3.125, 2.125], cells=[25, 17])
    field = build_field(src, w2, grid)
    assert _delta_at(field, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-5)


def test_sparse_source_rejected():
    src = boundary_source([UNIT_DISK], 128, region="complement")
    grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=256)
    with pytest.raises(InputError):
        build_field(src, E2, grid)


class _Tilted(Integrand):
    """F(x) = |x| + b.x, b = (0.3, 0): convex and positive off the origin,
    with a strictly convex unit ball (an ellipse with a focus at 0), but
    F(-x) != F(x)."""

    dim = 2
    b = np.array([0.3, 0.0])

    def value(self, x):
        return E2.value(x) + x @ self.b

    def grad(self, x):
        return E2.grad(x) + self.b

    def _value_grad_hess(self, x):
        f, g, h = E2._value_grad_hess(x)
        return f + self.b @ x, g + self.b[:, None], h


def test_an_integrand_that_is_not_even_is_refused():
    # build_field takes even integrands only: F(-x) = F(x)
    src = boundary_source([UNIT_DISK], 2048, region="complement")
    grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=64)
    f = _Tilted()
    w = np.array([[1.0, 0.0], [-1.0, 0.0]])
    # F* is finite and not even: sup w.u over the ellipse {|u| + 0.3 u_1 <= 1}
    assert DualNorm(f).batch_value(w) == pytest.approx([1 / 1.3, 1 / 0.7], rel=1e-9)
    with pytest.raises(InputError, match="not even"):
        build_field(src, f, grid)


@pytest.mark.parametrize(
    "radius, f", [(1e154, E2), (1e153, QuadraticNorm(np.diag([1e-4, 1e-4])))], ids=["E", "M"]
)
def test_overflowing_squared_distances_are_refused(radius, f):
    # a circle of this radius passes every other check (spacing 1.5e-3 r <=
    # h 0.15 r), but its squared F* overflow, in coordinates (E) or only once
    # F* = 100 |w| maps them (M), and the scan then never returned from
    # _square_bound(inf): the plan refuses it
    t = 2.0 * np.pi * np.arange(4096) / 4096
    points = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    src = SourceSet(points=points, inside=nowhere)
    grid = GridSpec(lo=[-1.2 * radius] * 2, hi=[1.2 * radius] * 2, cells=16)
    assert src.spacing <= grid.h
    with pytest.raises(InputError, match="squared distances"):
        distance._plan_field(src, f, grid)


def test_infinite_source_spacing_rejected():
    # an infinite spacing would make the linkage scale infinite, which links
    # every cluster; the sparse-source check refuses it
    src = SourceSet(points=np.array([[-1e308, 0.0], [1e308, 0.0]]), inside=nowhere)
    with np.errstate(over="ignore"):
        assert src.spacing == np.inf
    with pytest.raises(InputError, match="too sparse"), np.errstate(over="ignore"):
        build_field(src, E2, GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=16))


def test_the_harness_call_is_accepted():
    # the benchmark harness passes the pinned keywords by name, from a
    # scene's tolerances; the field is the default call's, bit for bit
    tolerances = parse_scene(
        {"integrand": {"family": "euclidean", "dimension": 2}, "bodies": []}
    ).tolerances
    src = boundary_source([UNIT_DISK], 1024, region="complement")
    grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=128)
    field = build_field(
        src, E2, grid, eps_cluster=tolerances["eps_cluster"], tol_unique=tolerances["tol_unique"]
    )
    plain = build_field(src, E2, grid)
    assert field.tol_unique == plain.tol_unique == 3.0 * max(src.spacing, grid.h)
    assert np.array_equal(field.delta, plain.delta) and np.array_equal(field.gap, plain.gap)


def test_finite_tol_unique_rejected():
    # the linkage scale is pinned in the library at three times the larger
    # of the source spacing and h: below the spacing, two consecutive
    # samples of one foot arc need not be linked, and the per-loop run
    # screen would call a split arc connected; every finite value is refused
    # alike, the field's own scale included
    src = boundary_source([UNIT_DISK], 1024, region="complement")
    grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=128)
    own = build_field(src, E2, grid).tol_unique
    assert own == 3.0 * max(src.spacing, grid.h)
    for tol in (0.0, src.spacing / 2, src.spacing, own, 1.0):
        with pytest.raises(InputError, match="tol_unique is pinned in the library"):
            build_field(src, E2, grid, tol_unique=tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_non_finite_tol_unique_rejected(tol):
    # NaN failed the spacing check's comparison and inf passed it; either
    # links every cluster, so an ellipse's medial band had no gap cells and
    # its reach read about the deepest delta
    body = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    src = boundary_source([body], 1024, region="complement")
    grid = GridSpec(lo=[-2.3, -1.3], hi=[2.3, 1.3], cells=[230, 130])
    with pytest.raises(InputError, match="tol_unique"):
        build_field(src, E2, grid, tol_unique=tol)
    field = build_field(src, E2, grid)
    assert np.count_nonzero(field.gap) > 0
    assert estimate_reach_F(field) < 0.7


@pytest.mark.parametrize("eps", [-1.0, -1e-300, np.nan, np.inf, 0.0, 2 * EPS_CLUSTER])
def test_bad_eps_cluster_rejected(eps):
    # a negative window left a row's cluster empty, and its reduction
    # raised a raw ValueError; the window is pinned in the library, so any
    # value but EPS_CLUSTER is refused
    src = boundary_source([UNIT_DISK], 1024, region="complement")
    grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=128)
    with pytest.raises(InputError, match="eps_cluster is pinned in the library"):
        build_field(src, E2, grid, eps_cluster=eps)


@pytest.mark.parametrize("region", ["set", "curve", "Complement", None])
def test_boundary_source_takes_the_complement_alone(region):
    with pytest.raises(InputError, match="region is pinned in the library"):
        boundary_source([UNIT_DISK], 256, region=region)


def test_source_spacing_includes_the_wrap():
    # the curve's longest step may be the one from its last sample back to
    # its first
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.2, 0.5]])
    assert SourceSet(points=pts, inside=nowhere).spacing == pytest.approx(np.hypot(0.2, 0.5))


def test_a_returned_foot_cannot_write_into_the_field():
    # the foot was a view into the source points, so writing to it moved the
    # delta of every later query
    ell = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    grid = GridSpec(lo=[-2.3, -1.3], hi=[2.3, 1.3], cells=[46, 26])
    field = build_field(boundary_source([ell], 1024), E2, grid)
    res = project(field, [0.3, 0.2])
    with pytest.raises(ValueError, match="read-only"):
        res.point[:] = 99.0
    assert project(field, [0.3, 0.2]).delta == res.delta


def test_membership_takes_finite_rows_in_every_region():
    disk = Ellipsoid(np.eye(2), np.zeros(2))
    for region in ("curve", "set", "complement"):
        src = region_source([disk], 256, region)
        assert src.membership(np.zeros((3, 2))).shape == (3,)
        for bad in (np.zeros(2), np.zeros((2, 5)), np.zeros((1, 1, 2)), [[0.0, np.nan]]):
            with pytest.raises(InputError):
                src.membership(bad)


def test_empty_source_rejected():
    with pytest.raises(InputError):
        SourceSet(points=np.zeros((0, 2)), inside=nowhere)


@pytest.mark.parametrize("count", [0, 2])
def test_boundary_source_samples_exactly_one_body(count):
    with pytest.raises(InputError, match=f"a source samples exactly one body, got {count}"):
        boundary_source([UNIT_DISK] * count, 256)


def test_non_finite_source_point_is_refused():
    # a NaN point reached build_field, which raised a raw ValueError from
    # the reduction of an empty cluster
    pts = boundary_source([UNIT_DISK], 1024).points.copy()
    pts[7] = np.nan
    with pytest.raises(InputError, match=r"must be a nonempty \(N, d\) array of finite numbers"):
        SourceSet(points=pts, inside=nowhere)


@pytest.mark.parametrize("points", [np.zeros(8), np.zeros((2, 2, 2)), np.zeros((8, 0))])
def test_source_points_of_the_wrong_shape_are_refused(points):
    # 1-D points raised a raw IndexError
    with pytest.raises(InputError, match=r"source points must be a nonempty \(N, d\) array"):
        SourceSet(points=points, inside=nowhere)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), ([[0.0, 0.0]], [[1.0, 1.0]]), ([], [])])
def test_grid_bounds_that_are_not_vectors_are_refused(lo, hi):
    # scalar bounds raised a raw TypeError
    with pytest.raises(InputError, match="grid bounds must be vectors"):
        GridSpec(lo, hi, 8)


def test_point_outside_grid_rejected(disk_field):
    with pytest.raises(InputError):
        project(disk_field, [5.0, 0.0])


def test_cell_of_keeps_points_inside_the_box():
    # on the shipped ellipse grid, (x - lo) / spacing of the largest double
    # below hi rounds up to the cell count; the closed box keeps hi itself
    grid = GridSpec([-2.3, -1.3], [2.3, 1.3], [460, 260])
    assert grid.cell_of([np.nextafter(2.3, 0.0), 0.0]) == (459, 130)
    assert grid.cell_of(grid.hi) == (459, 259)
    assert grid.cell_of(grid.lo) == (0, 0)
    for outside in ([np.nextafter(2.3, 3.0), 0.0], [0.0, np.nextafter(-1.3, -2.0)]):
        with pytest.raises(InputError, match="outside the grid box"):
            grid.cell_of(outside)


@pytest.mark.parametrize(
    "cells, axis", [(100.5, 0), ([4.9, 5], 0), ([40, np.nan], 1), ([40, np.inf], 1)]
)
def test_grid_refuses_non_whole_cell_counts(cells, axis):
    # int() would truncate a fraction to a smaller grid
    with pytest.raises(InputError, match=f"grid axis {axis} cell count must be a whole number"):
        GridSpec(lo=[0, 0], hi=[1, 1], cells=cells)
    assert GridSpec(lo=[0, 0], hi=[1, 1], cells=[40.0, 30]).cells == (40, 30)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_names_the_coordinate(disk_field, bad):
    # a NaN must not be cast to a cell index and called "outside the grid box"
    with pytest.raises(InputError, match=r"non-finite coordinate x\[1\]"):
        project(disk_field, [0.2, bad])
    with pytest.raises(InputError, match="non-finite"):
        disk_field.grid.cell_of([bad, 0.0])


@pytest.mark.parametrize("x", [[0.1, 0.2, 0.3], [[0.1, 0.2], [0.3, 0.1]], [[0.1, 0.2]], [0.1], 0.1])
def test_query_of_the_wrong_shape_is_refused(disk_field, x):
    # these raised a raw ValueError or TypeError, and [0.1] broadcast to a
    # 2D cell index before failing later
    expected = rf"expected one point of shape \(2,\), got shape {re.escape(str(np.shape(x)))}"
    for query in (lambda: project(disk_field, x), lambda: disk_field.grid.cell_of(x)):
        with pytest.raises(InputError, match=expected):
            query()


def test_long_arc_projects_uniquely():
    # the foot cluster above the middle of a densely sampled rectangle's top
    # side is one connected arc of several hundred samples, far longer than
    # tol_unique
    src = _polygon([[-1.0, -0.5], [1.0, -0.5], [1.0, 0.0], [-1.0, 0.0]], 2 / 3000)
    grid = GridSpec([-1.5, -0.5], [1.5, 2.5], 300)
    field = build_field(src, E2, grid)
    assert field.grid.h == pytest.approx(0.01)
    assert field.tol_unique == pytest.approx(0.03)
    for height in (1.5, 2.0, 2.4):
        res = project(field, [0.0, height])
        assert not res.ambiguous
        assert res.gap == 0.0


def test_project_scans_the_source_once(disk_field, monkeypatch):
    calls = []
    fast = DualNorm.batch_value_fast

    def counted(self, W):
        calls.append(len(W))
        return fast(self, W)

    monkeypatch.setattr(DualNorm, "batch_value_fast", counted)
    res = project(disk_field, [0.5, 0.0])
    assert res.grad_check_dev is not None
    # one scan of the whole source for the foot; the cross-check's one call
    # for its 2 d shifted points covers only the sources near the foot
    assert len(calls) == 2
    assert calls[0] == len(disk_field.source.points)
    assert calls[1] < calls[0]


def test_project_finds_the_query_cell_once(disk_field, monkeypatch):
    calls = []
    cell_of = GridSpec.cell_of

    def counted(self, x):
        calls.append(tuple(x))
        return cell_of(self, x)

    monkeypatch.setattr(GridSpec, "cell_of", counted)
    for x in ([0.5, 0.0], [0.0, 0.0], [0.1, 0.2]):
        calls.clear()
        res = project(disk_field, x)
        assert calls == [tuple(x)]
        assert res.gap >= disk_field.gap[cell_of(disk_field.grid, x)]
    with pytest.raises(InputError, match="outside the grid box"):
        project(disk_field, [5.0, 0.0])


def test_boundary_source_refuses_surfaces():
    # a lat-long sample is no curve: its "spacing" would be the seam, not the
    # neighbour distance
    sphere = Ellipsoid(np.eye(3), np.zeros(3))
    with pytest.raises(InputError, match="sources are sampled curves"):
        boundary_source([sphere], (32, 64))


@pytest.fixture(scope="module", params=["closed loop", "clipped twice"])
def oracle_source(request):
    """A source and a grid whose cell counts leave partial coarse blocks and
    partial fine tiles on both axes; the middle of three disks in a row is
    clipped twice, so two arcs of it lie on the union's boundary."""
    if request.param == "closed loop":
        ell = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
        src = boundary_source([ell], 1024, region="complement")
        return src, GridSpec([-2.3, -1.3], [2.3, 1.3], [87, 53])
    disks = [Ellipsoid(np.eye(2), np.array([c, 0.0])) for c in (-1.5, 0.0, 1.5)]
    src = region_source(disks, 1024, "set")
    return src, GridSpec([-3.0, -1.6], [3.0, 1.6], [87, 53])


def _outside(field, delta):
    """delta with the membership cells zeroed, as the field stores it."""
    return np.where(field.source.membership(grid_centers(field.grid)), 0.0, delta)


def test_euclidean_field_matches_cdist(oracle_source):
    src, grid = oracle_source
    field = build_field(src, E2, grid)
    d = cdist(grid_centers(grid), src.points)
    assert np.array_equal(field.delta.ravel(), _outside(field, d.min(axis=1)))


def test_quadratic_field_matches_mahalanobis(oracle_source):
    src, grid = oracle_source
    q = QuadraticNorm(np.array([[3.0, 0.8], [0.8, 1.5]]))
    field = build_field(src, q, grid)
    d = cdist(grid_centers(grid), src.points, "mahalanobis", VI=q.inverse)
    assert np.abs(field.delta.ravel() - _outside(field, d.min(axis=1))).max() <= 1e-12


def test_weighted_sum_field_matches_per_cell_scan(oracle_source):
    src, grid = oracle_source
    field = build_field(src, WeightedSum(((0.5, E2), (1.0, Q2))), grid)
    scans = [field.dual.batch_value_fast(src.points - x) for x in grid_centers(grid)]
    assert np.array_equal(field.delta.ravel(), _outside(field, [d.min() for d in scans]))


@pytest.fixture(scope="module")
def weighted_field():
    w2 = WeightedSum(((0.5, E2), (1.0, Q2)))
    body = WulffBody(DualNorm(w2), np.zeros(2), 1.0)
    src = boundary_source([body], 1024, region="complement")
    return build_field(src, w2, GridSpec([-1.3, -0.8], [1.3, 0.8], [65, 40]))


QUERIES = ([0.3, 0.1], [-0.2, -0.15], [0.1, 0.2])


def test_project_solves_membership_once(weighted_field, monkeypatch):
    calls = {"batch_value": 0, "batch_value_fast": 0}
    for name in calls:
        def counted(self, W, _name=name, _method=getattr(DualNorm, name)):
            calls[_name] += 1
            return _method(self, W)

        monkeypatch.setattr(DualNorm, name, counted)
    res = project(weighted_field, QUERIES[0])
    assert res.grad_check_dev is not None
    # one scan for the foot and one for the 2 d shifted points; the bracket
    # decides the membership of x and the shifted points without a solve
    assert calls == {"batch_value": 0, "batch_value_fast": 2}


def test_weighted_sum_field_solves_no_table(monkeypatch):
    # the Wulff polygon behind batch_value_fast and grad_bound is closed form,
    # so a field's only Newton rows are the 2 x 8 of its evenness probe
    w2 = WeightedSum(((0.5, E2), (1.0, Q2)))
    body = WulffBody(DualNorm(w2), np.zeros(2), 1.0)
    src = boundary_source([body], 1024, region="complement")
    rows = []
    solve = DualNorm.batch_value

    def counted(self, W):
        rows.append(len(W))
        return solve(self, W)

    monkeypatch.setattr(DualNorm, "batch_value", counted)
    build_field(src, w2, GridSpec([-1.3, -0.8], [1.3, 0.8], [65, 40]))
    assert rows == [8, 8]


def test_one_wulff_polygon_per_integrand(monkeypatch):
    # a scene's body membership and every field under the scene's integrand
    # share the integrand's one DualNorm, so its Wulff polygon is built once
    builds = []
    polygon = DualNorm._polygon

    def counted(self):
        if self._poly is None:
            builds.append(self.base)
        return polygon(self)

    monkeypatch.setattr(DualNorm, "_polygon", counted)
    scene = parse_scene(
        {
            "integrand": {
                "family": "weighted-sum",
                "terms": [
                    {"weight": 0.5, "integrand": {"family": "euclidean", "dimension": 2}},
                    {"weight": 1.0, "integrand": {"family": "quadratic", "matrix": [[4, 0], [0, 1]]}},
                ],
            },
            "bodies": [{"id": "w", "kind": "wulff", "center": [0.0, 0.0], "radius": 1.0}],
        }
    )
    src = boundary_source([scene.bodies[0][1]], 1024, region="complement")
    for _ in range(2):
        build_field(src, scene.integrand, GridSpec([-1.3, -0.8], [1.3, 0.8], [65, 40]))
    assert builds == [scene.integrand]


def test_project_in_A_returns_the_stored_zero(monkeypatch):
    # (1.2, 1.2) lies outside the Wulff ball, so in its complement A
    body = WulffBody(DQ, np.zeros(2), 1.0)
    src = boundary_source([body], 1024, region="complement")
    probes = []

    def inside(x):
        probes.append(len(x))
        return src.inside(x)

    counted = SourceSet(points=src.points, inside=inside)
    field = build_field(counted, Q2, GridSpec([-1.5, -1.5], [1.5, 1.5], 150))
    scans = []
    fast = DualNorm.batch_value_fast

    def scan(self, W):
        scans.append(len(W))
        return fast(self, W)

    monkeypatch.setattr(DualNorm, "batch_value_fast", scan)
    probes.clear()
    x = [1.2, 1.2]
    res = project(field, x)
    assert res.delta == 0.0 == _delta_at(field, x)
    assert res.gap == 0.0 and not res.ambiguous
    assert res.grad_check_dev is None
    # one membership call, and no scan beyond the foot's
    assert len(probes) == 1
    assert scans == [len(src.points)]


def test_project_grad_check_matches_per_axis_reference(weighted_field):
    field = weighted_field
    pts, h = field.source.points, field.grid.h

    def delta(p):
        if field.source.membership(p[None])[0]:
            return 0.0
        return field.dual.batch_value_fast(pts - p).min()

    for x in np.array(QUERIES):
        grad = np.array([(delta(x + e) - delta(x - e)) / (2 * h) for e in h * np.eye(2)])
        res = project(field, x)
        rebuilt = x - res.delta * field.f.grad(grad[None])[0]
        assert res.grad_check_dev == np.linalg.norm(rebuilt - pts[res.foot_index])


def _field_matches_resolver(field):
    """Every cell's stored gap equals the per-point resolver at its centre."""
    centers = grid_centers(field.grid)
    gaps = field.gap.ravel()
    member = field.source.membership(centers)
    assert np.all(gaps[member] == 0.0)
    for i in np.nonzero(~member)[0]:
        expected = resolve_gap(
            field.source.points,
            field.dual.batch_value_fast(field.source.points - centers[i]),
            EPS_CLUSTER,
            WINDOW_CELLS * field.grid.h,
            field.tol_unique,
        )
        assert gaps[i] == expected, (i, centers[i], gaps[i], expected)


def test_field_gap_matches_resolver_two_disks():
    disks = [Ellipsoid(np.eye(2), np.array([c, 0.0])) for c in (-0.9, 0.9)]
    src = region_source(disks, 1024, "complement")
    grid = GridSpec([-2.4, -1.2], [2.4, 1.2], [96, 48])
    _field_matches_resolver(build_field(src, E2, grid))


def test_field_gap_matches_resolver_wulff():
    body = WulffBody(DQ, np.zeros(2), 1.0)
    src = boundary_source([body], 1024, region="complement")
    grid = GridSpec([-1.1, -0.6], [1.1, 0.6], [88, 48])
    _field_matches_resolver(build_field(src, Q2, grid))


def test_field_gap_matches_resolver_rotated():
    # a rotated M keeps the Lipschitz tile bound
    body = WulffBody(DualNorm(QN), np.zeros(2), 1.0)
    src = boundary_source([body], 1024, region="complement")
    grid = GridSpec([-2.0, -1.3], [2.0, 1.3], [80, 52])
    _field_matches_resolver(build_field(src, QN, grid))


def _arcs(seed, n_arcs, per_arc, step):
    """Sampled circular arcs at random places, each in sampling order."""
    rng = np.random.default_rng(seed)
    arcs = []
    for _ in range(n_arcs):
        centre = rng.uniform(-1.0, 1.0, 2)
        radius = rng.uniform(0.2, 1.0)
        t0 = rng.uniform(0.0, 2 * np.pi)
        t = t0 + step / radius * np.arange(per_arc)
        arcs.append(centre + radius * np.stack([np.cos(t), np.sin(t)], axis=1))
    return np.concatenate(arcs), rng


@given(
    hst.integers(0, 2**32 - 1),
    hst.integers(1, 3),
    hst.integers(1, 25),
    hst.sampled_from([0.4, 0.9, 1.1, 2.5, 12.0]),
    hst.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_connected_matches_single_linkage_oracle(seed, n_arcs, per_arc, factor, shuffle):
    step = 0.05
    pts, rng = _arcs(seed, n_arcs, per_arc, step)
    if shuffle:
        pts = pts[rng.permutation(len(pts))]
    tol = factor * step
    assert _connected(pts, tol) == single_linkage_connected(pts, tol)


@pytest.mark.parametrize("ulps", [0, 1, 2])
def test_source_on_the_window_edge_is_a_near_minimizer(ulps):
    # h = 1: the window of the cell at (3.5, 7.5), whose nearest source lies
    # 2 away, ends at edge = 2 + (EPS_CLUSTER 2 + 1.5), rounded as the
    # library rounds it; a second source exactly that far below the cell,
    # 4.03 > tol_unique = 3 from the first, splits the cell's cluster, and
    # one just beyond it leaves the cluster one point
    edge = 2.0 + (EPS_CLUSTER * 2.0 + WINDOW_CELLS * 1.0)
    low = 7.5 - edge
    # both differences are exact, so each ulp below moves the source one ulp
    # of edge further off
    assert 7.5 - low == edge
    for _ in range(ulps):
        low = np.nextafter(low, -np.inf)
    # a closed polygon at unit steps through both sources: beside them, only
    # the neighbours of the first are within the window
    src = _polygon([[1.5, 7.5], [-0.5, 7.5], [-0.5, low], [3.5, low], [7.5, low], [7.5, 11.5],
                    [1.5, 11.5]], 1.0)
    cluster = np.array([[1.5, 9.5], [1.5, 8.5], [1.5, 7.5], [0.5, 7.5], [3.5, low]])
    assert all((src.points == p).all(axis=1).any() for p in cluster)
    field = build_field(src, E2, GridSpec([0.0, 0.0], [8.0, 8.0], 8))
    assert field.delta[3, 7] == 2.0 and field.tol_unique == 3.0
    assert field.gap[3, 7] == (_pdist_diameter(cluster) if ulps == 0 else 0.0)


def _pdist_diameter(pts):
    return np.sqrt(pdist(pts, "sqeuclidean").max()) if len(pts) > 1 else 0.0


@given(
    hst.integers(0, 2**32 - 1),
    hst.integers(1, 1500),
    hst.integers(1, 12),
    hst.sampled_from([2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_diameters_match_pdist(seed, k, n_rows, dim):
    # many rows over one point set, addressed through sorted source indices:
    # rows of one point, sparse rows that leave most chunks empty, and dense
    # ones; clustered points put many chunk bounds near the diameter
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((k + 7, dim)) * rng.uniform(0.01, 3.0, dim)
    cand = np.sort(rng.choice(len(points), k, replace=False))
    near = rng.random((n_rows, k)) < rng.uniform(0.0, 1.0, (n_rows, 1))
    near[np.arange(n_rows), rng.integers(k, size=n_rows)] = True
    near[0] = False
    near[0, rng.integers(k)] = True
    got = _diameters(points, cand, near)
    assert got.shape == (n_rows,)
    for row, value in zip(near, got):
        assert value == _pdist_diameter(points[cand[row]])


@pytest.mark.parametrize("n", [2048, 4099])
def test_diameters_of_dense_circle_match_pdist(n):
    # nearly every chunk pair's box bound lies close to the diameter here;
    # the rows hold the whole circle, arcs of it, and every other point
    rng = np.random.default_rng(n)
    t = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    pts = np.stack([np.cos(t), np.sin(t)], axis=1) * (1.0 + 1e-9 * rng.standard_normal((n, 1)))
    near = np.ones((4, n), dtype=bool)
    near[1, n // 3 :] = False
    near[2, : n // 2] = False
    near[3, ::2] = False
    got = _diameters(pts, np.arange(n), near)
    for row, value in zip(near, got):
        assert value == _pdist_diameter(pts[row])


@given(
    hst.floats(min_value=0.0, max_value=1e150, exclude_min=True),
    hst.integers(-3, 3),
)
@settings(max_examples=300, deadline=None)
def test_square_bound_is_the_largest_square_within_the_root(t, step):
    # q <= X(t) exactly when the rounded root of q is at most t, for q at
    # fl(t t) and the doubles around it
    bound = _square_bound(np.array([t]))[0]
    q = t * t
    for _ in range(abs(step)):
        q = np.nextafter(q, np.inf if step > 0 else 0.0)
    for x in (q, np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
        assert (x <= bound) == (np.sqrt(x) <= t)


QN = QuadraticNorm(np.array([[3.0, 0.8], [0.8, 1.5]]))
FIELD_INTEGRANDS = {"E2": E2, "quadratic": QN, "weighted sum": WeightedSum(((0.5, E2), (1.0, QN)))}
TWO_DISKS = [Ellipsoid(np.eye(2), np.array([c, 0.0])) for c in (-0.8, 0.8)]
# partial coarse blocks and fine tiles on both axes
SKIP_GRID = GridSpec([-2.3, -1.5], [2.3, 1.5], [97, 63])


def _wrapped_ellipse():
    """An ellipse's closed sample rotated to start at its top vertex, so the
    wrap from the last sample to the first falls inside the upper foot arc of
    the cells in the medial band: their index runs are split at the wrap, and
    the linkage screen finds those runs within linkage."""
    body = Ellipsoid(np.diag([0.25, 1 / 0.49]), np.zeros(2))
    src = boundary_source([body], 1024, region="complement")
    top = int(np.argmax(src.points[:, 1]))
    return SourceSet(points=np.roll(src.points, -top, axis=0), inside=src.inside)


def _corner():
    """A rectangle's boundary, A the closed set outside it: the clusters of
    cells on the bisector of its corner at the origin meet both sides in two
    index runs, which come within linkage for cells near the corner, linked
    across them, and stay apart further out, split, so ``_connected``
    decides both."""
    return _polygon(
        [[-2.0, 0.0], [0.0, 0.0], [0.0, 1.3], [-2.0, 1.3]],
        0.02,
        inside=lambda x: ~((-2.0 < x[:, 0]) & (x[:, 0] < 0.0) & (0.0 < x[:, 1]) & (x[:, 1] < 1.3)),
    )


# sources whose flagged clusters the linkage screen leaves to ``_connected``
SCREENED = {"wrapped ellipse": _wrapped_ellipse, "corner": _corner}


def test_screened_sources_reach_connected_both_ways(monkeypatch):
    # the corner gives ``_connected`` both a linked cluster and a split one
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    outcomes, connected = [], distance._connected

    def counted(pts, linkage):
        outcomes.append(connected(pts, linkage))
        return outcomes[-1]

    monkeypatch.setattr(distance, "_connected", counted)
    for make in SCREENED.values():
        build_field(make(), E2, SKIP_GRID)
    assert set(outcomes) == {True, False}


def _scan_everywhere(src, f, grid):
    """build_field with no membership, then delta and gap zeroed on A."""
    plain = build_field(SourceSet(points=src.points, inside=nowhere), f, grid)
    member = src.membership(grid_centers(grid)).reshape(grid.shape)
    return np.where(member, 0.0, plain.delta), np.where(member, 0.0, plain.gap)


def _skip_cases():
    for region in ("complement", "set", "curve", *SCREENED):
        for name in FIELD_INTEGRANDS:
            yield pytest.param(region, name, id=f"{region}-{name}")
    yield pytest.param("wulff", "weighted sum", id="wulff-complement-weighted sum")


@pytest.mark.parametrize("region, name", list(_skip_cases()))
def test_skipping_A_keeps_every_bit(region, name):
    f = FIELD_INTEGRANDS[name]
    if region == "wulff":
        body = WulffBody(DualNorm(f), np.zeros(2), 1.0)
        src = boundary_source([body], 1024, region="complement")
    elif region in SCREENED:
        src = SCREENED[region]()
    else:
        src = region_source(TWO_DISKS, 1024, region)
    field = build_field(src, f, SKIP_GRID)
    delta, gap = _scan_everywhere(src, f, SKIP_GRID)
    assert np.array_equal(field.delta, delta)
    assert np.array_equal(field.gap, gap)
    # the cluster analysis is exercised on both sides of every comparison
    assert field.gap.any()
    if region != "curve":
        assert 0 < src.membership(grid_centers(SKIP_GRID)).sum() < field.delta.size


@pytest.mark.parametrize("name", list(FIELD_INTEGRANDS))
def test_field_bits_do_not_depend_on_the_block_order(monkeypatch, name):
    # with one usable CPU the blocks run in-process in the order handed to
    # _fan_out; reversed and shuffled, they leave every bit of the
    # row-major field
    f = FIELD_INTEGRANDS[name]
    src = region_source(TWO_DISKS, 1024, "complement")
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    row_major = build_field(src, f, SKIP_GRID)
    fan_out, rng = distance._fan_out, np.random.default_rng(3)
    for order in (lambda n: np.arange(n)[::-1], rng.permutation, rng.permutation):
        seen = []

        def permuted(items, work):
            perm = order(len(items))
            seen.append(perm)
            return fan_out([items[i] for i in perm], work)

        monkeypatch.setattr(distance, "_fan_out", permuted)
        field = build_field(src, f, SKIP_GRID)
        assert len(seen) == 1 and len(seen[0]) > 4 and np.any(seen[0] != np.arange(len(seen[0])))
        assert np.array_equal(field.delta, row_major.delta)
        assert np.array_equal(field.gap, row_major.gap)
    assert row_major.gap.any()


def _count_scans(monkeypatch):
    """Rows that reach the cluster analysis, and calls of the candidate search."""
    work = {"rows": 0, "candidates": 0}
    analysis, candidates = distance._cluster_analysis, distance._candidates

    def counted_analysis(*args):
        resolve = analysis(*args)

        def counted(d, cand, squared):
            work["rows"] += len(d)
            return resolve(d, cand, squared)

        return counted

    def counted_candidates(*args):
        work["candidates"] += 1
        return candidates(*args)

    monkeypatch.setattr(distance, "_cluster_analysis", counted_analysis)
    monkeypatch.setattr(distance, "_candidates", counted_candidates)
    return work


def test_field_scans_only_cells_outside_A(monkeypatch):
    work = _count_scans(monkeypatch)
    # the counters see the scan only when it runs in this process
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    src = region_source(TWO_DISKS, 1024, "complement")
    outside = np.count_nonzero(~src.membership(grid_centers(SKIP_GRID)))
    # the end-row box bound of E2 and the Lipschitz bound of a rotated M;
    # only the latter searches candidates
    for f in (E2, QN):
        work["rows"] = work["candidates"] = 0
        build_field(src, f, SKIP_GRID)
        assert work["rows"] == outside
        assert (work["candidates"] > 0) == (f is QN)


def test_field_of_all_A_scans_nothing(monkeypatch):
    work = _count_scans(monkeypatch)
    src = region_source(TWO_DISKS, 1024, "complement")
    everywhere = SourceSet(points=src.points, inside=lambda x: np.ones(len(x), dtype=bool))
    field = build_field(everywhere, E2, SKIP_GRID)
    assert work == {"rows": 0, "candidates": 0}
    assert not field.delta.any() and not field.gap.any()


def test_field_holds_no_array_per_cell_beside_delta_and_gap(monkeypatch):
    # in-process, so that tracemalloc sees the whole scan: delta and the gap
    # live in an anonymous mapping, which it does not trace, and every other
    # array is one block's or one tile's, so the traced peak stays far below
    # the 16 bytes per cell of the grid's centres
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    src = boundary_source([UNIT_DISK], 1024, region="complement")
    grid = GridSpec([-2.5, -2.5], [2.5, 2.5], 800)
    tracemalloc.start()
    try:
        field = build_field(src, E2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.delta.size == 640_000 and field.delta.max() > 0.9
    assert peak < 8 * field.delta.size


def _axis_lines_of(f, src, grid):
    return distance._axis_lines(DualNorm(f), src.points, grid._axes())


def _lines_of_the_mapped_grid(f, src, grid):
    """The axis tables read off the whole grid's mapped centres: per axis k,
    the mapped coordinate k along axis k and of the sources, or None unless
    every mapped coordinate k is constant along the other grid axes."""
    if isinstance(f, WeightedSum):
        return None
    l = np.linalg.cholesky(f.inverse) if isinstance(f, QuadraticNorm) else np.eye(grid.dim)
    centers, sources = grid_centers(grid) @ l, src.points @ l
    lines = []
    for k in range(grid.dim):
        coord = centers[:, k].reshape(grid.shape)
        line = coord[tuple(slice(None) if j == k else slice(0, 1) for j in range(grid.dim))]
        if not (coord == line).all():
            return None
        lines.append((line.ravel(), sources[:, k]))
    return lines


NEGATIVE_GRID = GridSpec([-6.1, -3.3], [-2.2, -0.4], [53, 41])


def test_axis_tables_only_for_axis_separable_maps():
    src = region_source(TWO_DISKS, 256, "complement")
    assert _axis_lines_of(E2, src, SKIP_GRID) is not None
    assert _axis_lines_of(Q2, src, SKIP_GRID) is not None
    assert _axis_lines_of(QN, src, SKIP_GRID) is None
    assert _axis_lines_of(WeightedSum(((0.5, E2), (1.0, Q2))), src, SKIP_GRID) is None


@pytest.mark.parametrize("grid", [SKIP_GRID, NEGATIVE_GRID], ids=["skip", "negative"])
@pytest.mark.parametrize(
    "f", [E2, Q2, QN, WeightedSum(((0.5, E2), (1.0, Q2)))],
    ids=["E2", "diagonal M", "rotated M", "weighted sum"],
)
def test_axis_tables_are_those_of_the_mapped_grid(grid, f):
    # the integrand picks the tables where the whole grid's mapped centres
    # would, and its lines carry their bits
    src = region_source(TWO_DISKS, 256, "complement")
    lines, expected = _axis_lines_of(f, src, grid), _lines_of_the_mapped_grid(f, src, grid)
    assert (lines is None) == (expected is None)
    for (line, source), (line_e, source_e) in zip(lines or (), expected or ()):
        assert np.array_equal(line, line_e) and np.array_equal(source, source_e)


def test_block_centres_map_as_the_rows_of_the_whole_grid():
    # a rotated M maps each block's own centres; every block and every tile
    # carries the bits of the whole grid's product
    grid = GridSpec([-2.3, -1.5], [2.3, 1.5], [460, 260])
    src = region_source(TWO_DISKS, 256, "complement")
    place, _values = distance._pairwise_values(DualNorm(QN), src.points)
    axes, mapped = grid._axes(), place(grid_centers(grid)).reshape(*grid.shape, 2)
    whole = tuple(slice(0, n) for n in grid.shape)
    for target in (distance.BLOCK_CELLS, distance.TILE_CELLS):
        for box in distance._boxes(whole, target):
            assert np.array_equal(
                place(distance._box_centers(axes, box)), mapped[box].reshape(-1, 2)
            )


def _per_cell_scan(src, field):
    """delta and gap of each cell outside A from its values to every source,
    through the field's own closed-form values and cluster analysis."""
    grid, centers = field.grid, grid_centers(field.grid)
    place, values = distance._pairwise_values(field.dual, src.points)
    mapped = place(centers)
    resolve = distance._cluster_analysis(src, WINDOW_CELLS * grid.h, field.tol_unique)
    every = np.arange(len(src.points))
    delta, gap = np.zeros(len(centers)), np.zeros(len(centers))
    for i in np.flatnonzero(~src.membership(centers)):
        (delta[i],), (gap[i],) = resolve(values(mapped[[i]], every), every, False)
    return delta.reshape(grid.shape), gap.reshape(grid.shape)


@pytest.mark.parametrize("f", [E2, Q2], ids=["E2", "diagonal M"])
@pytest.mark.parametrize("grid", [SKIP_GRID, NEGATIVE_GRID], ids=["skip", "negative"])
def test_axis_lines_do_not_decrease(grid, f):
    # the end-row box bound of ``_box_keep`` rests on this
    src = region_source(TWO_DISKS, 256, "complement")
    lines = _axis_lines_of(f, src, grid)
    assert len(lines) == 2
    for line, _src in lines:
        assert np.all(np.diff(line) >= 0.0)


@pytest.mark.parametrize("f", [E2, Q2], ids=["E2", "diagonal M"])
@pytest.mark.parametrize("kind", ["two disks", "wulff", *SCREENED])
def test_axis_tables_match_the_per_cell_route(kind, f):
    if kind == "wulff":
        src = boundary_source([WulffBody(DualNorm(f), np.zeros(2), 1.0)], 1024, region="complement")
    elif kind in SCREENED:
        src = SCREENED[kind]()
    else:
        src = region_source(TWO_DISKS, 1024, "complement")
    assert _axis_lines_of(f, src, SKIP_GRID) is not None
    field = build_field(src, f, SKIP_GRID)
    delta, gap = _per_cell_scan(src, field)
    assert np.array_equal(field.delta, delta)
    assert np.array_equal(field.gap, gap)
    assert field.gap.any()


@given(
    hst.integers(0, 2**32 - 1),
    hst.sampled_from(["E2", "diagonal M"]),
    hst.tuples(hst.integers(1, 16), hst.integers(1, 16)),
    hst.integers(1, 7),
    hst.sampled_from([0.0, 0.5, 1.5]),
)
@settings(max_examples=80, deadline=None)
def test_tile_candidates_hold_every_near_minimizer(seed, name, sides, side, window_cells):
    pts, rng = _arcs(seed, 3, 40, 0.05)
    f = E2 if name == "E2" else QuadraticNorm(np.diag(rng.uniform(0.2, 5.0, 2)))
    src = SourceSet(points=pts, inside=nowhere)
    grid = GridSpec(rng.uniform(-2.0, -1.0, 2), rng.uniform(1.0, 2.0, 2), rng.integers(16, 30, 2))
    lines = _axis_lines_of(f, src, grid)
    place, values = distance._pairwise_values(DualNorm(f), pts)
    mapped = place(grid_centers(grid))
    window = window_cells * grid.h
    every = np.arange(len(pts))

    def near_outside(cells, cand):
        brute = values(mapped[cells], every)
        m = brute.min(axis=1)
        near = brute <= (m + (EPS_CLUSTER * m + window))[:, None]
        return near[:, np.setdiff1d(every, cand)].sum(), brute

    # a block anywhere in the grid, bounded over every source
    corner = [rng.integers(0, n - k + 1) for n, k in zip(grid.shape, sides)]
    ends = np.add(corner, sides)
    flat = np.arange(np.prod(grid.shape)).reshape(grid.shape)
    block = flat[corner[0] : ends[0], corner[1] : ends[1]]
    whole = distance._box_keep(lines, [[c] for c in corner], ends[:, None], every, window)
    assert whole.shape == (1, 1, len(every))
    coarse = np.flatnonzero(whole)
    assert near_outside(block.ravel(), coarse)[0] == 0
    # its tiles of ``side`` cells per axis, the last ones cut short, bounded
    # together over the block's candidates
    starts = [np.arange(c, e, side) for c, e in zip(corner, ends)]
    stops = [np.minimum(s + side, e) for s, e in zip(starts, ends)]
    keep = distance._box_keep(lines, starts, stops, coarse, window)
    assert keep.shape == (len(starts[0]), len(starts[1]), len(coarse))
    for i, j in np.ndindex(keep.shape[:2]):
        box = (slice(starts[0][i], stops[0][i]), slice(starts[1][j], stops[1][j]))
        tile = flat[box]
        rows = np.flatnonzero(rng.random(tile.size) < 0.7)
        if len(rows) == 0:
            rows = np.arange(tile.size)
        cand = coarse[keep[i, j]]
        lost, brute = near_outside(tile.ravel()[rows], cand)
        assert lost == 0
        # the roots of the tile's squared values carry the bits of the
        # per-cell route
        d = distance._tile_distances(lines, box, rows, cand)
        assert np.array_equal(np.sqrt(d), brute[:, cand])


@given(
    hst.integers(0, 2**32 - 1),
    hst.integers(2, 4),
    hst.integers(1, 25),
    hst.sampled_from([0.4, 0.9, 1.1, 2.5, 12.0]),
)
@settings(max_examples=100, deadline=None)
def test_linkage_screen_splits_only_split_clusters(seed, n_arcs, per_arc, factor):
    # rows are random subsets of a few sampled arcs; a row the screen calls
    # split must be split for the single-linkage oracle
    step = 0.05
    pts, rng = _arcs(seed, n_arcs, per_arc, step)
    cand = np.sort(rng.choice(len(pts) + 50, len(pts), replace=False))
    points = np.zeros((cand[-1] + 1, 2))
    points[cand] = pts
    near = rng.random((6, len(cand))) < rng.uniform(0.2, 1.0)
    split = distance._linkage_screen(points, cand, near, factor * step)
    assert split.shape == (len(near),)
    for row, s in zip(near, split):
        if s:
            assert not single_linkage_connected(points[cand[row]], factor * step)


def test_boxes_tile_the_box_from_its_corner():
    # sides 23 x 17 are not multiples of the box side, so the boxes on the
    # far edges are smaller
    flat = np.arange(23 * 17).reshape(23, 17)
    boxes = list(distance._boxes((slice(0, 23), slice(0, 17)), 25))
    assert len({flat[box].shape for box in boxes}) == 4
    assert sum(flat[box].size for box in boxes) == flat.size
    assert all(flat[box].shape == (5, 5) for box in boxes[:3])
    # the boxes of an inner box start at its corner and stay inside it
    inner = (slice(4, 21), slice(3, 14))
    cells = np.concatenate([flat[box].ravel() for box in distance._boxes(inner, 25)])
    assert np.array_equal(np.sort(cells), np.sort(flat[inner].ravel()))


@pytest.mark.parametrize(
    "f", [E2, QN, WeightedSum(((0.5, E2), (1.0, QN)))], ids=["E2", "rotated M", "weighted sum"]
)
def test_extent_bounds_every_cell_of_the_box(f):
    # the extent of a box shape is reached at a corner cell's centre and
    # bounds F* from the box's centre to each of its cell centres, both ways
    dual = DualNorm(f)
    grid = GridSpec([-2.3, -1.5], [2.3, 1.5], [460, 260])
    axes = grid._axes()
    boxes = [(slice(0, 10), slice(0, 10)), (slice(450, 460), slice(37, 40)), (slice(7, 8), slice(3, 5))]
    for box in boxes:
        dims = tuple(s.stop - s.start for s in box)
        extent = distance._extent(dual, 0.5 * (np.asarray(dims) - 1) * grid.spacing)
        centers = distance._box_centers(axes, box)
        xc = 0.5 * (centers[0] + centers[-1])
        out = dual.batch_value_fast(np.concatenate([centers - xc, xc - centers]))
        assert out.max() <= extent + 1e-12
        assert out.max() >= extent - 1e-12
    assert distance._extent(dual, [0.0, 0.0]) == 0.0


# build_field's blocks in forked workers

FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _forks(monkeypatch, cpus):
    """Pretend ``cpus`` usable CPUs, and list the forks of the calls that follow."""
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


def _overlapping_union():
    # each disk clips the other's boundary into one arc
    bodies = [Ellipsoid(np.eye(2), np.array([c, 0.0])) for c in (-0.6, 0.6)]
    return region_source(bodies, 1024, "complement")


@FORKS
@pytest.mark.parametrize("name", list(FIELD_INTEGRANDS))
@pytest.mark.parametrize("region", ["complement", "set", "curve", "overlapping union"])
def test_fanned_out_field_matches_the_in_process_one(monkeypatch, region, name):
    f = FIELD_INTEGRANDS[name]
    if region == "overlapping union":
        src = _overlapping_union()
    else:
        src = region_source(TWO_DISKS, 1024, region)
    forks = _forks(monkeypatch, 1)
    alone = build_field(src, f, SKIP_GRID)
    assert not forks
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 3)
    fanned = build_field(src, f, SKIP_GRID)
    assert len(forks) == 3
    _no_child_left()
    assert np.array_equal(fanned.delta, alone.delta)
    assert np.array_equal(fanned.gap, alone.gap)
    assert fanned.gap.any()


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


@FORKS
def test_fan_out_runs_each_item_once(monkeypatch):
    # more workers than CPUs contend for many short items; an index claimed
    # twice or skipped shows in the shared hit counts
    workers = (os.cpu_count() or 1) + 1
    forks = _forks(monkeypatch, workers)
    hits = np.frombuffer(mmap.mmap(-1, 8 * 2000), dtype=np.int64)

    def work(i):
        hits[i] += 1

    with _time_limit(60):
        fanout._fan_out(list(range(2000)), work)
    assert len(forks) == workers
    _no_child_left()
    assert np.all(hits == 1)


@FORKS
def test_worker_error_reaches_the_caller(monkeypatch):
    forks = _forks(monkeypatch, 2)
    best = np.array([0.25, 0.5])

    def failing(*args):
        def resolve(d, cand, squared):
            raise SolverError("no convergence in a tile", best=best, gap=1e-3)

        return resolve

    monkeypatch.setattr(distance, "_cluster_analysis", failing)
    src = region_source(TWO_DISKS, 1024, "complement")
    with pytest.raises(SolverError) as info:
        build_field(src, E2, SKIP_GRID)
    assert forks
    _no_child_left()
    assert str(info.value) == "no convergence in a tile"
    assert np.array_equal(info.value.best, best) and info.value.gap == 1e-3
    if sys.version_info >= (3, 11):
        assert "in a worker process" in info.value.__notes__[0]


@FORKS
def test_worker_that_dies_names_its_exit_status(monkeypatch):
    forks = _forks(monkeypatch, 2)
    caller = os.getpid()

    def dying(*args):
        def resolve(d, cand, squared):
            if os.getpid() != caller:
                os._exit(7)
            raise AssertionError("a block was scanned in the caller")

        return resolve

    monkeypatch.setattr(distance, "_cluster_analysis", dying)
    src = region_source(TWO_DISKS, 1024, "complement")
    with pytest.raises(RuntimeError, match="ended without a report, exit status 7"):
        build_field(src, E2, SKIP_GRID)
    assert forks
    _no_child_left()


@FORKS
def test_failed_fork_reaps_the_started_workers(monkeypatch):
    fork, forks = os.fork, []

    def second_fails():
        forks.append(os.getpid())
        if len(forks) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(OSError, match="temporarily unavailable"):
        fanout._fan_out(list(range(10)), lambda i: None)
    _no_child_left()


def test_scan_stays_in_process_on_one_cpu_beside_a_thread_or_on_few_blocks(monkeypatch):
    src = region_source(TWO_DISKS, 1024, "complement")
    forks = _forks(monkeypatch, 1)
    build_field(src, E2, SKIP_GRID)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        build_field(src, E2, SKIP_GRID)
    finally:
        release.set()
        thread.join()
    # one block of 40 x 40 cells
    build_field(src, E2, GridSpec([-2.3, -1.5], [2.3, 1.5], [40, 40]))
    assert not forks


@FORKS
def test_field_raises_the_first_refusing_block_in_row_major_order(monkeypatch):
    # every block's membership call refuses and names the block's first
    # cell centre; block 0 refuses last, so with two workers the caller
    # raised block 1's refusal first
    src = boundary_source([UNIT_DISK], 1024)
    first = (-1.9875, -1.9875)

    def inside(x):
        if tuple(x[0]) == first:
            time.sleep(0.05)
        raise InputError(f"refused at {x[0][0]} {x[0][1]}")

    refusing = SourceSet(points=src.points, inside=inside)
    grid = GridSpec([-2.0, -2.0], [2.0, 2.0], 160)
    assert len(list(distance._boxes((slice(0, 160), slice(0, 160)), distance.BLOCK_CELLS))) == 16
    for cpus in (2, 1):
        forks = _forks(monkeypatch, cpus)
        with pytest.raises(InputError, match=re.escape("refused at -1.9875 -1.9875")):
            build_field(refusing, E2, grid)
        assert len(forks) == (2 if cpus == 2 else 0)
        _no_child_left()


@pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
def test_one_usable_cpu_without_fork_or_affinity(monkeypatch, name):
    monkeypatch.delattr(os, name, raising=False)
    assert fanout._usable_cpus() == 1


@pytest.fixture(
    scope="module", params=["E2", "rotated M", "weighted sum"], ids=lambda name: name
)
def query_field(request):
    """A field of the complement of an ellipse, with the centres of its
    cells in A and of its cells with a gap above tol_unique."""
    f = {"E2": E2, "rotated M": QN, "weighted sum": WeightedSum(((0.5, E2), (1.0, QN)))}
    ell = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    src = boundary_source([ell], 1024, region="complement")
    field = build_field(src, f[request.param], GridSpec([-2.4, -1.4], [2.4, 1.4], [96, 56]))
    centers = grid_centers(field.grid)
    gapped = centers[field.gap.ravel() > field.tol_unique]
    assert len(gapped)
    return field, centers[src.membership(centers)], gapped


@given(
    hst.sampled_from(["in A", "near the boundary", "medial axis", "off A"]),
    hst.integers(0, 2**31 - 1),
    hst.floats(0.0, 1.0),
    hst.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_project_matches_the_brute_force_reference(query_field, kind, pick, u, v):
    # every field of the result against a scan of every source, the pdist
    # gap and per-axis central differences of the brute-force delta; the
    # cross-check runs on queries off A more than 2h from it
    field, in_a, gapped = query_field
    grid, h = field.grid, field.grid.h
    if kind == "off A":
        # anywhere in the ellipse
        base = np.zeros(2)
        offset = np.sqrt(u) * np.array([2 * np.cos(2 * np.pi * v), np.sin(2 * np.pi * v)])
    elif kind == "near the boundary":
        # within 2h of a boundary sample, on either side
        base = field.source.points[pick % len(field.source.points)]
        offset = 2 * h * np.sqrt(u) * np.array([np.cos(2 * np.pi * v), np.sin(2 * np.pi * v)])
    else:
        # anywhere in a cell of A, or of the cells the medial axis crosses
        pool = in_a if kind == "in A" else gapped
        base = pool[pick % len(pool)]
        offset = h * (np.array([u, v]) - 0.5)
    x = np.clip(base + offset, grid.lo, grid.hi)
    res = project(field, x)
    point, delta, gap, ambiguous, foot, dev = project_reference(field, x, WINDOW_CELLS)
    assert np.array_equal(res.point, point)
    assert (res.delta, res.gap, res.ambiguous, res.foot_index) == (delta, gap, ambiguous, foot)
    assert res.grad_check_dev == dev
