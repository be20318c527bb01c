import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wulffkit import (
    DomainError,
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    InputError,
    Integrand,
    QuadraticNorm,
    SolverError,
    Superellipse,
    WeightedSum,
    WulffBody,
)

from wulffkit.duality import _bucket, _newton_step, _polygon_directions, _squared_hessian
from wulffkit.integrand import _row_norm
from wulffkit.spheregrid import sphere_quadrature

from oracles import (
    brute_conjugate,
    fd_jacobian,
    golden_conjugate,
    search_cone,
    search_gauge,
    value_grad_hess,
)

E2 = EuclideanNorm(2)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
W2 = WeightedSum(((0.5, E2), (1.0, Q2)))
DE, DQ, DW = DualNorm(E2), DualNorm(Q2), DualNorm(W2)


def unit_points(f, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, f.dim))
    x = x[np.linalg.norm(x, axis=1) > 1e-6]
    return x / f.value(x)[:, None]


def test_conjugate_examples():
    e = DE.batch_value(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert e[0] == pytest.approx(5.0, abs=1e-12)
    assert e[1] == 0.0
    assert DQ.batch_value(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.5, abs=1e-12)


def test_conjugate_against_brute_force():
    # frozen from dense enumeration over the F-unit circle
    w = np.array([1.0, 0.0])
    assert brute_conjugate(Q2.value, w) == pytest.approx(0.5, abs=1e-9)
    wv = np.array([[0.3, -1.2], [2.0, 0.7]])
    assert DW.batch_value(wv) == pytest.approx(golden_conjugate(W2.value, wv), rel=1e-10)


def test_conjugate_of_gradient_is_one():
    for dual, f in ((DE, E2), (DQ, Q2), (DW, W2)):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1000, 2)) * 2.0
        x = x[np.linalg.norm(x, axis=1) > 1e-6]
        vals = dual.batch_value(f.grad(x))
        assert np.abs(vals - 1.0).max() < 1e-8


def test_grad_conjugate_examples():
    assert DE.batch_grad(np.array([[0.0, 2.0]]))[0] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert DQ.batch_grad(np.array([[1.0, 0.0]]))[0] == pytest.approx([0.5, 0.0], abs=1e-12)
    # closed form cross-checked against the iterative ascent path
    ascent = DQ._polar_minimize(np.array([[1.0, 0.0]]))
    assert Q2.value(ascent)[0] == pytest.approx(0.5, abs=1e-10)
    assert ascent[0] / Q2.value(ascent)[0] == pytest.approx([0.5, 0.0], abs=1e-10)


def test_grad_conjugate_at_origin():
    with pytest.raises(DomainError):
        DQ.batch_grad(np.array([[0.0, 0.0]]))


def test_iterative_conjugate_vanishes_at_origin():
    # F*(0) = 0 on the Newton path too; only the gradient is undefined there
    vals = DW.batch_value(np.array([[0.0, 0.0], [0.3, -1.2]]))
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(golden_conjugate(W2.value, [0.3, -1.2]), rel=1e-10)
    with pytest.raises(DomainError):
        DW.batch_grad(np.array([[0.3, -1.2], [0.0, 0.0]]))


@pytest.mark.parametrize("dual,f", [(DE, E2), (DQ, Q2), (DW, W2)])
def test_inverse_pair_on_unit_spheres(dual, f):
    u = unit_points(f, 500, seed=1)
    w = f.grad(u)
    back = dual.batch_grad(w)
    assert np.linalg.norm(back - u, axis=1).max() < 1e-8
    # and the other composition on the conjugate sphere
    wn = w / dual.batch_value(w)[:, None]
    fwd = f.grad(dual.batch_grad(wn))
    assert np.linalg.norm(fwd - wn, axis=1).max() < 1e-8


def test_fenchel_identity():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((300, 2))
    w = w[np.linalg.norm(w, axis=1) > 1e-6]
    for dual in (DE, DQ, DW):
        g = dual.batch_grad(w)
        assert np.abs(np.einsum("ni,ni->n", w, g) - dual.batch_value(w)).max() < 1e-10
        assert np.abs(dual.base.value(g) - 1.0).max() < 1e-10


def test_double_conjugation():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((500, 2)) * 1.5
    x = x[np.linalg.norm(x, axis=1) > 1e-3]
    # closed-form families: conjugate of the conjugate via matrix round trip
    ddq = DualNorm(QuadraticNorm(Q2.inverse))
    assert np.abs(ddq.batch_value(x) - Q2.value(x)).max() <= 1e-8 * Q2.value(x).min()
    dde = DualNorm(EuclideanNorm(2))
    assert np.abs(dde.batch_value(x) - E2.value(x)).max() <= 1e-8 * E2.value(x).min()
    # weighted sum: golden-section oracle on the conjugate unit circle
    fstar = lambda v: DW.batch_value(np.atleast_2d(v))
    bi = golden_conjugate(fstar, x[:25])
    assert bi == pytest.approx(W2.value(x[:25]), rel=1e-8)


def test_strict_convexity_probe():
    rng = np.random.default_rng(5)
    for dual in (DQ, DW):
        a = rng.standard_normal((200, 2))
        b = rng.standard_normal((200, 2))
        keep = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) > 1e-8
        lhs = dual.batch_value(a[keep] + b[keep])
        rhs = dual.batch_value(a[keep]) + dual.batch_value(b[keep])
        assert np.all(lhs < rhs)


def _stunt(monkeypatch, tolerance=DualNorm.tolerance):
    """Every DualNorm skips the damped Newton loop until the test ends."""
    monkeypatch.setattr(DualNorm, "max_iterations", 0)
    monkeypatch.setattr(DualNorm, "tolerance", tolerance)


def test_solver_error_carries_best_and_gap(monkeypatch):
    w3 = WeightedSum(((1.0, EuclideanNorm(3)), (1.0, QuadraticNorm(np.diag([4.0, 1.0, 1.0])))))
    _stunt(monkeypatch, tolerance=1e-14)
    with pytest.raises(SolverError) as err:
        DualNorm(w3).batch_value(np.array([[1.0, 0.2, -0.4]]))
    assert err.value.best is not None
    assert err.value.gap is not None and err.value.gap > 1e-14


def test_polygon_fallback_matches_newton_in_2d(monkeypatch):
    w = np.array([[0.9, -0.4]])
    newton = DW.batch_value(w)[0]
    _stunt(monkeypatch, tolerance=1e-14)
    assert DualNorm(W2).batch_value(w)[0] == pytest.approx(newton, rel=1e-12)


def test_polygon_fallback_meets_the_tolerance_on_every_row(monkeypatch):
    # without damped iterations every row starts from the vertex of its
    # Wulff-polygon cone; random weighted sums, anisotropy up to e^5 in any
    # rotation, and |w| over twelve orders of magnitude
    rng = np.random.default_rng(15)
    _stunt(monkeypatch)
    for _ in range(60):
        a = rng.uniform(0.005, 0.995)
        turn = rng.uniform(0.0, np.pi)
        r = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        m = r @ np.diag([np.exp(rng.uniform(-5.0, 5.0)), 1.0]) @ r.T
        f = WeightedSum(((a, E2), (1.0 - a, QuadraticNorm(0.5 * (m + m.T)))))
        stunted = DualNorm(f)
        w = rng.standard_normal((32, 2)) * np.exp(rng.uniform(-6.0, 6.0, (32, 1)))
        v = stunted._polar_minimize(w)
        gap = np.linalg.norm(f.value(v)[:, None] * f.grad(v) - w, axis=1)
        assert np.all(gap <= stunted.tolerance * np.linalg.norm(w, axis=1))
        exact = golden_conjugate(f.value, w)
        assert np.abs(f.value(v) / exact - 1.0).max() <= 1e-10


def test_polygon_fallback_refuses_a_ball_that_is_not_strictly_convex(monkeypatch):
    _stunt(monkeypatch)
    with pytest.raises(DomainError):
        DualNorm(_MaxNorm()).batch_value(np.ones((1, 2)))


def _half_step_quadratic(lam):
    """diag(lam, 1) turned by half the 2 pi / 512 step of the sampled
    directions, so the extreme direction of F* falls between two samples."""
    t = np.pi / 512
    r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return QuadraticNorm(r @ np.diag([lam, 1.0]) @ r.T)


def test_grad_bound_exact_for_rotated_quadratic():
    q = _half_step_quadratic(0.25)
    exact = np.sqrt(np.linalg.eigvalsh(q.inverse).max())
    assert DualNorm(q).grad_bound() >= exact
    assert DualNorm(q).grad_bound() == pytest.approx(exact, rel=1e-12)
    assert DE.grad_bound() == 1.0


def test_grad_bound_bounds_weighted_sum():
    # the Lipschitz constant of F* is its maximum on the unit circle
    dual = DualNorm(WeightedSum(((0.5, E2), (0.5, _half_step_quadratic(4.0)))))
    t = np.linspace(0.0, 2 * np.pi, 2**16, endpoint=False)
    lip = dual.batch_value(np.stack([np.cos(t), np.sin(t)], axis=1)).max()
    assert lip <= dual.grad_bound() <= (1.0 + 1e-6) * lip


def _rim(body, n, rng):
    """n boundary points of a Wulff body along random rays."""
    t = rng.uniform(0.0, 2 * np.pi, n)
    omega = np.stack([np.cos(t), np.sin(t)], axis=1)
    return body.center + body.ray_radii(omega)[:, None] * omega


@given(
    hst.floats(0.05, 2.0),
    hst.floats(-3.0, 3.0),
    hst.floats(0.0, np.pi),
    hst.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_bracket_decides_the_sign_of_phi(a, log_lam, turn, seed):
    r = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    f = WeightedSum(((a, E2), (1.0, QuadraticNorm(r @ np.diag([np.exp(log_lam), 1.0]) @ r.T))))
    rng = np.random.default_rng(seed)
    body = WulffBody(DualNorm(f), rng.uniform(-1.0, 1.0, 2), rng.uniform(0.2, 2.0))
    rim = _rim(body, 40, rng)
    # 32 points log-uniformly 1e-13 to 1e-2 relative off the boundary, on
    # both sides, 8 anywhere out to three radii, and the centre
    off = np.concatenate([
        1.0 + rng.choice([-1.0, 1.0], 32) * 10.0 ** rng.uniform(-13.0, -2.0, 32),
        rng.uniform(0.0, 3.0, 8),
    ])
    x = np.concatenate([body.center + off[:, None] * (rim - body.center), body.center[None]])
    assert np.array_equal(body.sign(x), np.sign(body.phi(x)))
    w = x - body.center
    lo, hi, _ = body.dual.batch_bracket(w)
    exact = golden_conjugate(f.value, w)
    assert np.all(lo <= exact) and np.all(exact <= hi)


@given(
    hst.floats(0.05, 2.0),
    hst.floats(-3.0, 3.0),
    hst.floats(0.0, np.pi),
    hst.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_fast_value_is_the_inscribed_polygon_gauge(a, log_lam, turn, seed):
    r = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    f = WeightedSum(((a, E2), (1.0, QuadraticNorm(r @ np.diag([np.exp(log_lam), 1.0]) @ r.T))))
    dual = DualNorm(f)
    rng = np.random.default_rng(seed)
    # random rows, the axes on both sides of +-0.0, and rows along the
    # polygon's vertices, the closing one included, where the cone lookup
    # meets the edges of the cones (the lookup's edges, less their sentinel)
    gamma = dual._polygon()[0][:-1]
    t = np.append(gamma[rng.integers(0, len(gamma), 16)], gamma[[0, -1]])
    w = np.concatenate([
        rng.standard_normal((40, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1)),
        [[1.0, 0.0], [1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, 1.0], [0.0, -1.0]],
        np.stack([np.cos(t), np.sin(t)], axis=1),
    ])
    exact = golden_conjugate(f.value, w)
    fast = dual.batch_value_fast(w)
    assert np.all(exact <= fast * (1.0 + 1e-12))
    assert np.all(fast <= (1.0 + 1e-6) * exact * (1.0 + 1e-12))
    # grad_bound is the Lipschitz constant of the values build_field prunes with
    x, y = rng.standard_normal((2, 200, 2)) * 10.0 ** rng.uniform(-2.0, 1.0, (2, 200, 1))
    lip = dual.grad_bound()
    step = np.abs(dual.batch_value_fast(x) - dual.batch_value_fast(y))
    assert np.all(step <= lip * np.linalg.norm(x - y, axis=1))


@given(
    hst.floats(0.05, 2.0),
    hst.floats(-3.0, 3.0),
    hst.floats(0.0, np.pi),
    hst.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_cone_lookup_is_the_binary_search(a, log_lam, turn, seed):
    r = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    f = WeightedSum(((a, E2), (1.0, QuadraticNorm(r @ np.diag([np.exp(log_lam), 1.0]) @ r.T))))
    dual = DualNorm(f)
    edges, _p, q, first, steps = dual._polygon()
    g = f.grad(_polygon_directions(f))
    gamma = np.unwrap(np.arctan2(g[:, 1], g[:, 0]))
    assert np.array_equal(edges, np.append(gamma, np.inf))
    # every bucket's edges follow its first cone, at most steps of them
    k = np.arange(1, len(gamma))
    b = _bucket(edges[1:-1], edges).clip(0, len(first) - 1)
    assert np.all((first[b] < k) & (k <= first[b] + steps))
    # every vertex angle and its neighbours, and past both ends
    psi = np.concatenate([
        gamma,
        np.nextafter(gamma, -np.inf),
        np.nextafter(gamma, np.inf),
        [gamma[0] - 1.0, gamma[-1] + 1.0],
    ])
    assert np.array_equal(dual._cone(psi), search_cone(psi, gamma))
    # rows: random, the axes on both sides of +-0.0, along the vertices, and
    # a few ulps below gamma_0, whose wrapped angle rounds to about gamma_N
    rng = np.random.default_rng(seed)
    t = np.concatenate([
        gamma,
        gamma[0] - np.arange(1, 9) * np.spacing(abs(gamma[0])),
    ])
    w = np.concatenate([
        rng.standard_normal((2000, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1)),
        [[1.0, 0.0], [1.0, -0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, 1.0], [0.0, -1.0]],
        np.stack([np.cos(t), np.sin(t)], axis=1),
        g[[0, -1]],
    ])
    k, hi = dual._gauge(w)
    k_search, hi_search = search_gauge(w, gamma, q)
    assert np.array_equal(k, k_search)
    assert np.array_equal(hi, hi_search)
    # a NaN row takes some cone, and its gauge is NaN
    with np.errstate(invalid="ignore"):
        assert np.isnan(dual._gauge(np.array([[np.nan, 1.0], [1.0, np.nan]]))[1]).all()


def test_bracket_solves_only_undecided_rows(monkeypatch):
    body = WulffBody(DW, np.array([0.3, -0.2]), 1.2)
    rim = _rim(body, 12, np.random.default_rng(3))
    rel = rim - body.center
    # within 1e-12 of the solved boundary, well inside the 1e-9 L |w| margin
    near = body.center + rel * (1.0 + 1e-12 * np.tile([-1.0, 1.0], 6))[:, None]
    far = body.center + np.concatenate([0.5 * rel, 2.0 * rel])
    x = np.concatenate([far[:6], near, far[6:]])
    expected = np.sign(body.phi(x))
    body.dual.grad_bound()
    rows = []
    solve = DualNorm.batch_value

    def counted(self, W):
        rows.append(len(W))
        return solve(self, W)

    monkeypatch.setattr(DualNorm, "batch_value", counted)
    assert np.array_equal(body.sign(x), expected)
    assert rows == [len(near)]


def test_non_finite_rows_stay_typed_errors():
    # a NaN row gets NaN from the polygon, so sign leaves it undecided and
    # the solve refuses it with InputError, not an index error
    body = WulffBody(DualNorm(W2), np.zeros(2), 1.0)
    w = np.array([[np.nan, 0.1], [0.3, -0.2]])
    with np.errstate(invalid="ignore"):
        assert np.isnan(body.dual.batch_value_fast(w)[0])
        assert np.isnan(body.dual.batch_bracket(w)[0][0])
        with pytest.raises(InputError):
            body.sign(w)


def _rotated_weighted_sum_3d(a, log_lams, rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    m = q @ np.diag([np.exp(log_lams[0]), np.exp(log_lams[1]), 1.0]) @ q.T
    return WeightedSum(((a, EuclideanNorm(3)), (1.0, QuadraticNorm(0.5 * (m + m.T)))))


def _rim_3d(body, n, rng):
    """n boundary points of a 3D Wulff body along random rays."""
    omega = rng.standard_normal((n, 3))
    omega /= np.linalg.norm(omega, axis=1)[:, None]
    return body.center + body.ray_radii(omega)[:, None] * omega


@pytest.mark.parametrize("seed", [3, 5, 9])
def test_strongly_anisotropic_3d_solve_converges(seed):
    # rotated M with eigenvalues e^-3 and e^3 stalls the damped Newton line
    # search at relative gaps of 2e-8 to 8e-8; the undamped polish must bring
    # every row below the unrelaxed 1e-10 tolerance
    rng = np.random.default_rng(seed)
    f = _rotated_weighted_sum_3d(0.05, (-3.0, 3.0), rng)
    dual = DualNorm(f)
    body = WulffBody(dual, rng.uniform(-1.0, 1.0, 3), rng.uniform(0.2, 2.0))
    rim = _rim_3d(body, 40, rng)
    w = rim - body.center
    v = dual._polar_minimize(w)
    gap = np.linalg.norm(f.value(v)[:, None] * f.grad(v) - w, axis=1)
    assert np.all(gap <= dual.tolerance * np.linalg.norm(w, axis=1))


@given(
    hst.floats(0.05, 2.0),
    hst.tuples(hst.floats(-3.0, 3.0), hst.floats(-3.0, 3.0)),
    hst.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_bracket_decides_the_sign_of_phi_in_3d(a, log_lams, seed):
    rng = np.random.default_rng(seed)
    f = _rotated_weighted_sum_3d(a, log_lams, rng)
    body = WulffBody(DualNorm(f), rng.uniform(-1.0, 1.0, 3), rng.uniform(0.2, 2.0))
    rim = _rim_3d(body, 40, rng)
    # 32 points log-uniformly 1e-13 to 1e-2 relative off the boundary, on
    # both sides, 8 anywhere out to three radii, and the centre
    off = np.concatenate([
        1.0 + rng.choice([-1.0, 1.0], 32) * 10.0 ** rng.uniform(-13.0, -2.0, 32),
        rng.uniform(0.0, 3.0, 8),
    ])
    x = np.concatenate([body.center + off[:, None] * (rim - body.center), body.center[None]])
    assert np.array_equal(body.sign(x), np.sign(body.phi(x)))
    # the bracket |w|^2 / F(w) <= F*(w) <= L |w| holds the solved value, up
    # to the solve's own error L tol |w|
    w = x[:-1] - body.center
    norm = np.linalg.norm(w, axis=1)
    lip = body.dual.grad_bound()
    solved = body.dual.batch_value(w)
    slack = lip * body.dual.tolerance * norm
    assert np.all(norm**2 / f.value(w) <= solved + slack)
    assert np.all(solved <= lip * norm + slack)


@given(
    hst.floats(0.05, 2.0),
    hst.tuples(hst.floats(-3.0, 3.0), hst.floats(-3.0, 3.0)),
    hst.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_bracket_holds_the_solved_value_in_3d(a, log_lams, seed):
    rng = np.random.default_rng(seed)
    rotated = _rotated_weighted_sum_3d(a, log_lams, rng)
    m = np.diag(np.exp([log_lams[0], log_lams[1], 0.0]))
    unrotated = WeightedSum(((a, EuclideanNorm(3)), (1.0, QuadraticNorm(m))))
    # rows with |w| from 1e-6 to 1e6, and on the axes of the unrotated M,
    # where w / F(w) is the maximizer and lo is F* up to its widening
    w = rng.standard_normal((40, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, (40, 1))
    axes = np.concatenate([np.eye(3), -np.eye(3)]) * 10.0 ** rng.uniform(-6.0, 6.0, (6, 1))
    for f, rows in ((rotated, w), (unrotated, np.concatenate([w, axes]))):
        dual = DualNorm(f)
        lo, hi, _ = dual.batch_bracket(rows)
        solved = dual.batch_value(rows)
        assert np.all(lo <= solved) and np.all(solved <= hi)
    widening = 1e-12 * dual.grad_bound() * np.linalg.norm(axes, axis=1)
    assert np.all(solved[-6:] - lo[-6:] <= 2.0 * widening)


def test_far_rows_are_never_solved_in_3d(monkeypatch):
    f = _rotated_weighted_sum_3d(0.4, (1.0, -0.5), np.random.default_rng(5))
    body = WulffBody(DualNorm(f), np.array([0.3, -0.2, 0.1]), 1.2)
    rel = _rim_3d(body, 12, np.random.default_rng(6)) - body.center
    # within 1e-12 of the solved boundary, well inside the 1e-9 L |w| margin
    near = body.center + rel * (1.0 + 1e-12 * np.tile([-1.0, 1.0], 6))[:, None]
    far = body.center + np.concatenate([0.3 * rel, 4.0 * rel, np.zeros((1, 3))])
    x = np.concatenate([far[:12], near, far[12:]])
    expected = np.sign(body.phi(x))
    body.dual.grad_bound()
    rows = []
    solve = DualNorm.batch_value

    def counted(self, W):
        rows.append(len(W))
        return solve(self, W)

    monkeypatch.setattr(DualNorm, "batch_value", counted)
    assert np.array_equal(body.sign(x), expected)
    assert rows == [len(near)]


def test_non_finite_rows_stay_typed_errors_in_3d():
    f = WeightedSum(((0.5, EuclideanNorm(3)), (1.0, QuadraticNorm(np.diag([4.0, 1.0, 2.0])))))
    body = WulffBody(DualNorm(f), np.zeros(3), 1.0)
    with pytest.raises(InputError):
        body.sign(np.array([[np.nan, 0.1, 0.0], [0.3, -0.2, 5.0]]))
    # the solve refuses the row before it divides by the row norms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            body.dual.batch_value(np.array([[np.inf, 1.0, 0.0]]))


def test_one_solve_gives_value_and_gradient_bit_for_bit():
    rng = np.random.default_rng(8)
    f3 = WeightedSum(((0.5, EuclideanNorm(3)), (1.0, QuadraticNorm(np.diag([4.0, 1.0, 2.0])))))
    for dual in (DE, DQ, DW, DualNorm(f3)):
        w = rng.standard_normal((50, dual.dim))
        value, grad = dual.batch_value_grad(w)
        assert np.array_equal(value, dual.batch_value(w))
        assert np.array_equal(grad, dual.batch_grad(w))
        with pytest.raises(DomainError):
            dual.batch_value_grad(np.zeros((1, dual.dim)))


def test_bracket_gives_the_row_norm_it_is_scaled_by():
    # WulffBody.sign takes |w| from the bracket: the bits of _row_norm
    rng = np.random.default_rng(17)
    for dual in (DW, DualNorm(_rotated_weighted_sum_3d(0.4, (-1.0, 1.0), rng))):
        w = rng.standard_normal((200, dual.dim)) * 10.0 ** rng.uniform(-3, 3, (200, 1))
        w[0], w[1] = -0.0, 0.0
        assert np.array_equal(dual.batch_bracket(w)[2], _row_norm(w))


def test_bracket_refuses_four_dimensions():
    with pytest.raises(InputError, match="d = 2 or 3"):
        DualNorm(EuclideanNorm(4)).batch_bracket(np.ones((2, 4)))


class _MaxNorm(Integrand):
    """F(x) = max |x_i|, whose unit ball is a square: not strictly convex."""

    dim = 2

    def value(self, x):
        return np.abs(x).max(axis=-1)

    def grad(self, x):
        rows = np.arange(len(x))
        i = np.abs(x).argmax(axis=1)
        g = np.zeros_like(x)
        g[rows, i] = np.sign(x[rows, i])
        return g


def test_bracket_refuses_a_ball_that_is_not_strictly_convex():
    # the gradients repeat along each side of the square, so their angles
    # do not increase and the cones of the bracket do not exist
    with pytest.raises(DomainError):
        DualNorm(_MaxNorm()).batch_bracket(np.ones((1, 2)))


def _wulff_sample(dual, center, r, resolution):
    """(points, normals): the Cahn-Hoffman map of ``WulffBody(dual, center,
    r)`` on the directions of ``sphere_quadrature(d, resolution)``."""
    nu = sphere_quadrature(dual.dim, resolution)[0]
    return WulffBody(dual, center, r).cahn_hoffman(nu), nu


def test_wulff_sample_euclidean():
    points, normals = _wulff_sample(DE, [0.0, 0.0], 1.0, 64)
    assert np.abs(np.linalg.norm(points, axis=1) - 1.0).max() < 1e-14
    assert np.abs(points - normals).max() < 1e-14


def test_wulff_sample_quadratic_ellipse():
    # closed-form Wulff boundary: x1^2/4 + x2^2 = r^2
    points, normals = _wulff_sample(DQ, [0.0, 0.0], 1.0, 256)
    lvl = points[:, 0] ** 2 / 4 + points[:, 1] ** 2
    assert np.abs(lvl - 1.0).max() < 1e-12
    assert np.abs(DQ.batch_value(points) - 1.0).max() < 1e-10
    back = (points - 0.0) / 1.0
    assert np.linalg.norm(Q2.grad(normals) - back, axis=1).max() < 1e-8


def test_wulff_sample_invariants_offset():
    center, r = np.array([1.0, -2.0]), 1.5
    points, normals = _wulff_sample(DW, center, r, 128)
    assert np.abs(DW.batch_value(points - center) - r).max() < 1e-10 * r
    assert (
        np.linalg.norm(W2.grad(normals) - (points - center) / r, axis=1).max()
        < 1e-8
    )


def test_wulff_sample_3d_latlong_grid():
    q3 = QuadraticNorm(np.diag([4.0, 1.0, 1.0]))
    points, normals = _wulff_sample(DualNorm(q3), [0.0, 0.0, 0.0], 1.0, (16, 32))
    assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() < 1e-12
    assert len(points) == len(normals) == 512


def test_wulff_sample_validation():
    with pytest.raises(InputError):
        _wulff_sample(DQ, [0.0, 0.0], -1.0, 64)
    with pytest.raises(InputError):
        _wulff_sample(DQ, [0.0, 0.0], 1.0, 9)
    with pytest.raises(InputError):
        _wulff_sample(DQ, [0.0, 0.0, 0.0], 1.0, 64)


W3 = WeightedSum(((0.5, EuclideanNorm(3)), (1.0, QuadraticNorm(np.diag([4.0, 1.0, 2.0])))))
_ENTRY_POINTS = ["batch_value", "batch_grad", "batch_value_grad", "batch_value_fast", "batch_bracket"]
_BODIES = (
    Ellipsoid(np.diag([4.0, 1.0, 2.0]), np.zeros(3)),
    Superellipse((1.0, 0.5), 4.0, np.zeros(2)),
    WulffBody(DQ, np.zeros(2), 1.0),
    WulffBody(DualNorm(W3), np.zeros(3), 1.0),
)


@pytest.mark.parametrize(
    "target,entry",
    [(f, entry) for f in (E2, Q2, W2, W3) for entry in _ENTRY_POINTS]
    + [(f, entry) for f in (E2, Q2, W2, W3) for entry in ("value", "grad", "hess")]
    + [
        (body, entry)
        for body in _BODIES
        for entry in ("phi", "grad_phi", "hess_phi", "sign", "cahn_hoffman")
        # a Wulff body has no hess_phi, and only a Wulff body has cahn_hoffman
        if entry != ("hess_phi" if isinstance(body, WulffBody) else "cahn_hoffman")
    ],
    ids=lambda p: p if isinstance(p, str) else f"{type(p).__name__}{p.dim}",
)
def test_entry_points_refuse_rows_of_the_wrong_dimension(target, entry):
    # a typed refusal that names both shapes, never a numpy error or a
    # value read from the first columns; the batch_* entry points are those
    # of DualNorm(target)
    evaluator = DualNorm(target) if entry in _ENTRY_POINTS else target
    dim = target.dim
    for rows in (np.ones((2, dim + 1)), np.ones((2, dim - 1)), np.ones(dim), np.ones((1, 2, dim))):
        expected = re.escape(f"(N, {dim})") + ".*" + re.escape(str(rows.shape))
        with pytest.raises(InputError, match=expected):
            getattr(evaluator, entry)(rows)


def _rotated_anisotropic_matrix(dim, rng):
    """A random rotation of diag(e^3, e^-3) in 2D, diag(e^3, e^-3, e^t) in 3D."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    lams = np.exp(np.append([3.0, -3.0], rng.uniform(-3.0, 3.0, dim - 2)))
    m = q @ np.diag(lams) @ q.T
    return 0.5 * (m + m.T)


@given(hst.sampled_from([2, 3]), hst.floats(0.05, 0.95), hst.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_newton_solve_against_independent_oracles(dim, a, seed):
    rng = np.random.default_rng(seed)
    m = _rotated_anisotropic_matrix(dim, rng)
    f = WeightedSum(((a, EuclideanNorm(dim)), (1.0 - a, QuadraticNorm(m))))
    w = rng.standard_normal((24, dim)) * 10.0 ** rng.uniform(-6.0, 6.0, (24, 1))
    dual = DualNorm(f)
    v = dual._polar_minimize(w)
    gap = np.linalg.norm(f.value(v)[:, None] * f.grad(v) - w, axis=1)
    assert np.all(gap <= dual.tolerance * np.linalg.norm(w, axis=1))
    if dim == 2:
        assert np.abs(f.value(v) / golden_conjugate(f.value, w) - 1.0).max() <= 1e-10
    # one term: F* is sqrt(w' M^-1 w)
    one = WeightedSum(((1.0, QuadraticNorm(m)),))
    closed = np.sqrt(np.einsum("ni,ni->n", w, np.linalg.solve(m, w.T).T))
    assert np.abs(one.value(DualNorm(one)._polar_minimize(w)) / closed - 1.0).max() <= 1e-12


def _kernel_families(dim):
    m = _rotated_anisotropic_matrix(dim, np.random.default_rng(dim))
    e, q = EuclideanNorm(dim), QuadraticNorm(m)
    return [e, q, WeightedSum(((0.3, e), (0.7, q)))]


@pytest.mark.parametrize(
    "f", _kernel_families(2) + _kernel_families(3), ids=lambda f: f"{type(f).__name__}{f.dim}"
)
def test_newton_kernel_derivatives(f):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, f.dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    fx, g, h = f._value_grad_hess(np.ascontiguousarray(x.T))
    value, grad = f.value(x), f.grad(x)
    assert np.all(np.abs(fx - value) <= 1e-15 * value)
    assert np.all(np.linalg.norm(g.T - grad, axis=1) <= 1e-15 * np.linalg.norm(grad, axis=1))
    # value, grad and hess alone give the same triple
    for mine, base in zip((fx, g, h), value_grad_hess(f, x.T)):
        assert np.allclose(mine, base, rtol=0.0, atol=1e-14)
    # grad^2(F^2/2) = F hess F + grad F grad F', and the Jacobian of F grad F
    i, j = np.triu_indices(f.dim)
    a = _squared_hessian(fx, g, h.copy())
    dense = value[:, None, None] * f.hess(x) + grad[:, :, None] * grad[:, None, :]
    assert np.abs(a.T - dense[:, i, j]).max() <= 1e-12 * np.abs(dense).max()
    for row, xn in zip(a.T, x):
        fd = fd_jacobian(lambda y: f.value(y[None])[0] * f.grad(y[None])[0], xn)
        assert np.abs(row - fd[i, j]).max() <= 1e-6
    # the Newton step solves grad^2(F^2/2) s = -res
    res = rng.standard_normal(g.shape)
    step = _newton_step(fx, g, h.copy(), res)
    back = np.einsum("nij,jn->in", dense, step)
    assert np.abs(back + res).max() <= 1e-12 * np.abs(res).max() * np.linalg.cond(dense).max()
