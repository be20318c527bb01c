import numpy as np
import pytest

from wulffkit import (
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    InputError,
    QuadraticNorm,
    Superellipse,
    WeightedSum,
    WulffBody,
    perimeter_F,
    sample_surface,
    volume,
)

from wulffkit.spheregrid import sphere_quadrature

from oracles import bisect_ray_radii, ellipse_arc_length

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
DQ = DualNorm(Q2)

UNIT_DISK = Ellipsoid(np.eye(2), np.zeros(2))
ELLIPSE = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))


def test_circle_length():
    q = sample_surface(UNIT_DISK, 4096)
    assert abs(q.weights.sum() - 2 * np.pi) < 1e-6


def test_ellipse_perimeter_matches_arc_length_oracle():
    q = sample_surface(ELLIPSE, 4096)
    oracle = ellipse_arc_length(2.0, 1.0)
    assert oracle == pytest.approx(9.688448220547675, abs=1e-9)
    assert abs(q.weights.sum() - oracle) < 1e-9


def test_wulff_nodes_on_conjugate_sphere():
    body = WulffBody(DQ, np.zeros(2), 1.0)
    q = sample_surface(body, 256)
    assert np.abs(DQ.batch_value(q.points) - 1.0).max() < 1e-10


def test_normals_point_outward():
    for body in (UNIT_DISK, ELLIPSE, Superellipse((1.5, 1.0), 4.0, np.zeros(2))):
        q = sample_surface(body, 512)
        eps = 1e-6 * 2 * q.rho.max()
        assert np.all(body.phi(q.points + eps * q.normals) > 0)
        assert np.all(np.einsum("ni,ni->n", q.normals, q.omega) > 0)


def test_volume_examples():
    assert volume(sample_surface(UNIT_DISK, 4096)) == pytest.approx(np.pi, abs=1e-8)
    assert volume(sample_surface(ELLIPSE, 4096)) == pytest.approx(2 * np.pi, abs=1e-8)
    for r in (0.5, 1.0, 2.0):
        body = WulffBody(DQ, np.zeros(2), r)
        assert volume(sample_surface(body, 4096)) == pytest.approx(2 * np.pi * r**2, rel=1e-12)


def test_volume_formulas_agree_for_offset_bodies():
    from wulffkit.hypersurface import _volume_pair

    for body in (
        Ellipsoid(np.diag([0.25, 1.0]), np.array([0.7, -0.4])),
        WulffBody(DQ, np.array([1.0, 2.0]), 1.5),
        Ellipsoid(np.eye(3) / 4.0, np.array([0.3, 0.1, -0.2])),
    ):
        res = 4096 if body.dim == 2 else (48, 96)
        q = sample_surface(body, res)
        v_rad, v_div = _volume_pair(q)
        assert abs(v_div - v_rad) <= 1e-8 * abs(v_rad)


def test_perimeter_examples():
    q = sample_surface(UNIT_DISK, 4096)
    assert perimeter_F(q, E2) == pytest.approx(2 * np.pi, rel=1e-10)
    for r in (0.5, 1.0, 3.0):
        body = WulffBody(DQ, np.zeros(2), r)
        qw = sample_surface(body, 4096)
        assert perimeter_F(qw, Q2) == pytest.approx(4 * np.pi * r, rel=1e-10)


def test_perimeter_scaling():
    # P_F(lam * body) = lam^n P_F(body)
    lam = 1.7
    small = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    big = Ellipsoid(np.diag([0.25, 1.0]) / lam**2, np.zeros(2))
    p1 = perimeter_F(sample_surface(small, 2048), Q2)
    p2 = perimeter_F(sample_surface(big, 2048), Q2)
    assert p2 == pytest.approx(lam * p1, rel=1e-12)


def test_wulff_volume_identity():
    # vol(B_F*(0, r)) = r * P_F / (n + 1), from the support function of the ball
    for f, res in ((Q2, 4096), (QuadraticNorm(np.diag([4.0, 1.0, 1.0])), (64, 128))):
        dual = DualNorm(f)
        body = WulffBody(dual, np.zeros(f.dim), 1.3)
        q = sample_surface(body, res)
        vol = volume(q)
        assert vol == pytest.approx(1.3 * perimeter_F(q, f) / f.dim, rel=1e-6)


def test_weighted_sum_wulff_sampling():
    w = WeightedSum(((0.5, E2), (1.0, Q2)))
    dual = DualNorm(w)
    body = WulffBody(dual, np.array([0.2, -0.1]), 0.8)
    q = sample_surface(body, 256)
    assert np.abs(dual.batch_value(q.points - body.center) - 0.8).max() < 1e-9


def test_weighted_sum_wulff_phi_at_center():
    body = WulffBody(DualNorm(WeightedSum(((0.5, E2), (1.0, Q2)))), np.array([0.2, -0.1]), 0.8)
    assert body.phi(body.center[None])[0] == -0.8


def test_quadrature_convergence_rate():
    # Gauss-Legendre nodes in cos theta leave the volume error at rounding
    # already at (32, 64), where the midpoint rule in theta left 6.4e-4
    body = Ellipsoid(np.diag([1.0 / 4.0, 1.0, 1.0 / 2.25]), np.zeros(3))
    exact = 4.0 / 3.0 * np.pi * 2.0 * 1.0 * 1.5
    errs = [abs(volume(sample_surface(body, r)) - exact) for r in ((32, 64), (64, 128))]
    assert max(errs) <= 1e-12


def test_resolution_validation():
    with pytest.raises(InputError):
        sample_surface(UNIT_DISK, 32)
    with pytest.raises(InputError):
        sample_surface(Ellipsoid(np.eye(3), np.zeros(3)), (16, 32))
    with pytest.raises(InputError):
        sample_surface(UNIT_DISK, 511)  # odd: grid loses antipodal symmetry


def test_body_validation():
    with pytest.raises(InputError):
        Ellipsoid(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(InputError):
        Superellipse((1.0, 1.0), 2.0, np.zeros(2))
    with pytest.raises(InputError):
        WulffBody(DQ, np.zeros(2), 0.0)
    with pytest.raises(InputError):
        Ellipsoid(np.eye(2), np.zeros(3))


def test_bodies_refuse_non_finite_points():
    # every body reads points through the integrands' validator, so a NaN
    # point is refused, not given a NaN sign
    bodies = (
        UNIT_DISK,
        Superellipse((1.0, 2.0), 4.0, np.zeros(2)),
        WulffBody(DualNorm(WeightedSum(((0.5, E2), (1.0, Q2)))), np.zeros(2), 1.0),
    )
    for body in bodies:
        for method in (body.phi, body.grad_phi, body.sign):
            with pytest.raises(InputError):
                method(np.array([[np.nan, 0.0]]))
    with pytest.raises(InputError):
        UNIT_DISK.sign([np.inf, 0.0])
    with pytest.raises(InputError):
        ELLIPSE.hess_phi([[0.5, np.nan]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: Ellipsoid(np.diag([np.inf, 1.0]), np.zeros(2)),
        lambda: Ellipsoid(np.eye(2), [np.nan, 0.0]),
        lambda: WulffBody(DQ, np.zeros(2), np.nan),
        lambda: WulffBody(DQ, np.zeros(2), np.inf),
        lambda: WulffBody(DQ, [0.0, np.inf], 1.0),
        lambda: Superellipse((1.0, np.nan), 4.0, np.zeros(2)),
        lambda: Superellipse((1.0, 1.0), np.inf, np.zeros(2)),
        lambda: Superellipse((1.0, 1.0), 4.0, [np.nan, 0.0]),
    ],
)
def test_bodies_refuse_non_finite_parameters(make):
    with pytest.raises(InputError, match="finite"):
        make()


@pytest.mark.parametrize("axes", [5.0, (1.0, 2.0, 3.0), [[1.0, 2.0]]])
def test_superellipse_refuses_semi_axes_that_are_not_two_numbers(axes):
    with pytest.raises(InputError, match="semi_axes"):
        Superellipse(axes, 4.0, np.zeros(2))


def _ray_boundary_by_two_calls(body, omega):
    rho = body.ray_radii(omega)
    return rho, body.grad_phi(body.center + rho[:, None] * omega)


def test_ray_boundary_solves_once_per_weighted_sum_node():
    # ray_radii solves F*(w) and grad_phi solves again at c + rho w; one solve
    # gives both, to the solver's rounding
    rng = np.random.default_rng(11)
    for dim, resolution in ((2, 256), (3, (32, 64))):
        m = np.diag([4.0, 1.0, 2.0][:dim])
        body = WulffBody(
            DualNorm(WeightedSum(((0.5, EuclideanNorm(dim)), (1.0, QuadraticNorm(m))))),
            rng.uniform(-1.0, 1.0, dim),
            1.3,
        )
        omega = sphere_quadrature(dim, resolution)[0]
        rho, g = body.ray_boundary(omega)
        rho2, g2 = _ray_boundary_by_two_calls(body, omega)
        assert np.abs(rho / rho2 - 1.0).max() <= 1e-12
        assert (np.linalg.norm(g - g2, axis=1) / np.linalg.norm(g2, axis=1)).max() <= 1e-12


def test_ray_boundary_of_closed_forms_is_bit_for_bit():
    omega2 = sphere_quadrature(2, 256)[0]
    omega3 = sphere_quadrature(3, (32, 64))[0]
    bodies = [
        (WulffBody(DQ, np.array([0.3, -0.4]), 1.5), omega2),
        (WulffBody(DualNorm(E3), np.array([0.1, 0.2, -0.3]), 0.7), omega3),
        (ELLIPSE, omega2),
        (Ellipsoid(np.diag([0.25, 1.0, 0.5]), np.array([1.0, 0.0, 0.5])), omega3),
    ]
    for body, omega in bodies:
        rho, g = body.ray_boundary(omega)
        rho2, g2 = _ray_boundary_by_two_calls(body, omega)
        assert np.array_equal(rho, rho2) and np.array_equal(g, g2)


def test_d3_resolution_must_be_one_count_or_a_pair():
    ball = Ellipsoid(np.eye(3), np.zeros(3))
    for bad in ((32,), (32, 64, 64), [64], "ab", (32.5, 64), 64.5, (32, True)):
        with pytest.raises(InputError):
            sample_surface(ball, bad)
    with pytest.raises(InputError):
        sphere_quadrature(3, (32,))


def _ray_radii_match_bisection(body, resolution):
    # the closed form against a bisection on phi along each ray
    omega = sphere_quadrature(body.dim, resolution)[0]
    rho = body.ray_radii(omega)
    oracle = bisect_ray_radii(body.phi, body.center, omega, start=1.0)
    assert np.abs(rho / oracle - 1.0).max() <= 1e-14


def test_ellipsoid_ray_radii_match_bisection():
    # t = 1 / sqrt(w'Qw)
    rng = np.random.default_rng(3)
    for dim, resolution in ((2, 2048), (3, (96, 192))):
        rot = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        q = rot @ np.diag(rng.uniform(0.2, 4.0, dim)) @ rot.T
        _ray_radii_match_bisection(
            Ellipsoid(0.5 * (q + q.T), rng.uniform(-2.0, 2.0, dim)), resolution
        )


def test_superellipse_ray_radii_match_bisection():
    # t = (sum |w_i/a_i|^p)^(-1/p)
    rng = np.random.default_rng(5)
    for p in (2.05, 3.0, 4.5, 7.0, 12.0):
        body = Superellipse(
            tuple(rng.uniform(0.2, 4.0, 2)), p, rng.uniform(-2.0, 2.0, 2)
        )
        _ray_radii_match_bisection(body, 4096)
    # every |w_i/a_i|^p underflows here unless the largest is factored out
    _ray_radii_match_bisection(Superellipse((50.0, 80.0), 400.0, np.zeros(2)), 4096)


def test_wulff_ray_radii_match_bisection():
    # t = r / F*(w) for the closed-form F* of the Euclidean and quadratic norms
    rng = np.random.default_rng(7)
    for dim, resolution in ((2, 2048), (3, (96, 192))):
        rot = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        m = rot @ np.diag(rng.uniform(0.2, 4.0, dim)) @ rot.T
        for f in (EuclideanNorm(dim), QuadraticNorm(0.5 * (m + m.T))):
            body = WulffBody(DualNorm(f), rng.uniform(-2.0, 2.0, dim), rng.uniform(0.3, 3.0))
            _ray_radii_match_bisection(body, resolution)
