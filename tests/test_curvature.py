from dataclasses import replace

import numpy as np
import pytest

from wulffkit import (
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    InputError,
    NonEllipticError,
    QuadraticNorm,
    WeightedSum,
    WulffBody,
    curvature_table,
    sample_surface,
    umbilicity_classify,
)

from wulffkit.curvature import _shape_operators_bulk, _wulff_shape_operators
from wulffkit.integrand import tangential_hessian

from oracles import (
    congruence,
    eig_product,
    ellipse_curvature,
    sandwich_eigenvalues,
    stress_tensor,
)
import sampling

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
DQ = DualNorm(Q2)
ELLIPSE = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))


def node_nearest(quad, target):
    return int(np.argmin(np.linalg.norm(quad.points - target, axis=1)))


def test_shape_operator_circle():
    circle = Ellipsoid(np.eye(2) / 4.0, np.zeros(2))  # radius 2
    q = sample_surface(circle, 256)
    b = _shape_operators_bulk(circle, q, q.frames)[7]
    assert b == pytest.approx(np.array([[0.5]]), abs=1e-12)


def test_shape_operator_ellipse_vertices():
    q = sample_surface(ELLIPSE, 8192)
    b = _shape_operators_bulk(ELLIPSE, q, q.frames)
    i = node_nearest(q, [2.0, 0.0])
    t = np.arctan2(q.points[i, 1], q.points[i, 0] / 2.0)
    assert b[i, 0, 0] == pytest.approx(ellipse_curvature(2.0, 1.0, t), rel=1e-6)
    i = node_nearest(q, [0.0, 1.0])
    assert b[i, 0, 0] == pytest.approx(0.25, rel=1e-6)


def test_shape_operator_sphere():
    ball = Ellipsoid(np.eye(3) / 4.0, np.zeros(3))  # radius 2
    q = sample_surface(ball, (32, 64))
    b = _shape_operators_bulk(ball, q, q.frames)[11]
    assert b == pytest.approx(0.5 * np.eye(2), abs=1e-12)


def test_symmetric_against_general_eigensolver():
    # small-instance oracle: random SPD A and symmetric B, eigenvalues of the
    # symmetrized product C.B.C must match the nonsymmetric solver on A.B
    from wulffkit.curvature import _kappa_from_ab, _sqrt_spd

    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.standard_normal((2, 2))
        a = m @ m.T + 0.05 * np.eye(2)
        b = rng.standard_normal((2, 2))
        b = 0.5 * (b + b.T)
        ours = _kappa_from_ab(a[None], b[None])[0]
        assert ours == pytest.approx(eig_product(a, b), abs=1e-10)
        c = _sqrt_spd(a[None])[0]
        assert c @ c == pytest.approx(a, abs=1e-12)


def test_wulff_constant_curvature_d2():
    for r in (0.5, 1.0, 3.0):
        body = WulffBody(DQ, np.zeros(2), r)
        q = sample_surface(body, 2048)
        table = curvature_table(body, Q2, q)
        assert np.abs(table.kappa - 1.0 / r).max() < 1e-4
        assert np.abs(table.mean - 1.0 / r).max() < 1e-4


def test_wulff_constant_curvature_d3():
    for f in (E3, QuadraticNorm(np.diag([4.0, 1.0, 1.0]))):
        body = WulffBody(DualNorm(f), np.zeros(3), 2.0)
        q = sample_surface(body, (64, 128))
        table = curvature_table(body, f, q)
        assert np.abs(table.kappa - 0.5).max() < 1e-3
        assert np.abs(table.mean - 2.0 * 0.5).max() < 1e-3


def test_principal_curvature_node_api():
    body = WulffBody(DQ, np.zeros(2), 2.0)
    q = sample_surface(body, 256)
    table = curvature_table(body, Q2, q)
    assert table.kappa[3] == pytest.approx([0.5], abs=1e-10)
    assert table.mean[3] == pytest.approx(0.5, abs=1e-10)


def test_euclidean_curvatures_of_ellipse():
    q = sample_surface(ELLIPSE, 4096)
    table = curvature_table(ELLIPSE, E2, q)
    assert table.kappa.min() == pytest.approx(0.25, rel=1e-4)
    assert table.kappa.max() == pytest.approx(2.0, rel=1e-4)
    # H equals the Euclidean curvature when A is the tangent identity
    i = node_nearest(q, [2.0, 0.0])
    b = _shape_operators_bulk(ELLIPSE, q, q.frames)
    assert table.mean[i] == pytest.approx(b[i, 0, 0], rel=1e-12)


def test_trace_equals_eigenvalue_sum():
    for body, f, res in (
        (ELLIPSE, Q2, 2048),
        (Ellipsoid(np.diag([0.25, 1.0, 1.0]), np.zeros(3)), E3, (32, 64)),
    ):
        q = sample_surface(body, res)
        table = curvature_table(body, f, q)
        err = np.abs(table.kappa.sum(axis=1) - table.mean)
        assert np.all(err <= 1e-8 * (1.0 + np.abs(table.mean)))


def test_eta_field_on_conjugate_sphere():
    q = sample_surface(ELLIPSE, 1024)
    eta = Q2.grad(q.normals)
    assert np.abs(DQ.batch_value(eta) - 1.0).max() < 1e-8


def test_umbilicity_recovers_offset_wulff():
    body = WulffBody(DQ, np.array([1.0, 2.0]), 1.5)
    rep = umbilicity_classify(sampling.table(body, Q2, 2048))
    assert rep.verdict == "wulff"
    assert rep.center == pytest.approx([1.0, 2.0], abs=1e-4)
    assert rep.radius == pytest.approx(1.5, abs=1e-4)


def test_umbilicity_is_free_of_the_ball_scale():
    # the ball of scenes/wulff_d2.json scaled by 1e-20: the fit's dispersion
    # is dimensionless, and FIT_TOL times the radius read it as unresolved
    rep = umbilicity_classify(sampling.table(WulffBody(DQ, np.zeros(2), 1e-20), Q2, 4096))
    assert rep.verdict == "wulff"
    assert rep.radius == pytest.approx(1e-20, rel=1e-10)
    assert rep.dispersion <= 1e-12


def test_umbilicity_euclidean_sphere():
    ball = Ellipsoid(np.eye(2) / 4.0, np.zeros(2))
    rep = umbilicity_classify(sampling.table(ball, E2, 2048))
    assert rep.verdict == "wulff"
    assert rep.center == pytest.approx([0.0, 0.0], abs=1e-10)
    assert rep.radius == pytest.approx(2.0, abs=1e-10)


def test_umbilicity_rejects_ellipse():
    rep = umbilicity_classify(sampling.table(ELLIPSE, E2, 2048))
    assert rep.verdict == "not-umbilical"
    assert rep.center is None


def test_umbilicity_hyperplane_like_for_vanishing_curvature():
    # a nearly flat boundary: umbilical with |lambda| below the resolvable floor
    huge = Ellipsoid(np.eye(2) / 1e24, np.zeros(2))
    rep = umbilicity_classify(sampling.table(huge, E2, 256))
    assert rep.verdict == "hyperplane-like"
    assert rep.radius is None


def test_weighted_sum_wulff_curvature():
    w = WeightedSum(((0.5, E2), (1.0, Q2)))
    body = WulffBody(DualNorm(w), np.zeros(2), 1.25)
    q = sample_surface(body, 1024)
    table = curvature_table(body, w, q)
    assert np.abs(table.kappa - 0.8).max() < 1e-8


def test_non_elliptic_rejected():
    from wulffkit.curvature import _kappa_from_ab

    with pytest.raises(NonEllipticError):
        _kappa_from_ab(np.array([[[0.0]]]), np.array([[[1.0]]]))


def test_table_frames_are_the_quadrature_frames():
    # one frame array per quadrature, shared with the variation pass; the
    # table is built in it and keeps no copy
    from wulffkit.spheregrid import tangent_frames

    body = Ellipsoid(np.diag([0.25, 1.0, 0.5]), np.zeros(3))
    q = sample_surface(body, (32, 64))
    table = curvature_table(body, E3, q)
    assert q.frames is q.frames
    assert np.array_equal(q.frames, tangent_frames(q.normals))
    a = tangential_hessian(E3, q.normals, q.frames)
    b = _shape_operators_bulk(body, q, q.frames)
    assert np.array_equal(table.mean, np.einsum("nij,nji->n", a, b))
    assert not hasattr(table, "frames")


def test_table_holds_the_integrand_and_sigma_of_each_node():
    # F(nu) and grad F(nu) are the integrand's own values; sigma_k against the
    # coefficients of prod_i (z - kappa_i) = sum_k (-1)^k sigma_k z^(n-k)
    rng = np.random.default_rng(8)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    f3 = WeightedSum(((0.4, E3), (1.0, QuadraticNorm(rot @ np.diag([3.0, 1.0, 0.5]) @ rot.T))))
    ellipsoid = Ellipsoid(rot @ np.diag([0.25, 1.0, 0.5]) @ rot.T, np.array([1.0, 0.5, -2.0]))
    cases = [
        (ELLIPSE, Q2, 512),
        (WulffBody(DQ, np.array([0.3, -0.2]), 1.4), Q2, 512),
        (ellipsoid, f3, (32, 64)),
    ]
    for body, f, resolution in cases:
        table = sampling.table(body, f, resolution)
        q = table.quad
        assert np.array_equal(table.f_normal, f.value(q.normals))
        assert np.array_equal(table.eta, f.grad(q.normals))
        n = q.dim - 1
        assert table.sigma.shape == (len(q), n + 1)
        signs = (-1.0) ** np.arange(n + 1)
        poly = np.array([np.poly(k) for k in table.kappa]) * signs
        assert np.all(table.sigma[:, 0] == 1.0)
        assert np.abs(table.sigma - poly).max() <= 1e-14 * np.abs(poly).max()


def test_empty_quadrature_is_refused():
    # an empty quadrature raised a raw ValueError from a zero-size maximum
    q = sample_surface(ELLIPSE, 256)
    rows = ("points", "normals", "weights", "rho", "sigma")
    empty = replace(q, **{k: getattr(q, k)[:0] for k in rows})
    with pytest.raises(InputError, match="^empty quadrature$"):
        curvature_table(ELLIPSE, E2, empty)


def test_table_carries_its_body_integrand_and_quadrature():
    q = sample_surface(ELLIPSE, 256)
    table = curvature_table(ELLIPSE, Q2, q)
    assert (table.body, table.f, table.quad) == (ELLIPSE, Q2, q)
    # w B_F(nu) is built once per table
    assert table.weighted_stress is table.weighted_stress
    stress = stress_tensor(Q2, q.normals) * q.weights[:, None, None]
    assert np.array_equal(table.weighted_stress, stress.reshape(len(q), -1))


def _sym(a):
    return 0.5 * (a + np.transpose(a, (0, 2, 1)))


def test_curvature_table_matches_per_node_oracle():
    # the batched tangential Hessians, shape operators and principal
    # curvatures against explicit per-node sums, on 3D bodies whose normals
    # are far from the axes
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    f = WeightedSum(((0.4, E3), (1.0, QuadraticNorm(q @ np.diag([3.0, 1.0, 0.5]) @ q.T))))
    wulff = WulffBody(DualNorm(f), np.array([0.2, -0.1, 0.3]), 1.3)
    ellipsoid = Ellipsoid(q.T @ np.diag([0.25, 1.0, 0.5]) @ q, np.array([1.0, 0.5, -2.0]))
    for body in (wulff, ellipsoid):
        quad = sample_surface(body, (32, 64))
        table = curvature_table(body, f, quad)
        a = _sym(congruence(quad.frames, f.hess(quad.normals)))
        if body is wulff:
            b = _sym(np.linalg.inv(congruence(quad.frames, f.hess(quad.normals))) / body.radius)
        else:
            g = np.linalg.norm(body.grad_phi(quad.points), axis=1)
            b = _sym(congruence(quad.frames, body.hess_phi(quad.points) / g[:, None, None]))
        a_batch = tangential_hessian(f, quad.normals, quad.frames)
        if body is wulff:
            b_batch = _wulff_shape_operators(a_batch, body.radius)
        else:
            b_batch = _shape_operators_bulk(body, quad, quad.frames)
        assert np.abs(a_batch - a).max() <= 1e-13 * np.abs(a).max()
        assert np.abs(b_batch - b).max() <= 1e-13 * np.abs(b).max()
        kappa = sandwich_eigenvalues(a, b)
        assert np.abs(table.kappa - kappa).max() <= 1e-13 * np.abs(kappa).max()


def test_wulff_table_builds_the_tangential_hessian_once(monkeypatch):
    # a Wulff ball of the table's own integrand, as every scene builds it,
    # takes its shape operators from the table's tangential Hessian: one
    # hess call, and the bits of the two-call route
    f = WeightedSum(((0.4, E3), (1.0, QuadraticNorm(np.diag([3.0, 1.0, 0.5])))))
    body = WulffBody(DualNorm(f), np.array([0.2, -0.1, 0.3]), 1.3)
    q = sample_surface(body, (32, 64))
    a = tangential_hessian(f, q.normals, q.frames)
    b = _wulff_shape_operators(tangential_hessian(body.dual.base, q.normals, q.frames), body.radius)
    calls = []
    hess = WeightedSum.hess

    def counted(self, x):
        calls.append(len(x))
        return hess(self, x)

    monkeypatch.setattr(WeightedSum, "hess", counted)
    table = curvature_table(body, f, q)
    assert calls == [len(q)]
    assert np.array_equal(table.mean, np.einsum("nij,nji->n", a, b))
    # another integrand still builds the body's own Hessian
    calls.clear()
    curvature_table(body, WeightedSum(f.terms), q)
    assert calls == [len(q), len(q)]
