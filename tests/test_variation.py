from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wulffkit import (
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    InputError,
    PolynomialField,
    QuadraticNorm,
    StepTooLargeError,
    Superellipse,
    WeightedSum,
    WulffBody,
    criticality_residual,
    curvature_table,
    first_variation,
    flow_energy_derivative,
    load_scene,
    perimeter_F,
    sample_surface,
    volume,
)

from wulffkit.variation import _monomials, _Pushes

import sampling
from oracles import (
    ellipse_arc_length,
    fd_jacobian,
    polynomial_field,
    row_major_push,
    stress_tensor,
    volume_derivative,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
DQ = DualNorm(Q2)
ELLIPSE = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
WULFF = WulffBody(DQ, np.zeros(2), 1.0)


def test_stress_tensor_formula():
    rng = np.random.default_rng(0)
    nu = rng.standard_normal((20, 2))
    nu /= np.linalg.norm(nu, axis=1)[:, None]
    b = stress_tensor(Q2, nu)
    for k in range(20):
        fv = Q2.value(nu[k][None])[0]
        g = Q2.grad(nu[k][None])[0]
        for u in (np.array([1.0, 0.0]), np.array([0.3, -1.2])):
            direct = fv * u - nu[k] * (u @ g)
            assert b[k] @ u == pytest.approx(direct, rel=1e-14)


def test_field_jacobian_matches_finite_differences():
    # Dg on the monomials of the nodes, as criticality_residual evaluates it
    rng = np.random.default_rng(1)
    g = PolynomialField.random(rng, 2, 1.0)
    for x in ([0.3, -0.7], [1.4, 0.2]):
        fd = fd_jacobian(lambda y: sampling.field_values(g, y[None, :])[0], np.asarray(x), h=1e-6)
        assert g._jacobians(_monomials(x))[0] == pytest.approx(fd, abs=1e-8)
    g3 = PolynomialField.random(rng, 3, 1.0)
    pts = rng.standard_normal((4, 3))
    jac = g3._jacobians(_monomials(pts))
    for x, j in zip(pts, jac):
        fd = fd_jacobian(lambda y: sampling.field_values(g3, y[None, :])[0], x, h=1e-6)
        assert j == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("d", [2, 3])
def test_field_value_matches_explicit_sums(d):
    rng = np.random.default_rng(2)
    const, lin, quad = (rng.standard_normal((d,) * k) for k in (1, 2, 3))
    g = PolynomialField(const, lin, quad)  # quad is symmetrized on construction
    pts = 2.0 * rng.standard_normal((6, d))
    expected = np.array([polynomial_field(const, lin, quad, x) for x in pts])
    assert sampling.field_values(g, pts) == pytest.approx(expected, rel=1e-13, abs=1e-13)
    assert sampling.field_values(g, pts[0]) == pytest.approx(expected[:1], rel=1e-13, abs=1e-13)


def test_constant_field_gives_zero():
    q = sample_surface(ELLIPSE, 2048)
    g = PolynomialField([1.0, 2.0], np.zeros((2, 2)), np.zeros((2, 2, 2)))
    assert first_variation(curvature_table(ELLIPSE, Q2, q), g) == 0.0
    assert abs(volume_derivative(q, g)) < 1e-8


def test_position_field_gives_n_times_perimeter():
    # dilation oracle: P_F((1+t) body) = (1+t)^n P_F, derivative n P_F
    for body, f, res in ((ELLIPSE, E2, 4096), (WULFF, Q2, 4096)):
        q = sample_surface(body, res)
        p = perimeter_F(q, f)
        n = body.dim - 1
        fv = first_variation(curvature_table(body, f, q), PolynomialField.position(body.dim))
        assert fv == pytest.approx(n * p, rel=1e-6)


def test_volume_derivative_examples():
    q = sample_surface(ELLIPSE, 4096)
    assert volume_derivative(q, PolynomialField.position(2)) == pytest.approx(
        2 * volume(q), rel=1e-12
    )
    disk = Ellipsoid(np.eye(2), np.zeros(2))
    qd = sample_surface(disk, 4096)
    g = PolynomialField(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2, 2)))
    assert volume_derivative(qd, g) == pytest.approx(np.pi, rel=1e-12)


@pytest.mark.parametrize(
    "body,f,res",
    [
        (ELLIPSE, E2, 4096),
        (WULFF, Q2, 4096),
        (Superellipse((1.5, 1.0), 4.0, np.zeros(2)), E2, 4096),
        (Ellipsoid(np.diag([0.25, 1.0, 1.0]), np.zeros(3)), E3, (64, 128)),
    ],
)
def test_first_variation_matches_flow_derivative(body, f, res):
    rng = np.random.default_rng(7)
    quad = sample_surface(body, res)
    table = curvature_table(body, f, quad)
    h = 1e-4 * 2 * quad.rho.max()
    for _ in range(10):
        g = PolynomialField.random(rng, body.dim, 0.4)
        fv = first_variation(table, g)
        flow = flow_energy_derivative(quad, f, g, h)
        assert abs(fv - flow) <= 1e-4 * (1.0 + abs(fv))


def test_mean_curvature_pairing():
    rng = np.random.default_rng(8)
    for body, f, res in ((ELLIPSE, E2, 4096), (WULFF, Q2, 4096)):
        quad = sample_surface(body, res)
        table = curvature_table(body, f, quad)
        p = perimeter_F(quad, f)
        for _ in range(5):
            g = PolynomialField.random(rng, 2, 0.4)
            fv = first_variation(table, g)
            paired = float(
                (
                    table.mean
                    * np.einsum("ni,ni->n", sampling.field_values(g, quad.points), quad.normals)
                    * quad.weights
                ).sum()
            )
            assert abs(fv - paired) <= 1e-3 * max(p, abs(fv))


def test_wulff_criticality():
    rng = np.random.default_rng(9)
    q = sample_surface(WULFF, 4096)
    p = perimeter_F(q, Q2)
    fields = [PolynomialField.random(rng, 2, 0.5) for _ in range(10)]
    for g, res in zip(fields, criticality_residual(curvature_table(WULFF, Q2, q), fields)):
        assert abs(res.residual) <= 1e-3 * p
        assert abs(rescaled_derivative(q, Q2, g)) <= 1e-3 * p


def test_euclidean_ball_criticality():
    ball = Ellipsoid(np.eye(2) / 2.25, np.zeros(2))
    rng = np.random.default_rng(10)
    q = sample_surface(ball, 4096)
    p = perimeter_F(q, E2)
    fields = [PolynomialField.random(rng, 2, 0.5) for _ in range(5)]
    for res in criticality_residual(curvature_table(ball, E2, q), fields):
        assert abs(res.residual) <= 1e-3 * p


def test_ellipse_shear_not_critical():
    shear = PolynomialField.linear(np.diag([1.0, -1.0]))
    q = sample_surface(ELLIPSE, 4096)
    [res] = criticality_residual(curvature_table(ELLIPSE, E2, q), [shear])
    assert abs(res.residual) > 0.1
    # finite-difference oracle on the flowed ellipse: axes (2(1+t), (1-t))
    h = 1e-5
    dp = (ellipse_arc_length(2 * (1 + h), 1 - h) - ellipse_arc_length(2 * (1 - h), 1 + h)) / (2 * h)
    assert res.first_variation == pytest.approx(dp, rel=1e-6)
    assert abs(res.volume_derivative) < 1e-10  # trace-free shear preserves area
    assert res.residual == pytest.approx(2 * dp, rel=1e-6)


def rescaled_derivative(q, f, g):
    """Central difference at t = 0 of the energy of the flow x + t g(x)
    rescaled by (V0/V(t))^(1/(n+1)) to keep its volume V0, from the
    row-by-row push at t = +h and -h, h = 1e-5 of the body diameter."""
    n = q.dim - 1
    v0 = volume(q)
    h = 1e-5 * 2.0 * float(q.rho.max())
    plus, minus = (
        ((v0 / vol) ** (1.0 / (n + 1))) ** n * energy
        for energy, vol in (row_major_push(q, f, g, t) for t in (+h, -h))
    )
    return (plus - minus) / (2 * h)


def test_rescaled_residual_matches_scaled_identity():
    # d/dt [ (V0/V(t))^{n/(n+1)} P(t) ] = residual / (n+1)
    rng = np.random.default_rng(11)
    g = PolynomialField.random(rng, 2, 0.5)
    q = sample_surface(ELLIPSE, 4096)
    [res] = criticality_residual(curvature_table(ELLIPSE, E2, q), [g])
    assert rescaled_derivative(q, E2, g) == pytest.approx(res.residual / 2.0, rel=1e-3, abs=1e-7)


def test_criticality_reuses_the_flow_pushes():
    # the per-body pass gives, field by field, exactly the one-field routes
    rng = np.random.default_rng(12)
    ellipsoid = Ellipsoid(np.diag([0.25, 1.0, 1.0]), np.zeros(3))
    for body, f, res in (
        (ELLIPSE, Q2, 2048),
        (WULFF, Q2, 1024),
        (ellipsoid, QuadraticNorm(np.diag([4.0, 1.0, 2.0])), (64, 128)),
    ):
        q = sample_surface(body, res)
        table = curvature_table(body, f, q)
        # the step criticality_residual pins: 1e-5 of the body diameter
        h = 1e-5 * 2.0 * float(q.rho.max())
        fields = [PolynomialField.random(rng, body.dim, 0.4) for _ in range(3)]
        for g, crit in zip(fields, criticality_residual(table, fields), strict=True):
            assert crit.flow_derivative == flow_energy_derivative(q, f, g, h)
            assert crit.first_variation == first_variation(table, g)
            assert crit.volume_derivative == volume_derivative(q, g)


def test_var_suite_pushes_each_field_once(tmp_path, monkeypatch):
    from wulffkit import fanout, suites, variation

    calls = []
    pushed = variation._Pushes.energy

    def counted(self, f, t):
        calls.append(t)
        return pushed(self, f, t)

    monkeypatch.setattr(variation._Pushes, "energy", counted)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    scene = replace(load_scene(SCENES / "ellipse_d2.json"), resolution=512)
    result = suites.run_suites(["var"], scene, tmp_path)[0]
    assert not result.skipped
    # ten random fields per body, each pushed by +h and by -h once
    assert len(calls) == 2 * 10 * len(scene.bodies)


def test_var_suite_builds_the_weighted_stress_once_per_body(tmp_path, monkeypatch):
    from wulffkit import curvature, fanout, suites

    built = []
    stress = curvature._stress

    def counted(f_normal, eta, nu):
        built.append(len(nu))
        return stress(f_normal, eta, nu)

    monkeypatch.setattr(curvature, "_stress", counted)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    bodies = [("w", WulffBody(DQ, np.zeros(2), 1.0)), ("e", ELLIPSE)]
    scene = sampling.scene(bodies, Q2, 512, suites=("var",))
    result = suites.run_suites(["var"], scene, tmp_path)[0]
    assert result.passed and not result.skipped
    assert built == [512, 512]


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_var_suite_passes_on_rotated_3d_scenes(tmp_path, seed):
    # a weighted sum with a rotated M, its Wulff ball and a rotated
    # ellipsoid: on the lat-long grid with midpoint polar nodes and a step of
    # 1e-4 of the diameter, mean_curvature_pairing[e] read 3.2 to 4.3 times
    # its tolerance at (32, 64) and variation_consistency[e] up to 0.15
    from wulffkit import suites

    rng = np.random.default_rng(seed)
    rot = _rotation(rng)
    f = WeightedSum(((0.5, E3), (0.5, QuadraticNorm(rot @ np.diag([3.0, 1.0, 1.5]) @ rot.T))))
    rot = _rotation(rng)
    ellipsoid = Ellipsoid(rot @ np.diag([1 / 1.6**2, 1.0, 1 / 1.3**2]) @ rot.T, np.array([5.0, 0.5, 0.0]))
    ball = WulffBody(DualNorm(f), np.array([0.1, 0.2, -0.3]), 1.0)
    scene = sampling.scene([("w", ball), ("e", ellipsoid)], f, (32, 64), suites=("var",))
    result = suites.run_suites(["var"], scene, tmp_path)[0]
    assert result.passed and not result.skipped
    worst = {c["name"]: c["value"] / c["tol"] for c in result.checks}
    assert worst["mean_curvature_pairing[e]"] < 1e-6
    assert worst["variation_consistency[e]"] < 0.01


def test_flow_step_guard():
    g = PolynomialField.position(2)
    with pytest.raises(InputError):
        flow_energy_derivative(sample_surface(ELLIPSE, 2048), E2, g, 0.5)


@pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf])
def test_step_must_be_positive_and_finite(h):
    # h = 0 raised a raw ZeroDivisionError, and a NaN h failed late, inside F,
    # as "non-finite input components"
    q = sample_surface(ELLIPSE, 256)
    g = PolynomialField.position(2)
    with pytest.raises(InputError, match="step h must be positive and finite"):
        flow_energy_derivative(q, E2, g, h)


ROTATION = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
R3 = QuadraticNorm(ROTATION @ np.diag([3.0, 1.0, 0.5]) @ ROTATION.T)


@pytest.mark.parametrize(
    "body,f,res",
    [
        (ELLIPSE, E2, 512),
        (ELLIPSE, QuadraticNorm(np.array([[2.0, 0.7], [0.7, 1.0]])), 512),
        (WULFF, WeightedSum(((0.5, E2), (1.0, Q2))), 512),
        (Ellipsoid(np.diag([0.25, 1.0, 0.5]), np.array([0.3, -0.2, 0.1])), E3, (32, 64)),
        (Ellipsoid(np.diag([0.25, 1.0, 0.5]), np.zeros(3)), R3, (32, 64)),
        (
            Ellipsoid(ROTATION @ np.diag([1.0, 0.5, 2.0]) @ ROTATION.T, np.zeros(3)),
            WeightedSum(((0.4, E3), (1.0, R3))),
            (32, 64),
        ),
    ],
)
def test_push_kernel_matches_the_row_major_push(body, f, res):
    # the component-major a0 + t a1 + t^2 a2 against the pushed frames
    # crossed row by row, at steps up to the largest the guard allows: the
    # pushed energies agree (the oracle's pushed volume has no counterpart
    # in the library)
    rng = np.random.default_rng(13)
    q = sample_surface(body, res)
    mono = _monomials(q.points)
    pushes = _Pushes(q)
    diameter = 2.0 * q.rho.max()
    for _ in range(3):
        g = PolynomialField.random(rng, body.dim, 0.4)
        pushes.expand(g, mono)
        for t in (1e-3 * diameter, 1e-4 * diameter, -1e-4 * diameter):
            want_energy, _ = row_major_push(q, f, g, t)
            assert abs(pushes.energy(f, t) - want_energy) <= 1e-12 * abs(want_energy)


def test_var_reads_the_integrand_at_the_normals_from_the_table(tmp_path, monkeypatch):
    # once the run's tables are built, var takes F(nu) and grad F(nu) from
    # them: no integrand gradient is evaluated
    from wulffkit import suites

    f = WeightedSum(((0.5, E2), (1.0, Q2)))
    bodies = [("w", WulffBody(DualNorm(f), np.zeros(2), 1.0)), ("e", ELLIPSE)]
    scene = sampling.scene(bodies, f, 512, suites=("var",))
    cache = suites.RunCache(scene)
    for _, body in scene.bodies:
        cache.table(body)
    calls = []
    for cls in (EuclideanNorm, QuadraticNorm, WeightedSum):
        grad = cls.grad

        def counted(self, x, grad=grad):
            calls.append(type(self).__name__)
            return grad(self, x)

        monkeypatch.setattr(cls, "grad", counted)
    for k in range(len(scene.bodies)):
        checks, _, _ = suites._body_part("var", scene, tmp_path, cache, k)
        assert checks
    assert calls == []


def test_degenerate_push_rejected():
    # t Dg = -I exactly (powers of two), so the +h push collapses every frame
    q = sample_surface(ELLIPSE, 256)
    collapse = PolynomialField.linear(-1024.0 * np.eye(2))
    with pytest.raises(StepTooLargeError):
        flow_energy_derivative(q, E2, collapse, 1.0 / 1024)


def test_field_of_another_dimension_is_refused():
    # a 3D field on a 2D surface raised a raw numpy ValueError
    q, g = sample_surface(ELLIPSE, 256), PolynomialField.position(3)
    table = curvature_table(ELLIPSE, E2, q)
    for route in (
        lambda: first_variation(table, g),
        lambda: criticality_residual(table, [g]),
        lambda: flow_energy_derivative(q, E2, g, 1e-4),
    ):
        with pytest.raises(InputError, match="field of dimension 3 on a surface in dimension 2"):
            route()


def test_field_shape_validation():
    with pytest.raises(InputError):
        PolynomialField(np.zeros(2), np.zeros((3, 2)), np.zeros((2, 2, 2)))


@pytest.mark.parametrize("part", ["const", "lin", "quad"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_coefficients_refused(part, bad):
    # a NaN constant gave first_variation 0.0 and a NaN criticality residual
    coefs = {"const": np.zeros(2), "lin": np.eye(2), "quad": np.zeros((2, 2, 2))}
    coefs[part].flat[0] = bad
    with pytest.raises(InputError, match=part):
        PolynomialField(**coefs)
