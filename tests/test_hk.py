import numpy as np
import pytest

from wulffkit import (
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    HKRow,
    HypothesisViolationError,
    InputError,
    QuadraticNorm,
    Superellipse,
    WeightedSum,
    WulffBody,
    equality_classifier,
    hk_evaluate,
    montiel_ros_integral,
    sample_surface,
)
from wulffkit import fanout, suites
from wulffkit.curvature import UmbilicityReport, curvature_table
from wulffkit.hk import hk_report
from wulffkit.spheregrid import sphere_quadrature

from oracles import ellipse_hk_ratio
import sampling
from sampling import Flower, refuse_overlaps, scene, tables, umbilicity

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
DQ = DualNorm(Q2)
ELLIPSE = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))


def test_hk_single_wulff_equality():
    rep = hk_evaluate(tables([WulffBody(DQ, np.zeros(2), 1.0)], Q2, 4096))
    assert abs(rep.ratio - 1.0) <= 1e-3
    assert rep.verdict == "equality"
    assert rep.h_min == pytest.approx(1.0, abs=1e-10)


def test_hk_euclidean_ball():
    ball = Ellipsoid(np.eye(2) / 4.0, np.zeros(2))
    rep = hk_evaluate(tables([ball], E2, 4096))
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_hk_ellipse_strict_matches_oracle():
    rep = hk_evaluate(tables([ELLIPSE], E2, 4096))
    oracle = ellipse_hk_ratio(2.0, 1.0)
    assert oracle == pytest.approx(32.0 / 59.0, abs=1e-12)
    assert rep.ratio == pytest.approx(oracle, abs=1e-3)
    assert rep.ratio <= 1.0 - 0.01
    assert rep.verdict == "strict"


def test_hk_chain_inequalities():
    for bodies, f in (
        ([ELLIPSE], E2),
        ([WulffBody(DQ, np.zeros(2), 1.0)], Q2),
        ([Ellipsoid(np.diag([0.25, 1.0, 1.0]), np.zeros(3))], E3),
    ):
        res = 4096 if f.dim == 2 else (64, 128)
        rep = hk_evaluate(tables(bodies, f, res))
        rhs = (f.dim - 1) / f.dim * rep.integral
        assert rep.vol <= rep.mr_integral * (1 + 1e-3)
        assert rep.mr_integral <= rhs * (1 + 1e-3)


def test_montiel_ros_wulff_is_volume():
    body = WulffBody(DQ, np.zeros(2), 1.0)
    assert montiel_ros_integral(sampling.table(body, Q2, 4096)) == pytest.approx(
        2 * np.pi, rel=1e-10
    )
    ball = Ellipsoid(np.eye(3) / 4.0, np.zeros(3))
    assert montiel_ros_integral(sampling.table(ball, E3, (64, 128))) == pytest.approx(
        4.0 / 3.0 * np.pi * 8.0, rel=1e-10
    )


def test_montiel_ros_ellipse_strict():
    mr = montiel_ros_integral(sampling.table(ELLIPSE, E2, 4096))
    assert mr > 2 * np.pi
    # n = 1 makes the per-node mean inequality an identity: mr equals the rhs
    rep = hk_evaluate(tables([ELLIPSE], E2, 4096))
    assert mr == pytest.approx(0.5 * rep.integral, rel=1e-12)


def test_montiel_ros_matches_gauss_legendre_in_t():
    # per node, the integral of prod_i (1 - t kappa_i) over [0, 1/kappa_max] by
    # Gauss-Legendre in t, exact for this degree-n polynomial, weighted by
    # F(nu) from the integrand itself
    rng = np.random.default_rng(12)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    ellipsoid = Ellipsoid(rot @ np.diag([0.25, 1.0, 0.5]) @ rot.T, np.array([1.0, 0.5, -2.0]))
    x, w = np.polynomial.legendre.leggauss(6)
    cases = [
        (ELLIPSE, Q2, 4096),
        (Superellipse((2.0, 1.0), 4.0, np.array([0.5, -0.3])), E2, 4096),
        (ellipsoid, QuadraticNorm(rot @ np.diag([3.0, 1.0, 0.5]) @ rot.T), (64, 128)),
    ]
    for body, f, resolution in cases:
        table = sampling.table(body, f, resolution)
        quad = table.quad
        span = 1.0 / table.kappa.max(axis=1)
        t = 0.5 * span[:, None] * (x + 1.0)
        jacobian = np.prod(1.0 - t[:, :, None] * table.kappa[:, None, :], axis=2)
        inner = 0.5 * span * (jacobian @ w)
        oracle = float((f.value(quad.normals) * quad.weights * inner).sum())
        assert montiel_ros_integral(table) == pytest.approx(oracle, rel=1e-12)


def test_am_gm_tightness_on_umbilical_nodes():
    body = WulffBody(DualNorm(QuadraticNorm(np.diag([4.0, 1.0, 1.0]))), np.zeros(3), 1.5)
    f = QuadraticNorm(np.diag([4.0, 1.0, 1.0]))
    rep = hk_evaluate(tables([body], f, (64, 128)))
    rhs = 2.0 / 3.0 * rep.integral
    assert abs(rep.mr_integral - rhs) <= 1e-6 * rhs


def test_ratio_scale_equivariance():
    base = hk_evaluate(tables([ELLIPSE], E2, 4096)).ratio
    for lam in (0.5, 2.0):
        scaled = Ellipsoid(np.diag([0.25, 1.0]) / lam**2, np.zeros(2))
        rep = hk_evaluate(tables([scaled], E2, 4096))
        assert rep.ratio == pytest.approx(base, abs=1e-6)


def test_two_wulff_union_classification():
    bodies = [
        WulffBody(DQ, np.array([-2.8, 0.0]), 1.0),
        WulffBody(DQ, np.array([2.8, 0.0]), 1.0),
    ]
    tabs = tables(bodies, Q2, 4096)
    rep = hk_evaluate(tabs)
    assert abs(rep.ratio - 1.0) <= 1e-3
    verdict = equality_classifier(rep, umbilicity(tabs))
    assert verdict.verdict == "wulff-union"
    assert verdict.equal_radii
    assert verdict.radii == pytest.approx([1.0, 1.0], abs=1e-6)
    assert verdict.centers[0] == pytest.approx([-2.8, 0.0], abs=1e-6)


def test_unequal_radii_still_wulff_union():
    bodies = [
        WulffBody(DQ, np.array([-3.0, 0.0]), 1.0),
        WulffBody(DQ, np.array([3.0, 0.0]), 1.4),
    ]
    tabs = tables(bodies, Q2, 4096)
    rep = hk_evaluate(tabs)
    verdict = equality_classifier(rep, umbilicity(tabs))
    assert verdict.verdict == "wulff-union"
    assert not verdict.equal_radii


def test_nearly_equal_radii_are_not_equal():
    # RADIUS_TOL = 0.02 called radii 1.0 and 1.019 equal, while each fitted
    # radius is recovered within 1e-10
    bodies = [
        WulffBody(DQ, np.array([-3.0, 0.0]), 1.0),
        WulffBody(DQ, np.array([3.0, 0.0]), 1.019),
    ]
    tabs = tables(bodies, Q2, 4096)
    rep = hk_evaluate(tabs)
    verdict = equality_classifier(rep, umbilicity(tabs))
    assert verdict.verdict == "wulff-union"
    assert verdict.radii == pytest.approx([1.0, 1.019], rel=1e-10)
    assert verdict.equal_radii is False


def test_equal_radii_needs_a_ball_for_every_body():
    # a Wulff ball beside an ellipse: one fitted radius, which compared only
    # with itself read as equal radii
    bodies = [
        WulffBody(DQ, np.array([-3.0, 0.0]), 1.0),
        Ellipsoid(np.diag([1.0, 0.25]), np.array([3.0, 0.0])),
    ]
    tabs = tables(bodies, Q2, 4096)
    fits = umbilicity(tabs)
    assert [u.verdict == "wulff" for u in fits] == [True, False]
    rep = hk_evaluate(tabs)
    verdict = equality_classifier(rep, fits)
    assert verdict.radii[0] == pytest.approx(1.0, abs=1e-6)
    assert verdict.radii[1] is None and verdict.centers[1] is None
    assert verdict.equal_radii is None


def test_ellipse_classified_strict():
    tabs = tables([ELLIPSE], E2, 4096)
    rep = hk_evaluate(tabs)
    verdict = equality_classifier(rep, umbilicity(tabs))
    assert verdict.verdict == "strict"
    assert verdict.failing_condition == "ratio"


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


ROTATED_M = _rotation(0.7) @ np.diag([4.0, 1.0]) @ _rotation(0.7).T


@pytest.mark.parametrize("m", [np.eye(2), ROTATED_M], ids=["euclidean", "rotated M"])
@pytest.mark.parametrize("eps", [0.0, 1e-7, 1e-5])
def test_a_body_near_a_wulff_shape_is_strict(m, eps):
    # E = R diag(1 + eps, 1) R^T W, with W the unit Wulff ball of
    # F(nu) = sqrt(nu' M nu), is the ellipse y' A^-T M^-1 A^-1 y <= 1; at
    # eps = 1e-5 it lies 5e-6 r from a Wulff shape (Euclidean F), which
    # the classifier's 1e-3 tolerances called a Wulff union.  At eps = 1e-7
    # the ratio reads 1 within 2e-14, "equality", and the fit alone finds
    # the body not umbilical
    f = QuadraticNorm(m) if m is ROTATED_M else E2
    a_inv = np.linalg.inv(_rotation(0.3) @ np.diag([1.0 + eps, 1.0]) @ _rotation(0.3).T)
    q = a_inv.T @ np.linalg.inv(m) @ a_inv
    tabs = tables([Ellipsoid(0.5 * (q + q.T), np.zeros(2))], f, 4096)
    rep = hk_evaluate(tabs)
    fits = umbilicity(tabs)
    verdict = equality_classifier(rep, fits)
    if eps == 0.0:
        assert verdict.verdict == "wulff-union"
        return
    assert verdict.verdict == "strict"
    if eps == 1e-7:
        assert rep.verdict == "equality"
        assert fits[0].verdict == "not-umbilical"
        assert verdict.failing_condition == "umbilicity"
    else:
        assert verdict.failing_condition == "ratio"


def test_nan_ratio_is_strict_in_the_report_and_the_classifier():
    # the classifier tested |ratio - 1| > EQUALITY_TOL, which a NaN ratio
    # passed, so a report with verdict "strict" classified as "wulff-union"
    rep = hk_report([HKRow(vol=np.nan, integral=2.0, mr_integral=1.0, h_min=1.0, h_max=1.0)], 2)
    synthetic = (
        UmbilicityReport(
            lam=1.0, center=np.zeros(2), radius=1.0, dispersion=0.0, verdict="wulff"
        ),
    )
    assert np.isnan(rep.ratio) and rep.verdict == "strict"
    verdict = equality_classifier(rep, synthetic)
    assert verdict.verdict == "strict"
    assert verdict.failing_condition == "ratio"


def test_hk_report_of_no_rows_is_refused():
    # no rows summed to a zero integral, and the ratio raised ZeroDivisionError
    with pytest.raises(InputError, match="^empty scene$"):
        hk_report([], 2)


def test_overlapping_bodies_rejected():
    bodies = [
        WulffBody(DQ, np.array([0.0, 0.0]), 1.0),
        WulffBody(DQ, np.array([1.0, 0.0]), 1.0),
    ]
    with pytest.raises(InputError):
        hk_evaluate(tables(bodies, Q2, 1024))


def test_elongated_disjoint_bodies_accepted():
    # bounding circles (radius 2) overlap, yet min phi_b on the boundary of a is 0.5
    bodies = [
        WulffBody(DQ, np.array([0.0, 0.0]), 1.0),
        WulffBody(DQ, np.array([0.0, 2.5]), 1.0),
    ]
    tabs = tables(bodies, Q2, 1024)
    rep = hk_evaluate(tabs)
    assert rep.verdict == "equality"
    verdict = equality_classifier(rep, umbilicity(tabs))
    assert verdict.verdict == "wulff-union"


def test_nested_bodies_rejected():
    bodies = [
        WulffBody(DQ, np.array([0.0, 0.0]), 2.0),
        WulffBody(DQ, np.array([0.1, 0.0]), 0.5),
    ]
    with pytest.raises(InputError, match="not disjoint"):
        hk_evaluate(tables(bodies, Q2, 1024))


def _touching_integrand(family, dim):
    """A quadratic, rotated quadratic or weighted-sum integrand in dimension dim."""
    lams = np.diag(np.linspace(4.0, 1.0, dim))
    if family == "quadratic":
        return QuadraticNorm(lams)
    q, _ = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim, dim)))
    m = q @ lams @ q.T
    turned = QuadraticNorm(0.5 * (m + m.T))
    if family == "rotated":
        return turned
    return WeightedSum(((0.4, EuclideanNorm(dim)), (1.0, turned)))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("family", ["quadratic", "rotated", "weighted"])
def test_touching_wulff_balls_are_disjoint(family, dim):
    # c_j = c_i + (r_i + r_j) omega_k / F*(omega_k) puts the contact on node
    # k of body i and, the grid being antipodally symmetric, on a node of
    # body j, where the node rule reads -1 or 0 from rounding
    f = _touching_integrand(family, dim)
    resolution = 1024 if dim == 2 else (32, 64)
    dual = DualNorm(f)
    omega = sphere_quadrature(dim, resolution)[0]
    ri, rj = 1.0, 0.7
    ci = np.linspace(-0.3, 0.4, dim)

    def pair(cj, rj=rj):
        return tables([WulffBody(dual, ci, ri), WulffBody(dual, cj, rj)], f, resolution)

    for k in (0, len(omega) // 3, len(omega) - 1):
        unit = omega[k] / dual.batch_value(omega[k][None])[0]
        refuse_overlaps(pair(ci + (ri + rj) * unit))
        with pytest.raises(InputError, match="not disjoint"):
            refuse_overlaps(pair(ci + (ri + rj - 1e-6 * ri) * unit))
    with pytest.raises(InputError, match="not disjoint"):
        refuse_overlaps(pair(ci + 0.1 * unit, rj=0.3))


def test_six_decimal_tangent_pair_overlaps():
    # scenes/tangent_wulff_d2.json rounded to 6 decimals: F* of the centres'
    # difference is 1.99999985, so the balls overlap
    bodies = [WulffBody(DQ, np.zeros(2), 1.0), WulffBody(DQ, np.array([3.999995, 0.003068]), 1.0)]
    with pytest.raises(InputError, match="not disjoint"):
        refuse_overlaps(tables(bodies, Q2, 4096))


def test_tables_of_different_integrands_are_refused():
    # the sums of F(nu)/H under two integrands read as one ratio, 0.703
    bodies = [Ellipsoid(np.diag([0.25, 1.0]), np.array([-3.0, 0.0])),
              WulffBody(DQ, np.array([3.0, 0.0]), 1.0)]
    mixed = [sampling.table(bodies[0], E2, 1024), sampling.table(bodies[1], Q2, 1024)]
    with pytest.raises(InputError, match="^bodies 0 and 1 are tables of different integrands$"):
        hk_evaluate(mixed)


def test_negative_curvature_violates_hypothesis():
    flower = Flower(0.35)
    q = sample_surface(flower, 1024)
    table = curvature_table(flower, E2, q)
    assert table.mean.min() < 0  # the dents are genuinely concave
    with pytest.raises(HypothesisViolationError):
        hk_evaluate(tables([flower], E2, 1024))


def test_montiel_ros_raises_without_positive_curvature():
    # dent nodes have no positive curvature direction, hence no focal cut
    with pytest.raises(HypothesisViolationError, match="no positive curvature"):
        montiel_ros_integral(sampling.table(Flower(0.35), E2, 1024))


def test_hk_rows_sum_to_the_totals():
    bodies = [
        WulffBody(DQ, np.array([-3.0, 0.0]), 1.0),
        Ellipsoid(np.diag([4.0, 1.0]), np.array([3.0, 0.0])),
        WulffBody(DQ, np.array([0.0, 3.0]), 0.7),
    ]
    tabs = tables(bodies, Q2, 1024)
    rep = hk_evaluate(tabs)
    assert len(rep.rows) == 3
    assert rep.vol == sum(r.vol for r in rep.rows)
    assert rep.integral == sum(r.integral for r in rep.rows)
    assert rep.mr_integral == sum(r.mr_integral for r in rep.rows)
    assert rep.h_min == min(r.h_min for r in rep.rows)
    assert rep.h_max == max(r.h_max for r in rep.rows)
    # each row is the body's own one-body report
    for table, row in zip(tabs, rep.rows):
        alone = hk_evaluate([table])
        assert (row.vol, row.integral, row.mr_integral) == (
            alone.vol, alone.integral, alone.mr_integral
        )


def test_mr_suite_metrics_are_the_hk_rows(tmp_path):
    bodies = [("a", WulffBody(DQ, np.array([-3.0, 0.0]), 1.0)),
              ("b", Ellipsoid(np.diag([4.0, 1.0]), np.array([3.0, 0.0])))]
    sc = scene(bodies, Q2, 1024)
    res = suites.run_suites(["mr"], sc, tmp_path)[0]
    assert res.passed and not res.skipped
    for (bid, _), row in zip(bodies, suites.RunCache(sc).hk().rows):
        assert res.metrics[f"mr[{bid}]"] == {
            "vol": row.vol, "mr": row.mr_integral, "rhs": 0.5 * row.integral
        }


def test_curv_hk_and_mr_fit_each_body_once(tmp_path, monkeypatch):
    calls = []
    original = suites.umbilicity_classify

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(suites, "umbilicity_classify", counted)
    monkeypatch.setattr(fanout, "_usable_cpus", lambda: 1)
    bodies = [("a", WulffBody(DQ, np.array([-3.0, 0.0]), 1.0)),
              ("b", WulffBody(DQ, np.array([3.0, 0.0]), 1.3))]
    sc = scene(bodies, Q2, 1024)
    assert all(res.passed for res in suites.run_suites(["curv", "hk", "mr"], sc, tmp_path))
    assert len(calls) == 2
    # a RunCache fits a body once, however often it is read
    cache = suites.RunCache(sc)
    assert cache.umbilicity(bodies[0][1]) is cache.umbilicity(bodies[0][1])
    assert cache.umbilicity(bodies[0][1]).verdict == "wulff" and len(calls) == 3


def test_mr_suite_refuses_nonpositive_curvature(tmp_path):
    with pytest.raises(HypothesisViolationError):
        suites.run_suites(["mr"], scene([("f", Flower(0.35))], E2, 1024), tmp_path)


def test_mr_suite_refuses_overlapping_bodies(tmp_path):
    bodies = [("a", WulffBody(DQ, np.zeros(2), 1.0)),
              ("b", WulffBody(DQ, np.array([1.0, 0.0]), 1.0))]
    with pytest.raises(InputError, match="not disjoint"):
        suites.run_suites(["mr"], scene(bodies, Q2, 1024), tmp_path)


def test_hk_and_mr_skip_a_scene_without_bodies(tmp_path):
    for res in suites.run_suites(["hk", "mr"], scene([], Q2, 1024), tmp_path):
        assert res.skipped and res.skip_reason == "no bodies in scene"


def test_non_star_shaped_rejected():
    from wulffkit import StarShapeError

    with pytest.raises(StarShapeError):
        sample_surface(Flower(1.2), 256)  # rho goes negative at the dents


def test_flower_shape_operator_matches_polar_oracle():
    # kappa = (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2)
    flower = Flower(0.2)
    q = sample_surface(flower, 2048)
    table = curvature_table(flower, E2, q)
    t = np.arctan2(q.points[:, 1], q.points[:, 0])
    rho = 1 + 0.2 * np.cos(3 * t)
    d1 = -0.6 * np.sin(3 * t)
    d2 = -1.8 * np.cos(3 * t)
    kappa = (rho**2 + 2 * d1**2 - rho * d2) / (rho**2 + d1**2) ** 1.5
    assert np.abs(table.mean - kappa).max() < 1e-10
