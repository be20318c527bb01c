import numpy as np
import pytest

from wulffkit import (
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    GridSpec,
    InputError,
    QuadraticNorm,
    TruncationError,
    TubeCurve,
    WulffBody,
    boundary_source,
    build_field,
    claim5_coefficients,
    default_t_grid,
    estimate_reach_F,
    fit_polynomial,
    positive_reach_test,
    tube_volumes,
)

from oracles import (
    disk_inward_tube_area,
    disk_outward_tube_area,
    sphere_inward_shell_volume,
)
from sampling import region_source, table

E2 = EuclideanNorm(2)
E3 = EuclideanNorm(3)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
DQ = DualNorm(Q2)
UNIT_DISK = Ellipsoid(np.eye(2), np.zeros(2))


@pytest.fixture(scope="module")
def disk_field_512():
    src = boundary_source([UNIT_DISK], 2048, region="complement")
    grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=512)
    return build_field(src, E2, grid)


@pytest.fixture(scope="module")
def wulff_field_512():
    body = WulffBody(DQ, np.zeros(2), 1.0)
    src = boundary_source([body], 4096, region="complement")
    grid = GridSpec(lo=[-2.3, -1.3], hi=[2.3, 1.3], cells=[512, 290])
    return build_field(src, Q2, grid), body


def test_tube_volume_inward_annulus(disk_field_512):
    t = np.array([0.25, 0.5, 0.75])
    curve = tube_volumes(disk_field_512, t)
    exact = disk_inward_tube_area(1.0, t)
    assert np.abs(curve.volume - exact).max() < 4e-3
    assert curve.volume[1] == pytest.approx(np.pi * 0.75, abs=4e-3)


def test_tube_volume_outward_disk():
    src = region_source([UNIT_DISK], 2048, "set")
    grid = GridSpec(lo=[-1.8, -1.8], hi=[1.8, 1.8], cells=512)
    field = build_field(src, E2, grid)
    t = np.array([0.25, 0.5])
    curve = tube_volumes(field, t)
    exact = disk_outward_tube_area(1.0, t)
    assert np.abs(curve.volume - exact).max() < 8e-3
    assert curve.volume[1] == pytest.approx(2 * np.pi * 0.5 + np.pi * 0.25, abs=8e-3)


def test_tube_volume_monotone(disk_field_512):
    t = np.linspace(0.05 * 0.95, 0.95 * 0.95, 40)
    curve = tube_volumes(disk_field_512, t)
    assert np.all(np.diff(curve.volume) >= 0)


def test_tube_truncation_guard():
    src = region_source([UNIT_DISK], 2048, "set")
    grid = GridSpec(lo=[-1.4, -1.4], hi=[1.4, 1.4], cells=256)
    field = build_field(src, E2, grid)
    with pytest.raises(TruncationError):
        tube_volumes(field, np.array([0.6]))
    with pytest.raises(InputError):
        tube_volumes(field, np.array([0.2, 0.1]))


@pytest.mark.parametrize("t", [[np.nan], [0.1, np.nan], [np.nan, 0.1]])
def test_nan_tube_radii_refused(disk_field_512, t):
    # NaN failed both "<= 0" tests, so a NaN radius got a volume
    with pytest.raises(InputError, match="positive and strictly increasing"):
        tube_volumes(disk_field_512, t)


def test_disk_fit_matches_annulus_polynomial(disk_field_512):
    curve = tube_volumes(disk_field_512, default_t_grid(1.0))
    fit = fit_polynomial(curve, 2)
    assert fit.residual <= 1e-2
    assert fit.coefficients[0] == pytest.approx(2 * np.pi, rel=5e-3)
    assert fit.coefficients[1] == pytest.approx(-np.pi, rel=2e-2)


def test_wulff_fit_matches_conjugate_ball_polynomial(wulff_field_512):
    field, _ = wulff_field_512
    curve = tube_volumes(field, default_t_grid(1.0))
    fit = fit_polynomial(curve, 2)
    # V(t) = 2 pi (1 - (1-t)^2) = 4 pi t - 2 pi t^2 for the diag(4,1) ball
    assert fit.residual <= 1e-2
    assert fit.coefficients[0] == pytest.approx(4 * np.pi, rel=5e-3)
    assert fit.coefficients[1] == pytest.approx(-2 * np.pi, rel=2e-2)


def test_fit_refuses_a_curve_without_volume():
    # the relative residual of an all-zero curve was 0/0, a NaN in report.json
    curve = TubeCurve(t=np.linspace(1e-5, 9e-5, 40), volume=np.zeros(40))
    with pytest.raises(InputError, match="largest tube radius 9e-05"):
        fit_polynomial(curve, 2)


def test_far_disjoint_disks_coefficients_add():
    # each disk's inward tube lies in that disk, where the other boundary is
    # further than the tube reaches, so the union's tube volume is the sum of
    # the two fields' on one grid
    grid = GridSpec(lo=[-4.3, -1.3], hi=[4.3, 1.3], cells=[688, 208])
    t = default_t_grid(1.0)
    curves = [
        tube_volumes(build_field(boundary_source([disk], 2048), E2, grid), t)
        for disk in (Ellipsoid(np.eye(2), [-3.0, 0.0]), Ellipsoid(np.eye(2), [3.0, 0.0]))
    ]
    fit = fit_polynomial(TubeCurve(t, curves[0].volume + curves[1].volume), 2)
    assert fit.coefficients[0] == pytest.approx(2 * 2 * np.pi, rel=5e-3)
    assert fit.coefficients[1] == pytest.approx(2 * -np.pi, rel=2e-2)


def test_claim5_disk():
    c = claim5_coefficients(table(UNIT_DISK, E2, 4096))
    assert c == pytest.approx([2 * np.pi, -np.pi], rel=1e-10)


def test_claim5_wulff():
    body = WulffBody(DQ, np.zeros(2), 1.0)
    c = claim5_coefficients(table(body, Q2, 4096))
    assert c == pytest.approx([4 * np.pi, -2 * np.pi], rel=1e-10)


def test_claim5_sphere_matches_inward_shell():
    R = 2.0
    ball = Ellipsoid(np.eye(3) / R**2, np.zeros(3))
    c = claim5_coefficients(table(ball, E3, (64, 128)))
    # exact inward shell: (4 pi / 3)(R^3 - (R-t)^3) = 4 pi R^2 t - 4 pi R t^2 + (4 pi/3) t^3
    assert c == pytest.approx([4 * np.pi * R**2, -4 * np.pi * R, 4 * np.pi / 3], rel=1e-9)
    for t in (0.3, 0.9):
        poly = c[0] * t + c[1] * t**2 + c[2] * t**3
        assert poly == pytest.approx(sphere_inward_shell_volume(R, t), rel=1e-9)


def test_claim5_top_coefficient_off_umbilic_3d():
    # Gauss-Bonnet: the integral of kappa_1 kappa_2 over any convex boundary is
    # 4 pi, so the cubic coefficient is 4 pi / 3 on an ellipsoid as on a ball
    ellipsoid = Ellipsoid(np.diag([1 / 2.0**2, 1.0, 1 / 1.5**2]), np.zeros(3))
    c = claim5_coefficients(table(ellipsoid, E3, (96, 192)))
    assert c[2] == pytest.approx(4 * np.pi / 3, rel=1e-4)


def test_fit_agrees_with_claim5(disk_field_512, wulff_field_512):
    for field, body, f in (
        (disk_field_512, UNIT_DISK, E2),
        (wulff_field_512[0], wulff_field_512[1], Q2),
    ):
        curve = tube_volumes(field, default_t_grid(1.0))
        fit = fit_polynomial(curve, 2)
        ref = claim5_coefficients(table(body, f, 4096))
        verdict = positive_reach_test(fit, ref)
        assert verdict.consistent
        assert verdict.coefficient_agreement.max() <= 0.02


def test_positive_reach_verdicts(disk_field_512):
    curve = tube_volumes(disk_field_512, default_t_grid(0.8))
    fit = fit_polynomial(curve, 2)
    # the inward tube of the unit disk: V(t) = 2 pi t - pi t^2
    reference = np.array([2 * np.pi, -np.pi])
    good = positive_reach_test(fit, reference)
    assert good.consistent and good.verdict.startswith("consistent-with-reach")
    assert good.coefficient_agreement.max() <= 0.02
    # a tube that stops growing halfway, as past the reach, is no polynomial
    flat = TubeCurve(curve.t, np.minimum(curve.volume, curve.volume[len(curve.t) // 2]))
    bad_fit = fit_polynomial(flat, 2)
    bad = positive_reach_test(bad_fit, reference)
    assert bad_fit.residual > 1e-2
    assert not bad.consistent and bad.verdict == "polynomial-fit-rejected"


@pytest.fixture(scope="module")
def kidney_field():
    d1 = Ellipsoid(np.eye(2), [-0.55, 0.0])
    d2 = Ellipsoid(np.eye(2), [0.55, 0.0])
    src = region_source([d1, d2], 4096, "complement")
    grid = GridSpec(lo=[-1.75, -1.25], hi=[1.75, 1.25], cells=[448, 320])
    return build_field(src, E2, grid)


def test_nonconvex_residual_spikes_past_reach(kidney_field, disk_field_512):
    reach = estimate_reach_F(kidney_field)
    below = fit_polynomial(tube_volumes(kidney_field, default_t_grid(0.95 * reach)), 2)
    beyond = fit_polynomial(tube_volumes(kidney_field, default_t_grid(1.25)), 2)
    floor = fit_polynomial(tube_volumes(disk_field_512, default_t_grid(1.0)), 2)
    assert beyond.residual > 10 * floor.residual
    assert beyond.residual > 10 * below.residual


def test_residual_monotone_past_reach(kidney_field):
    reach = estimate_reach_F(kidney_field)
    residuals = []
    for hi in (0.95 * reach, 1.1, 1.25):
        fit = fit_polynomial(tube_volumes(kidney_field, default_t_grid(hi)), 2)
        residuals.append(fit.residual)
    assert residuals[0] < residuals[1] < residuals[2]


def test_residual_shrinks_under_grid_refinement():
    src = boundary_source([UNIT_DISK], 4096, region="complement")
    residuals = []
    for cells in (128, 512):
        grid = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=cells)
        field = build_field(src, E2, grid)
        fit = fit_polynomial(tube_volumes(field, default_t_grid(1.0)), 2)
        residuals.append(fit.residual)
    assert residuals[1] < residuals[0] / 1.5


def test_fit_needs_enough_samples(disk_field_512):
    curve = tube_volumes(disk_field_512, np.array([0.2, 0.3, 0.4]))
    with pytest.raises(InputError):
        fit_polynomial(curve, 2)
    with pytest.raises(InputError):
        fit_polynomial(curve, 0)
