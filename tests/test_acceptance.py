"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else; oracle values are computed by
the independent routines in oracles.py before being asserted.
"""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np

from wulffkit import (
    DualNorm,
    Ellipsoid,
    EuclideanNorm,
    GridSpec,
    PolynomialField,
    QuadraticNorm,
    WulffBody,
    boundary_source,
    build_field,
    claim5_coefficients,
    criticality_residual,
    curvature_table,
    default_t_grid,
    estimate_reach_F,
    first_variation,
    fit_polynomial,
    flow_energy_derivative,
    hk_evaluate,
    perimeter_F,
    reach_comparison,
    sample_surface,
    tube_volumes,
)
from wulffkit.cli import run

from oracles import ellipse_hk_ratio
from sampling import region_source, table, tables

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
# the outputs of `all` on each shipped scene, by scripts/shipped_outputs.py
SHIPPED = Path(__file__).resolve().parent / "shipped"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


shipped_outputs, diff_reports = _script("shipped_outputs"), _script("diff_reports")

E2 = EuclideanNorm(2)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
DQ = DualNorm(Q2)


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def _moved_outputs(name, out):
    """A line per output file of `all` on scene ``name`` under ``out`` whose
    bytes are not those scripts/shipped_outputs.py recorded, then
    scripts/diff_reports.py's lines against the recorded report.json; no
    lines when every file matches."""
    want = json.loads((SHIPPED / "manifest.json").read_text())[name]
    got = shipped_outputs.digests(out)
    files = sorted(want.keys() | got.keys())
    moved = [f"{rel} moved" for rel in files if want.get(rel) != got.get(rel)]
    if not moved:
        return []
    old, new = (json.loads((d / "report.json").read_text()) for d in (SHIPPED / name, out))
    return moved + diff_reports.diff_values(old, new, f"{name}/report.json")


def test_criterion_1_duality_suite():
    start = time.perf_counter()
    theta = np.arange(360) * (2 * np.pi / 360)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    iterative = Q2.value(DQ._polar_minimize(dirs)[0])
    closed = np.sqrt(np.einsum("ni,ij,nj->n", dirs, np.linalg.inv(Q2.matrix), dirs))
    err_conj = np.abs(iterative - closed).max()
    assert err_conj <= 1e-6

    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 2)) * 2.0
    x = x[np.linalg.norm(x, axis=1) > 1e-6]
    err_unit = np.abs(DQ.batch_value(Q2.grad(x)) - 1.0).max()
    assert err_unit <= 1e-8
    u = x / Q2.value(x)[:, None]
    err_inv = np.linalg.norm(DQ.batch_grad(Q2.grad(u)) - u, axis=1).max()
    assert err_inv <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        "1 duality",
        f"conjugate err {err_conj:.2e} <= 1e-6, unit level {err_unit:.2e}, "
        f"inverse {err_inv:.2e} <= 1e-8, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_wulff_constant_curvature():
    start = time.perf_counter()
    worst2 = 0.0
    for r in (0.5, 1.0, 3.0):
        body = WulffBody(DQ, np.zeros(2), r)
        table = curvature_table(body, Q2, sample_surface(body, 2048))
        worst2 = max(worst2, float(np.abs(table.kappa - 1.0 / r).max()))
    assert worst2 <= 1e-4

    worst3 = 0.0
    for f in (EuclideanNorm(3), QuadraticNorm(np.diag([4.0, 1.0, 1.0]))):
        body = WulffBody(DualNorm(f), np.zeros(3), 1.0)
        table = curvature_table(body, f, sample_surface(body, (64, 128)))
        worst3 = max(worst3, float(np.abs(table.kappa - 1.0).max()))
    assert worst3 <= 1e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "2 curvature",
        f"d2 max|k-1/r| {worst2:.2e} <= 1e-4, d3 {worst3:.2e} <= 1e-3, {elapsed:.2f}s < 30s",
    )


def test_criterion_3_hk_equality_and_chain():
    single = hk_evaluate(tables([WulffBody(DQ, np.zeros(2), 1.0)], Q2, 4096))
    union = hk_evaluate(
        tables(
            [WulffBody(DQ, np.array([-2.8, 0.0]), 1.0), WulffBody(DQ, np.array([2.8, 0.0]), 1.3)],
            Q2,
            4096,
        ),
    )
    gaps = []
    for rep in (single, union):
        assert abs(rep.ratio - 1.0) <= 1e-3
        rhs = 0.5 * rep.integral
        assert rep.vol <= rep.mr_integral * (1 + 1e-3)
        assert rep.mr_integral <= rhs * (1 + 1e-3)
        gaps.append(abs(rep.ratio - 1.0))
    _report(
        "3 hk equality",
        f"|ratio-1| single {gaps[0]:.2e}, union {gaps[1]:.2e} <= 1e-3; chain within 1e-3",
    )


def test_criterion_4_hk_strictness():
    ellipse = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    rep = hk_evaluate(tables([ellipse], E2, 4096))
    oracle = ellipse_hk_ratio(2.0, 1.0)
    assert rep.ratio <= 1.0 - 0.01
    assert abs(rep.ratio - oracle) <= 1e-3
    _report(
        "4 hk strictness",
        f"ratio {rep.ratio:.6f} <= 0.99, |ratio - oracle {oracle:.6f}| = "
        f"{abs(rep.ratio - oracle):.2e} <= 1e-3",
    )


def test_criterion_5_steiner_fits():
    disk = Ellipsoid(np.eye(2), np.zeros(2))
    wulff = WulffBody(DQ, np.zeros(2), 1.0)
    results = {}
    for name, body, f, grid in (
        ("disk", disk, E2, GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=512)),
        ("wulff", wulff, Q2, GridSpec(lo=[-2.3, -2.3], hi=[2.3, 2.3], cells=512)),
    ):
        src = boundary_source([body], 4096, region="complement")
        field = build_field(src, f, grid)
        curve = tube_volumes(field, default_t_grid(1.0))
        fit = fit_polynomial(curve, 2)
        ref = claim5_coefficients(table(body, f, 4096))
        agreement = np.abs(fit.coefficients - ref) / np.abs(ref).max()
        assert fit.residual <= 1e-2
        assert agreement.max() <= 0.02
        results[name] = (fit.residual, agreement.max())

    d1 = Ellipsoid(np.eye(2), [-0.55, 0.0])
    d2 = Ellipsoid(np.eye(2), [0.55, 0.0])
    src = region_source([d1, d2], 4096, "complement")
    grid = GridSpec(lo=[-1.75, -1.25], hi=[1.75, 1.25], cells=[448, 320])
    field = build_field(src, E2, grid)
    reach = estimate_reach_F(field)
    beyond = fit_polynomial(tube_volumes(field, default_t_grid(1.25)), 2)
    floor = max(r for r, _ in results.values())
    assert beyond.residual > 10 * floor
    _report(
        "5 steiner",
        f"residuals {results['disk'][0]:.2e}/{results['wulff'][0]:.2e} <= 1e-2, "
        f"coeff agreement <= 2%, non-convex spike {beyond.residual:.2e} > 10x floor "
        f"(measured reach {reach:.3f})",
    )


def test_criterion_6_reach():
    wulff = WulffBody(DQ, np.zeros(2), 1.0)
    src = boundary_source([wulff], 2048, region="complement")
    grid = GridSpec(lo=[-2.2, -1.2], hi=[2.2, 1.2], cells=[440, 240])
    field_f = build_field(src, Q2, grid)
    reach = estimate_reach_F(field_f)
    assert abs(reach - 1.0) <= 2 * grid.h

    comparisons = []
    field_e = build_field(src, E2, grid)
    comparisons.append(("wulff", reach_comparison(field_e, field_f)))
    disk = Ellipsoid(np.eye(2), np.zeros(2))
    src_d = boundary_source([disk], 2048, region="complement")
    grid_d = GridSpec(lo=[-1.3, -1.3], hi=[1.3, 1.3], cells=256)
    fd = build_field(src_d, E2, grid_d)
    comparisons.append(("disk", reach_comparison(fd, fd)))
    ellipse = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    src_e = boundary_source([ellipse], 2048, region="complement")
    fe_f = build_field(src_e, Q2, grid)
    fe_e = build_field(src_e, E2, grid)
    comparisons.append(("ellipse", reach_comparison(fe_e, fe_f)))
    assert all(cmp_.ok for _, cmp_ in comparisons)
    _report(
        "6 reach",
        f"wulff reach {reach:.4f} within 2h of 1, rolling-ball bound holds on "
        f"{', '.join(name for name, _ in comparisons)}",
    )


def test_criterion_7_variation():
    ellipse = Ellipsoid(np.diag([0.25, 1.0]), np.zeros(2))
    wulff = WulffBody(DQ, np.zeros(2), 1.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for body, f in ((ellipse, E2), (wulff, Q2)):
        quad = sample_surface(body, 4096)
        table = curvature_table(body, f, quad)
        h = 1e-4 * 2 * quad.rho.max()
        for _ in range(10):
            g = PolynomialField.random(rng, 2, 0.4)
            fv = first_variation(table, g)
            flow = flow_energy_derivative(quad, f, g, h)
            worst = max(worst, abs(fv - flow))
    assert worst <= 1e-4

    qw = sample_surface(wulff, 4096)
    p_f = perimeter_F(qw, Q2)
    fields = [PolynomialField.random(rng, 2, 0.5) for _ in range(10)]
    crit = criticality_residual(curvature_table(wulff, Q2, qw), fields)
    worst_crit = max(abs(res.residual) for res in crit)
    assert worst_crit <= 1e-3 * p_f

    shear = PolynomialField.linear(np.diag([1.0, -1.0]))
    qe = sample_surface(ellipse, 4096)
    [shear_res] = criticality_residual(curvature_table(ellipse, E2, qe), [shear])
    assert abs(shear_res.residual) > 0.1
    _report(
        "7 variation",
        f"|fv - flow| {worst:.2e} <= 1e-4, wulff residual {worst_crit:.2e} <= "
        f"1e-3*P_F, shear residual {abs(shear_res.residual):.3f} > 0.1",
    )


def test_criterion_8_end_to_end_classification(tmp_path):
    start = time.perf_counter()
    expected = {
        "wulff_d2": ("wulff-union", [("w1", [0.0, 0.0], 1.0)]),
        "ball_d2": ("wulff-union", [("ball", [0.4, -0.2], 2.0)]),
        "two_wulff_d2": (
            "wulff-union",
            [("w1", [-2.8, 0.0], 1.0), ("w2", [2.8, 0.3], 1.3)],
        ),
        "ellipse_d2": ("strict", []),
        "superellipse_d2": ("strict", []),
        "wulff_d3": ("wulff-union", [("w3", [0.0, 0.0, 0.0], 1.0)]),
        # two Wulff balls whose closures touch on a node of both
        "tangent_wulff_d2": (
            "wulff-union",
            [("w1", [0.0, 0.0], 1.0), ("w2", [3.999995293812345, 0.0030679585677709387], 1.0)],
        ),
    }
    # every shipped scene runs end to end
    assert sorted(expected) == sorted(p.stem for p in SCENES.glob("*.json"))
    summary = []
    for name, (want_verdict, want_bodies) in expected.items():
        out = tmp_path / name
        code = run("all", SCENES / f"{name}.json", out)
        assert code == 0, f"{name} exited {code}"
        moved = _moved_outputs(name, out)
        assert not moved, "\n".join([f"{name}: outputs differ from tests/shipped", *moved])
        report = json.loads((out / "report.json").read_text())
        metrics = {s["name"]: s["metrics"] for s in report["suites"]}
        verdict = metrics["hk"]["class_verdict"]
        assert verdict == want_verdict, f"{name}: {verdict} != {want_verdict}"
        if want_verdict == "strict":
            umb = [v["verdict"] for k, v in metrics["curv"].items() if k.startswith("umbilicity")]
            assert umb == ["not-umbilical"]
        if want_bodies:
            equal = len({radius for _, _, radius in want_bodies}) == 1
            assert metrics["hk"]["equal_radii"] is equal, f"{name}: equal_radii"
        for idx, (bid, center, radius) in enumerate(want_bodies):
            got_c = np.asarray(metrics["hk"]["centers"][idx])
            got_r = metrics["hk"]["radii"][idx]
            assert np.linalg.norm(got_c - np.asarray(center)) <= 1e-3
            assert abs(got_r - radius) <= 1e-3
        summary.append(f"{name}:{verdict}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("8 end-to-end", f"{'; '.join(summary)}; {elapsed:.1f}s < 300s")
