"""Named verification suites executed by the CLI batch runner.

Each suite runs a bundle of identity and inequality checks at the scene's
resolutions, writes CSV tables next to the JSON report, and contributes a
pass/fail entry; the runner's exit code encodes the first failing suite.
Every suite carries a ``verifies`` slug naming the mathematical property
it exercises, as machine-checkable report metadata.

A body enters every boundary check as its curvature table, which carries
the body's sample and the scene integrand, so the suites pass the table
alone to the library's public routines.  ``run_suites`` hands a run's
suites to ``fanout._fan_out`` once the RunCache holds every product they
read (``READS``), or the refusal of the product.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distance as dist
from . import steiner as st
from .curvature import curvature_table, umbilicity_classify
from .duality import wulff_sample
from .errors import WulffkitError
from .fanout import _fan_out
from .hk import equality_classifier, hk_evaluate
from .hypersurface import WulffBody, perimeter_F, sample_surface
from .integrand import EuclideanNorm
from .scene import SUITE_ORDER, Scene
from .spheregrid import circle_quadrature
from .table import write_csv
from .variation import PolynomialField, criticality_residual, first_variation

__all__ = ["SUITE_ORDER", "run_suite", "run_suites", "SuiteResult", "RunCache"]

VERIFIES = {
    "dual": "conjugate-norm-duality-identities",
    "wulff": "wulff-boundary-gauss-map-inversion",
    "curv": "anisotropic-curvature-and-umbilicity",
    "hk": "volume-vs-curvature-integral-inequality",
    "mr": "normal-flow-tube-volume-bound",
    "steiner": "tube-polynomial-positive-reach",
    "reach": "anisotropic-reach-rolling-ball-bound",
    "var": "first-variation-and-criticality",
}

# the RunCache products each suite reads: "table" is a body's curvature
# table, "field" its complement source and scene-integrand field.
# The reach suite's Euclidean field is left out on purpose: built in the
# worker, it overlaps the other suites, and warming it measured slower
READS = {
    "curv": ("table", "umbilicity"),
    "hk": ("table", "umbilicity", "hk"),
    "mr": ("table", "hk"),
    "steiner": ("table", "field"),
    "reach": ("table", "field"),
    "var": ("table",),
}


@dataclass
class SuiteResult:
    name: str
    verifies: str
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    skipped: bool = False
    skip_reason: str = ""

    def check(self, name: str, value: float, tol: float):
        value = float(value)
        passed = value <= tol
        self.checks.append(
            {"name": name, "value": value, "tol": float(tol), "passed": bool(passed)}
        )
        return passed

    def flag(self, name: str, ok: bool):
        self.checks.append(
            {"name": name, "value": 1.0 if ok else 0.0, "tol": 1.0, "passed": bool(ok)}
        )
        return ok

    @property
    def passed(self) -> bool:
        return self.skipped or all(c["passed"] for c in self.checks)


class RunCache:
    """Curvature tables, umbilicity fits, the Heintze-Karcher report,
    complement sources and distance fields of one run's scene, each built
    once.  A product whose build refuses keeps its ``WulffkitError``, and
    every later read raises it again without building anew.

    A run creates one, passes it to every suite and drops it when it returns.
    """

    def __init__(self, scene: Scene):
        self.scene = scene
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            try:
                self._built[key] = build()
            except WulffkitError as exc:
                self._built[key] = exc
        built = self._built[key]
        if isinstance(built, WulffkitError):
            raise built
        return built

    def table(self, body):
        """Curvature table of ``body``'s sample at the scene resolution."""
        return self._once(
            body,
            lambda: curvature_table(
                body, self.scene.integrand, sample_surface(body, self.scene.resolution)
            ),
        )

    def umbilicity(self, body):
        """Constant-curvature / Wulff-ball fit of ``body``'s sample."""
        return self._once(("umbilicity", body), lambda: umbilicity_classify(self.table(body)))

    def hk(self):
        """Heintze-Karcher report of the scene's bodies, one row per body."""
        return self._once(
            "hk", lambda: hk_evaluate([self.table(body) for _, body in self.scene.bodies])
        )

    def complement_source(self, body):
        """Boundary sample of the closure of the outside of ``body``."""

        def build():
            resolution = self.scene.steiner.get("source_resolution")
            if resolution is None:
                resolution = _steiner_source_resolution(self.scene, self.table(body).quad)
            return dist.boundary_source([body], resolution, region="complement")

        return self._once(("source", body), build)

    def complement_field(self, body, f):
        """Distance field under ``f`` to the closure of the outside of ``body``."""

        def build():
            return dist.build_field(self.complement_source(body), f, self.scene.grid)

        return self._once((body, f), build)

    def warm(self, names):
        """Build every product the suites ``names`` read (``READS``)."""
        reads = {product for name in names for product in READS.get(name, ())}
        bodies = [body for _, body in self.scene.bodies]
        for body in bodies:
            if "table" in reads:
                self.table(body)
            if "umbilicity" in reads:
                self.umbilicity(body)
        if "hk" in reads and bodies:
            self.hk()
        if "field" in reads and not _no_field(self.scene):
            for body in bodies:
                self.complement_field(body, self.scene.integrand)


def _rng(scene: Scene, salt: int):
    return np.random.default_rng([scene.seed, salt])


def _random_points(rng, dim, count):
    pts = rng.standard_normal((count, dim))
    norms = np.linalg.norm(pts, axis=1)
    return pts[norms > 1e-6]


def _wulff_bodies(scene: Scene):
    return [(bid, b) for bid, b in scene.bodies if isinstance(b, WulffBody)]


def suite_dual(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("dual", VERIFIES["dual"])
    f = scene.integrand
    dual = scene.dual
    rng = _rng(scene, 1)
    x = _random_points(rng, f.dim, 1000)

    fx = f.value(x)
    gx = f.grad(x)
    res.check(
        "euler_identity",
        np.abs(np.einsum("ni,ni->n", x, gx) - fx).max() / fx.min(),
        1e-12,
    )
    res.check("unit_level_Fstar_of_G", np.abs(dual.batch_value(gx) - 1.0).max(), 1e-8)
    u = x / fx[:, None]
    res.check(
        "inverse_pair_Gstar_after_G",
        np.linalg.norm(dual.batch_grad(f.grad(u)) - u, axis=1).max(),
        1e-8,
    )

    if f.dim == 2:
        dirs = circle_quadrature(360)[0]
    else:
        dirs = _random_points(_rng(scene, 11), f.dim, 360)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    if dual.has_closed_form:
        iterative = f.value(dual._polar_minimize(dirs))
        closed = dual.batch_value(dirs)
        res.check(
            "iterative_vs_closed_form", np.abs(iterative - closed).max(), 1e-6
        )
        write_csv(out / "dual.csv", w=dirs, Fstar=closed, Fstar_iterative=iterative)
    elif f.dim == 2:
        # the inscribed Wulff polygon of the distance layer against Newton
        ratio = dual.batch_value_fast(dirs) / dual.batch_value(dirs)
        res.check("polygon_vs_newton", np.abs(ratio - 1.0).max(), 1e-6)

    pairs = _random_points(rng, f.dim, 400).reshape(-1, 2, f.dim)
    a, b = pairs[:, 0], pairs[:, 1]
    if f.dim == 2:
        cross = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    else:
        cross = np.linalg.norm(np.cross(a, b), axis=1)
    keep = cross > 1e-9
    sub = dual.batch_value(a[keep] + b[keep])
    parts = dual.batch_value(a[keep]) + dual.batch_value(b[keep])
    res.flag("strict_triangle_inequality", bool(np.all(sub < parts)))
    res.metrics["points"] = int(len(x))
    return res


def suite_wulff(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("wulff", VERIFIES["wulff"])
    dual = scene.dual
    bodies = _wulff_bodies(scene) or [
        ("unit", WulffBody(dual=dual, center=np.zeros(scene.dim), radius=1.0))
    ]
    # a fixed 3D grid: each node costs a conjugate solve
    resolution = scene.resolution if scene.dim == 2 else (44, 88)
    worst_radius, worst_gauss = 0.0, 0.0
    r_max = max(body.radius for _, body in bodies)
    for bid, body in bodies:
        ws = wulff_sample(dual, body.center, body.radius, resolution)
        r_err = np.abs(
            dual.batch_value(ws.points - body.center) - body.radius
        ).max()
        g_err = np.linalg.norm(
            scene.integrand.grad(ws.normals)
            - (ws.points - body.center) / body.radius,
            axis=1,
        ).max()
        worst_radius = max(worst_radius, float(r_err))
        worst_gauss = max(worst_gauss, float(g_err))
        write_csv(out / f"wulff_{bid}.csv", x=ws.points, nu=ws.normals)
    res.check("boundary_on_conjugate_sphere", worst_radius, 1e-10 * max(1.0, r_max))
    res.check("gauss_map_inversion", worst_gauss, 1e-8)
    res.metrics["bodies"] = [bid for bid, _ in bodies]
    return res


def suite_curv(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("curv", VERIFIES["curv"])
    kappa_tol = 1e-4 if scene.dim == 2 else 1e-3
    for bid, body in scene.bodies:
        table = cache.table(body)
        res.check(
            f"trace_vs_eigensum[{bid}]",
            np.abs(table.kappa.sum(axis=1) - table.mean).max()
            / (1.0 + np.abs(table.mean).max()),
            1e-8,
        )
        res.check(
            f"eta_on_unit_conjugate_sphere[{bid}]",
            np.abs(scene.dual.batch_value(table.eta) - 1.0).max(),
            1e-8,
        )
        umb = cache.umbilicity(body)
        res.metrics[f"umbilicity[{bid}]"] = {
            "verdict": umb.verdict,
            "lambda": umb.lam,
            "radius": umb.radius,
            "center": None if umb.center is None else list(umb.center),
            "dispersion": umb.dispersion,
        }
        if isinstance(body, WulffBody):
            res.check(
                f"wulff_constant_curvature[{bid}]",
                np.abs(table.kappa - 1.0 / body.radius).max(),
                kappa_tol,
            )
            res.flag(f"wulff_verdict[{bid}]", umb.verdict == "wulff")
            res.check(
                f"wulff_center_recovery[{bid}]",
                np.linalg.norm(umb.center - body.center),
                1e-3,
            )
            res.check(
                f"wulff_radius_recovery[{bid}]",
                abs(umb.radius - body.radius),
                1e-3,
            )
        write_csv(out / f"curv_{bid}.csv", x=table.quad.points, kappaF=table.kappa, H=table.mean)
    return res


def suite_hk(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("hk", VERIFIES["hk"])
    if not scene.bodies:
        res.skipped, res.skip_reason = True, "no bodies in scene"
        return res
    report = cache.hk()
    rhs = (scene.dim - 1) / scene.dim * report.integral
    res.check("ratio_at_most_one", report.ratio, 1.0 + 1e-3)
    res.check("volume_below_tube_integral", report.vol / report.mr_integral, 1.0 + 1e-3)
    res.check("tube_integral_below_rhs", report.mr_integral / rhs, 1.0 + 1e-3)
    c = scene.hk_c if scene.hk_c is not None else report.h_max
    umbilicity = [cache.umbilicity(body) for _, body in scene.bodies]
    verdict = equality_classifier(report, umbilicity, c)
    res.metrics.update(
        {
            "vol": report.vol,
            "integral": report.integral,
            "mr_integral": report.mr_integral,
            "ratio": report.ratio,
            "H_min": report.h_min,
            "H_max": report.h_max,
            "hk_verdict": report.verdict,
            "class_verdict": verdict.verdict,
            "failing_condition": verdict.failing_condition,
            "radii": [float(r) for r in verdict.radii],
            "centers": [list(map(float, c)) for c in verdict.centers],
            "equal_radii": verdict.equal_radii,
            "curvature_bound": c,
        }
    )
    return res


def suite_mr(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("mr", VERIFIES["mr"])
    if not scene.bodies:
        res.skipped, res.skip_reason = True, "no bodies in scene"
        return res
    n = scene.dim - 1
    for (bid, body), row in zip(scene.bodies, cache.hk().rows):
        mr = row.mr_integral
        rhs = n / (n + 1) * row.integral
        res.check(f"volume_below_tube_integral[{bid}]", row.vol / mr, 1.0 + 1e-3)
        res.check(f"tube_integral_below_rhs[{bid}]", mr / rhs, 1.0 + 1e-3)
        if isinstance(body, WulffBody):
            res.check(f"am_gm_tight_on_wulff[{bid}]", abs(mr - rhs) / rhs, 1e-6)
        res.metrics[f"mr[{bid}]"] = {"vol": row.vol, "mr": mr, "rhs": rhs}
    return res


def _steiner_source_resolution(scene: Scene, quad) -> int:
    """Nodes of a complement source denser than the grid spacing, from the
    Euclidean length of the boundary quadrature ``quad``."""
    length = perimeter_F(quad, EuclideanNorm(2))
    need = int(2 ** np.ceil(np.log2(max(64, 1.5 * length / scene.grid.h))))
    return max(need, 512)


def _no_field(scene: Scene) -> str:
    """Why the scene has no distance fields, or "" if it has them."""
    if scene.grid is None:
        return "scene has no grid"
    if scene.dim != 2:
        return f"sources are sampled curves; scene has d={scene.dim}"
    return ""


def suite_steiner(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("steiner", VERIFIES["steiner"])
    res.skip_reason = _no_field(scene)
    if res.skip_reason:
        res.skipped = True
        return res
    f = scene.integrand
    for bid, body in scene.bodies:
        field_ = cache.complement_field(body, f)
        reach = dist.estimate_reach_F(field_)
        r_ref = scene.steiner.get("reference_radius") or 0.95 * reach
        t = st.default_t_grid(
            r_ref,
            scene.steiner["lo_frac"],
            scene.steiner["hi_frac"],
            scene.steiner["samples"],
        )
        curve = st.tube_volumes(field_, t)
        fit = st.fit_polynomial(curve, scene.dim)
        reference = st.claim5_coefficients(cache.table(body))
        verdict = st.positive_reach_test(fit, reference)
        res.check(f"fit_residual[{bid}]", fit.residual, st.RESIDUAL_TOL)
        res.check(
            f"fit_vs_boundary_coefficients[{bid}]",
            float(verdict.coefficient_agreement.max()),
            0.02,
        )
        res.metrics[f"steiner[{bid}]"] = {
            "coefficients": [float(v) for v in fit.coefficients],
            "reference": [float(v) for v in reference],
            "residual": fit.residual,
            "reach_estimate": reach,
            "verdict": verdict.verdict,
        }
        write_csv(out / f"steiner_{bid}.csv", t=curve.t, volume=curve.volume)
    return res


def suite_reach(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("reach", VERIFIES["reach"])
    res.skip_reason = _no_field(scene)
    if res.skip_reason:
        res.skipped = True
        return res
    f = scene.integrand
    euclid = EuclideanNorm(scene.dim)
    h = scene.grid.h
    for bid, body in scene.bodies:
        field_f = cache.complement_field(body, f)
        field_e = cache.complement_field(body, euclid)
        cmp_ = dist.reach_comparison(field_e, field_f)
        res.flag(f"rolling_ball_bound[{bid}]", cmp_.ok)
        if isinstance(body, WulffBody):
            res.check(
                f"wulff_reach_equals_radius[{bid}]",
                abs(cmp_.reach_anisotropic - body.radius),
                2 * h,
            )
        res.metrics[f"reach[{bid}]"] = {
            "rho": cmp_.rho,
            "euclidean": cmp_.reach_euclidean,
            "anisotropic": cmp_.reach_anisotropic,
            "slack": cmp_.slack,
        }
    return res


def suite_var(scene: Scene, out: Path, cache: RunCache) -> SuiteResult:
    res = SuiteResult("var", VERIFIES["var"])
    rng = _rng(scene, 7)
    rows = []
    for bid, body in scene.bodies:
        table = cache.table(body)
        quad = table.quad
        p = float((table.f_normal * quad.weights).sum())  # perimeter_F(quad, f), bit for bit
        dilation = first_variation(table, PolynomialField.position(scene.dim))
        res.check(
            f"dilation_matches_perimeter[{bid}]", abs(dilation - (scene.dim - 1) * p) / p, 1e-6
        )

        worst_consistency = 0.0
        worst_pairing = 0.0
        fields = [PolynomialField.random(rng, scene.dim, scale=0.4) for _ in range(10)]
        for k, crit in enumerate(criticality_residual(table, fields)):
            fv = crit.first_variation
            worst_consistency = max(
                worst_consistency, abs(fv - crit.flow_derivative) / (1.0 + abs(fv))
            )
            paired = float((table.mean * crit.flux * quad.weights).sum())
            worst_pairing = max(worst_pairing, abs(fv - paired) / max(p, abs(fv)))
            rows.append((f"{bid}:{k}", crit.residual))
            if isinstance(body, WulffBody):
                res.check(f"wulff_criticality[{bid}:{k}]", abs(crit.residual), 1e-3 * p)
        res.check(f"variation_consistency[{bid}]", worst_consistency, 1e-4)
        res.check(f"mean_curvature_pairing[{bid}]", worst_pairing, 1e-3)
        res.metrics[f"perimeter[{bid}]"] = p
    with open(out / "var_residuals.csv", "w") as fh:
        fh.write("field_id,residual\n")
        for name, val in rows:
            fh.write(f"{name},{val!r}\n")
    return res


_SUITES = {
    "dual": suite_dual,
    "wulff": suite_wulff,
    "curv": suite_curv,
    "hk": suite_hk,
    "mr": suite_mr,
    "steiner": suite_steiner,
    "reach": suite_reach,
    "var": suite_var,
}


def run_suite(name: str, cache: RunCache, out: Path) -> SuiteResult:
    """Run one suite on the scene of ``cache``, the run's shared RunCache."""
    if name not in _SUITES:
        raise WulffkitError(f"unknown suite {name!r}")
    out.mkdir(parents=True, exist_ok=True)
    return _SUITES[name](cache.scene, out, cache)


def run_suites(names, cache: RunCache, out: Path) -> list:
    """The results of the suites ``names``, in order, on the scene of ``cache``.

    The cache first builds every product the suites read
    (``RunCache.warm``); a refusal there is kept in the cache, and the
    suite that reads the product raises it again.  The suites then go to
    ``fanout._fan_out``, which runs them in forked workers or in-process, in
    the order of ``names``.  A suite's WulffkitError comes back as its
    outcome, and the first one in that order is raised once every suite has
    ended; the CSVs of later suites may have been written by then.
    """
    with contextlib.suppress(WulffkitError):
        cache.warm(names)

    def outcome(name):
        try:
            return run_suite(name, cache, out)
        except WulffkitError as exc:
            return exc

    results = _fan_out(names, outcome)
    for result in results:
        if isinstance(result, WulffkitError):
            raise result
    return results
