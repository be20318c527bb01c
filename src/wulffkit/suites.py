"""Named verification suites executed by the CLI batch runner.

Each suite runs a bundle of identity and inequality checks at the scene's
resolutions, writes CSV tables next to the JSON report, and contributes a
pass/fail entry; the runner's exit code encodes the first failing suite.
Every suite carries a ``verifies`` slug naming the mathematical property
it exercises, as machine-checkable report metadata.

A body enters every boundary check as its curvature table, which carries
the body's sample and the scene integrand, so the suites pass the table
alone to the library's public routines.

``run_suites`` makes one ``fanout._fan_out`` per run, and runs the
scene body by body.  First, in the run's process, the RunCache plans
every distance field the suites read (``READS``): in 2D each body's table
and complement source, and the field's blocks.  The fan-out's items are
one per body, which builds that body's other products and runs its part
of ``curv`` and ``var`` (``_BODY_PARTS``), then ``dual`` and ``wulff``,
then every block of every field.  Last come one item per body and
field-reading suite, the body's part of ``steiner`` or ``reach``, which
waits for the blocks of its own fields that are still in flight
(``distance._FieldPlan.scan``), so a one-body scene's two readers run side
by side, and beside the blocks of other fields.  The caller merges the
parts in body order and runs ``hk`` and ``mr`` from the bodies' small
products.  No worker builds a product that another process built, and
where the items fork the caller reads no field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distance as dist
from . import steiner as st
from .curvature import curvature_table, umbilicity_classify
from .errors import InputError, WulffkitError
from .fanout import _fan_out
from .hk import equality_classifier, hk_report, hk_row, node_overlaps, refuse_overlaps
from .hypersurface import WulffBody, perimeter_F, sample_surface
from .integrand import EuclideanNorm
from .scene import SUITE_ORDER, Scene
from .spheregrid import circle_quadrature, sphere_quadrature
from .table import write_csv
from .variation import PolynomialField, criticality_residual, first_variation

__all__ = ["SUITE_ORDER", "run_suites", "SuiteResult", "RunCache"]

VERIFIES = {
    "dual": "conjugate-norm-duality-identities",
    "wulff": "wulff-boundary-on-conjugate-sphere",
    "curv": "anisotropic-curvature-and-umbilicity",
    "hk": "volume-vs-curvature-integral-inequality",
    "mr": "normal-flow-tube-volume-bound",
    "steiner": "tube-polynomial-positive-reach",
    "reach": "anisotropic-reach-rolling-ball-bound",
    "var": "first-variation-and-criticality",
}

# the RunCache products each suite reads: "table" is a body's curvature
# table, "hk" the HK report (per body, its node-rule flags and row), "field"
# its complement source and scene-integrand field, "euclidean" its
# complement field under the Euclidean norm
READS = {
    "curv": ("table", "umbilicity"),
    "hk": ("table", "umbilicity", "hk"),
    "mr": ("table", "hk"),
    "steiner": ("table", "field"),
    "reach": ("table", "field", "euclidean"),
    "var": ("table",),
}
# the suites that read a distance field, which run once its blocks are scanned
_READERS = tuple(name for name, reads in READS.items() if "field" in reads)


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
    """Curvature tables, umbilicity fits, node-rule flags, Heintze-Karcher
    rows and report, complement sources and distance fields of one run's
    scene, each built once.  A product whose build refuses keeps its
    ``WulffkitError``, and every later read raises it again without building
    anew.

    A run creates one, passes it to every suite and drops it when it
    returns.  Each body's item builds its products in the run's RunCache,
    or in a worker's copy of it, and the run's RunCache adopts the small
    ones.
    """

    def __init__(self, scene: Scene):
        self.scene = scene
        self._built = {}
        self.plans = []

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

    def _index(self, body) -> int:
        return next(k for k, (_, b) in enumerate(self.scene.bodies) if b is body)

    def overlaps(self, body):
        """``node_overlaps`` flags of ``body``'s boundary nodes under the
        scene's other bodies."""
        bodies = [b for _, b in self.scene.bodies]
        return self._once(
            ("overlaps", body),
            lambda: node_overlaps(self.table(body), bodies, self._index(body)),
        )

    def hk_row(self, body):
        """Heintze-Karcher row of ``body``."""
        return self._once(("hk_row", body), lambda: hk_row(self.table(body), self._index(body)))

    def hk(self):
        """Heintze-Karcher report of the scene's bodies, one row per body, from
        their node-rule flags and rows: ``hk_evaluate`` on the scene's tables,
        refusal for refusal."""

        def build():
            bodies = [body for _, body in self.scene.bodies]
            refuse_overlaps(bodies, [self.overlaps(body) for body in bodies])
            return hk_report([self.hk_row(body) for body in bodies], self.scene.dim)

        return self._once("hk", build)

    def complement_source(self, body):
        """Boundary sample of the closure of the outside of ``body``, at the
        scene's ``source_resolution``, or else at the automatic one, doubled
        until the sample's spacing is at most the grid h: rays at uniform
        angles space an elongated body's samples unevenly."""

        def build():
            resolution = self.scene.steiner.get("source_resolution")
            if resolution is not None:
                return dist.boundary_source([body], resolution)
            resolution = _steiner_source_resolution(self.scene, self.table(body).quad)
            source = dist.boundary_source([body], resolution)
            while source.spacing > self.scene.grid.h:
                resolution *= 2
                source = dist.boundary_source([body], resolution)
            return source

        return self._once(("source", body), build)

    def field_plan(self, body, f):
        """The plan (``distance._plan_field``) of the distance field under
        ``f`` to the closure of the outside of ``body``; ``plans`` lists every
        plan made, in the order they were made."""

        def build():
            plan = dist._plan_field(self.complement_source(body), f, self.scene.grid)
            self.plans.append(plan)
            return plan

        return self._once((body, f), build)

    def complement_field(self, body, f):
        """Distance field under ``f`` to the closure of the outside of
        ``body``: its plan's field, once every block of the plan that no item
        of the run scanned is scanned here, after the ones in flight
        (``_FieldPlan.scan``)."""
        return self._once(("field", body, f), lambda: self.field_plan(body, f).scan())

    def fields(self, names):
        """Plan every distance field the suites ``names`` read (``READS``):
        per body its complement source, its field under the scene integrand
        and, for ``reach``, under the Euclidean norm, with the body's table,
        which the field's readers read beside it.  A refusal is kept."""
        if _no_field(self.scene):
            return
        reads = {product for name in names for product in READS.get(name, ())}
        norms = {"field": self.scene.integrand, "euclidean": EuclideanNorm(self.scene.dim)}
        for product, f in norms.items():
            for _, body in self.scene.bodies:
                if product in reads:
                    _outcome(self.table, body)
                    _outcome(self.field_plan, body, f)


def _rng(scene: Scene, salt: int):
    return np.random.default_rng([scene.seed, salt])


def _random_points(rng, dim, count):
    pts = rng.standard_normal((count, dim))
    norms = np.linalg.norm(pts, axis=1)
    return pts[norms > 1e-6]


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
        iterative = dual._polar_minimize(dirs)[1]
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
    """Each Wulff body's boundary, or the unit F*-ball's in a scene without
    one, as the image of a sphere grid of normals under the body's
    Cahn-Hoffman map (``WulffBody.cahn_hoffman``), checked against F* with
    no solve behind the points; ``wulff_<id>.csv`` holds each node x and
    its normal nu."""
    res = SuiteResult("wulff", VERIFIES["wulff"])
    dual = scene.dual
    bodies = [(bid, b) for bid, b in scene.bodies if isinstance(b, WulffBody)] or [
        ("unit", WulffBody(dual=dual, center=np.zeros(scene.dim), radius=1.0))
    ]
    # a fixed 3D grid: each node costs a conjugate solve
    nu = sphere_quadrature(scene.dim, scene.resolution if scene.dim == 2 else (44, 88))[0]
    worst_radius = 0.0
    r_max = max(body.radius for _, body in bodies)
    for bid, body in bodies:
        x = body.cahn_hoffman(nu)
        r_err = np.abs(dual.batch_value(x - body.center) - body.radius).max()
        worst_radius = max(worst_radius, float(r_err))
        write_csv(out / f"wulff_{bid}.csv", x=x, nu=nu)
    res.check("boundary_on_conjugate_sphere", worst_radius, 1e-10 * r_max)
    res.metrics["bodies"] = [bid for bid, _ in bodies]
    return res


def _curv_body(scene: Scene, out: Path, cache: RunCache, k: int, res: SuiteResult):
    bid, body = scene.bodies[k]
    table = cache.table(body)
    res.check(
        f"trace_vs_eigensum[{bid}]",
        np.abs(table.kappa.sum(axis=1) - table.mean).max()
        / (1.0 + np.abs(table.mean).max()),
        1e-10,
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
            np.abs(table.kappa * body.radius - 1.0).max(),
            1e-10,
        )
        res.flag(f"wulff_verdict[{bid}]", umb.verdict == "wulff")
        # a fit that is not umbilical fails the verdict above, and has no
        # centre or radius to recover
        if umb.center is not None:
            # both read at most 9.3e-15 on the shipped Wulff scenes and on
            # weighted-2d and weighted-3d seeds 1-10, also at half resolution
            res.check(
                f"wulff_center_recovery[{bid}]",
                np.linalg.norm(umb.center - body.center),
                1e-10 * body.radius,
            )
            res.check(
                f"wulff_radius_recovery[{bid}]",
                abs(umb.radius - body.radius),
                1e-10 * body.radius,
            )
    write_csv(out / f"curv_{bid}.csv", x=table.quad.points, kappaF=table.kappa, H=table.mean)


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
    umbilicity = [cache.umbilicity(body) for _, body in scene.bodies]
    verdict = equality_classifier(report, umbilicity)
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
            "radii": [None if r is None else float(r) for r in verdict.radii],
            "centers": [None if c is None else list(map(float, c)) for c in verdict.centers],
            "equal_radii": verdict.equal_radii,
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
            # reads at most 2.9e-16 on the shipped Wulff scenes and on
            # weighted-2d and weighted-3d seeds 1-10, also at half resolution
            res.check(f"am_gm_tight_on_wulff[{bid}]", abs(mr - rhs) / rhs, 1e-10)
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


def _steiner_body(scene: Scene, out: Path, cache: RunCache, k: int, res: SuiteResult):
    bid, body = scene.bodies[k]
    field_ = cache.complement_field(body, scene.integrand)
    reach = dist.estimate_reach_F(field_)
    r_ref = scene.steiner.get("reference_radius") or 0.95 * reach
    curve = st.tube_volumes(field_, st.default_t_grid(r_ref))
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


def _reach_body(scene: Scene, out: Path, cache: RunCache, k: int, res: SuiteResult):
    bid, body = scene.bodies[k]
    field_f = cache.complement_field(body, scene.integrand)
    field_e = cache.complement_field(body, EuclideanNorm(scene.dim))
    cmp_ = dist.reach_comparison(field_e, field_f)
    res.flag(f"rolling_ball_bound[{bid}]", cmp_.ok)
    if isinstance(body, WulffBody):
        res.check(
            f"wulff_reach_equals_radius[{bid}]",
            abs(cmp_.reach_anisotropic - body.radius),
            2 * scene.grid.h,
        )
    res.metrics[f"reach[{bid}]"] = {
        "rho": cmp_.rho,
        "euclidean": cmp_.reach_euclidean,
        "anisotropic": cmp_.reach_anisotropic,
        "slack": cmp_.slack,
    }


def _var_body(scene: Scene, out: Path, cache: RunCache, k: int, res: SuiteResult):
    """Body k's checks; returns its var_residuals.csv rows."""
    bid, body = scene.bodies[k]
    # body k's fields are draws 10 k to 10 k + 9 of the suite's generator
    rng = _rng(scene, 7)
    fields = [PolynomialField.random(rng, scene.dim, scale=0.4) for _ in range(10 * (k + 1))]
    table = cache.table(body)
    quad = table.quad
    p = float((table.f_normal * quad.weights).sum())  # perimeter_F(quad, f), bit for bit
    dilation = first_variation(table, PolynomialField.position(scene.dim))
    res.check(
        f"dilation_matches_perimeter[{bid}]", abs(dilation - (scene.dim - 1) * p) / p, 1e-10
    )

    rows = []
    worst_consistency = 0.0
    worst_pairing = 0.0
    for j, crit in enumerate(criticality_residual(table, fields[10 * k :])):
        fv = crit.first_variation
        worst_consistency = max(
            worst_consistency, abs(fv - crit.flow_derivative) / (1.0 + abs(fv))
        )
        paired = float((table.mean * crit.flux * quad.weights).sum())
        worst_pairing = max(worst_pairing, abs(fv - paired) / max(p, abs(fv)))
        rows.append((f"{bid}:{j}", crit.residual))
        if isinstance(body, WulffBody):
            res.check(f"wulff_criticality[{bid}:{j}]", abs(crit.residual), 1e-3 * p)
    res.check(f"variation_consistency[{bid}]", worst_consistency, 1e-4)
    res.check(f"mean_curvature_pairing[{bid}]", worst_pairing, 1e-3)
    res.metrics[f"perimeter[{bid}]"] = p
    return rows


# the suites that run body by body; ``_SUITES`` maps each to its part for one
# body, which appends the body's checks and metrics to a SuiteResult and
# returns its rows of var_residuals.csv, if any
_BODY_PARTS = ("curv", "steiner", "reach", "var")


def _body_part(name: str, scene: Scene, out: Path, cache: RunCache, k: int):
    """Body k's checks, metrics and var_residuals.csv rows of suite ``name``."""
    res = SuiteResult(name, VERIFIES[name])
    rows = _SUITES[name](scene, out, cache, k, res)
    return res.checks, res.metrics, rows or []


def _merge(name: str, scene: Scene, out: Path, parts) -> SuiteResult:
    """Suite ``name`` from its per-body parts, in body order: a part that is a
    WulffkitError is raised, and var writes the rows of every part."""
    res = SuiteResult(name, VERIFIES[name])
    res.skip_reason = _no_field(scene) if name in _READERS else ""
    if res.skip_reason:
        res.skipped = True
        return res
    rows = []
    for part in parts:
        if isinstance(part, WulffkitError):
            raise part
        checks, metrics, body_rows = part
        res.checks += checks
        res.metrics.update(metrics)
        rows += body_rows
    if name == "var":
        with open(out / "var_residuals.csv", "w") as fh:
            fh.write("field_id,residual\n")
            for field_id, val in rows:
                fh.write(f"{field_id},{val!r}\n")
    return res


# every suite's runner by name: the whole suite, or for the ``_BODY_PARTS``
# its part for one body; each is looked up here as it runs, so
# perfbench/spans.py can wrap them all in traced runs
_SUITES = {
    "dual": suite_dual, "wulff": suite_wulff, "curv": _curv_body, "hk": suite_hk,
    "mr": suite_mr, "steiner": _steiner_body, "reach": _reach_body, "var": _var_body,
}


def _outcome(run, *args):
    """run(*args), or the WulffkitError it raises."""
    try:
        return run(*args)
    except WulffkitError as exc:
        return exc


def run_suites(names, scene: Scene, out: Path) -> list:
    """The results of the suites ``names``, in order, on ``scene``.

    The run makes one ``fanout._fan_out``.  Before it, this process plans
    every distance field the suites read (``RunCache.fields``: in 2D, each
    body's table and complement source with them).  The items are one per
    body, in body order, where ``curv``, ``hk``, ``mr`` or ``var`` runs,
    then ``dual`` and ``wulff``, then every block of every field, in plan
    order and row-major order, and last one per body and field reader, body
    by body.  A reader is claimed once every block has been claimed, and
    waits for the blocks of its own fields still in flight
    (``distance._FieldPlan.scan``).  A body's first item builds that body's
    other products in its copy of the RunCache and runs its part of
    ``curv`` and ``var``; it sends back those parts and the body's
    umbilicity fit, node-rule flags and HK row, which the run's RunCache
    adopts, so ``hk`` and ``mr`` run in this process without building a
    curvature table.  Each body's products are built once, in one process.

    A product that refuses keeps its refusal, and whatever reads it raises
    it again.  A block whose scan refuses refuses its field alone: the
    block's item returns the refusal, and each reader of the field scans
    the field's unscanned blocks again in its own process, in row-major
    order, so it raises the refusal of the field's first such block before
    it writes anything.  A suite's WulffkitError is its outcome, and the
    first one in the order of ``names`` (of one suite, the first in body
    order) is raised once every suite has ended; the CSVs of later suites,
    and of later bodies, may have been written by then.  An unknown name is
    refused before ``out`` is created, and an ``out`` that cannot be created
    is refused with an ``InputError``.
    """
    for name in names:
        if name not in SUITE_ORDER:
            raise WulffkitError(f"unknown suite {name!r}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc.strerror}") from None
    cache = RunCache(scene)
    cache.fields(names)
    free = [name for name in names if name not in _READERS]
    # a scene without fields skips the readers, which have no part to run
    readers = [name for name in names if name in _READERS and not _no_field(scene)]
    alone = [name for name in free if name in ("dual", "wulff")]
    n = len(scene.bodies)
    # a body's first item, where a suite reads the body's products
    firsts = n if any(name in READS for name in free) else 0
    items = [functools.partial(_body_item, cache, out, free, k) for k in range(firsts)]
    items += [functools.partial(_outcome, _SUITES[name], scene, out, cache) for name in alone]
    reading = [
        functools.partial(_body_item, cache, out, [name], k) for k in range(n) for name in readers
    ]
    blocks = [
        functools.partial(_outcome, plan.scan_block, k)
        for plan in cache.plans
        for k in range(len(plan.blocks))
    ]
    done = _fan_out(items + blocks + reading, lambda item: item())
    first, last = done[: len(items)], done[len(items) + len(blocks) :]
    finished = dict(zip(alone, first[firsts:]))
    parts = [{} for _ in range(n)]
    for (_, body), body_parts, (made, products) in zip(scene.bodies, parts, first[:firsts]):
        body_parts.update(made)
        cache._built.update({(key, body): value for key, value in products.items()})
    for j, (reader_parts, _) in enumerate(last):
        parts[j // len(readers)].update(reader_parts)
    results = []
    for name in names:
        if name in finished:
            results.append(finished[name])
        elif name in _BODY_PARTS:
            merged = [body_parts.get(name) for body_parts in parts]
            results.append(_outcome(_merge, name, scene, out, merged))
        else:
            results.append(_outcome(_SUITES[name], scene, out, cache))
    for result in results:
        if isinstance(result, WulffkitError):
            raise result
    return results


def _body_item(cache: RunCache, out: Path, names, k: int):
    """Body k's parts of the suites ``names`` that run body by body (each a
    WulffkitError where it refuses), and the products of the body that
    ``hk`` and ``mr`` read, by RunCache method, all read from ``cache``: the
    run's RunCache, or a worker's copy of it."""
    scene = cache.scene
    body = scene.bodies[k][1]
    parts = {
        name: _outcome(_body_part, name, scene, out, cache, k) for name in names if name in _BODY_PARTS
    }
    reads = {product for name in names for product in READS.get(name, ())}
    shipped = ["umbilicity"] * ("umbilicity" in reads) + ["overlaps", "hk_row"] * ("hk" in reads)
    for key in shipped:
        _outcome(getattr(cache, key), body)
    return parts, {key: cache._built[(key, body)] for key in shipped}
