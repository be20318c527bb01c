"""Heintze-Karcher inequality evaluation and Wulff-union rigidity classification.

For a body with everywhere positive anisotropic mean curvature H,

    vol <= mr <= n/(n+1) * integral of F(nu)/H over the boundary,

where the middle quantity is the tube (Montiel-Ros) integral obtained by
integrating the normal-flow Jacobian up to the first focal time.
``hk_evaluate`` computes the three terms once per body, as one ``HKRow``
each, and sums the rows in body order for the scene's totals.  One rule
holds for every caller: a node with H <= 0 violates the hypothesis and
raises ``HypothesisViolationError``.  Equality of the outer terms forces
every node to be umbilical and the body to be a Wulff ball; scenes of
disjoint bodies classify as "wulff-union" when the ratio is 1 within
tolerance, all nodes are umbilical, and every fitted radius clears n/c for
the supplied curvature bound c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curvature import CurvatureTable, UmbilicityReport
from .errors import HypothesisViolationError, InputError
from .hypersurface import SurfaceQuadrature, volume
from .integrand import Integrand

__all__ = [
    "HKRow",
    "HKReport",
    "hk_evaluate",
    "montiel_ros_integral",
    "equality_classifier",
    "ClassifierVerdict",
    "check_disjoint",
]


@dataclass(frozen=True, eq=False)
class HKRow:
    """One body's volume, integral of F(nu)/H, tube integral and H range."""

    vol: float
    integral: float
    mr_integral: float
    h_min: float
    h_max: float


@dataclass(frozen=True, eq=False)
class HKReport:
    """Per-body rows, their totals, the ratio and its verdict."""

    rows: tuple
    vol: float
    integral: float
    ratio: float
    h_min: float
    h_max: float
    mr_integral: float
    verdict: str
    tol_eq: float


def check_disjoint(sampled: Sequence[tuple]) -> None:
    """Reject a scene where some boundary node of one body lies in another.

    ``sampled`` holds (body, quadrature, curvature table) triples, as for
    ``hk_evaluate``; every node of each body must have phi > 0 under every
    other body, which also catches a body nested inside another.
    """
    for i, (_, quad, _) in enumerate(sampled):
        for j, (other, _, _) in enumerate(sampled):
            if i != j and np.any(other.sign(quad.points) <= 0):
                raise InputError(
                    f"bodies {i} and {j} are not disjoint (a boundary node of {i} "
                    f"lies in {j})"
                )


def montiel_ros_integral(
    quad: SurfaceQuadrature, table: CurvatureTable, f: Integrand
) -> float:
    """Montiel-Ros tube integral from complement-side principal curvatures.

    kappa_Q = -kappa (normal flipped into the body); the inner integral of
    prod(1 + t kappa_Q) runs to the first focal time T = -1/kappa_Q1 and is
    a degree-(n+1) polynomial evaluated in closed form.  A node whose
    largest curvature is nonpositive has no focal cut and raises.
    """
    kq = -table.kappa[:, ::-1]  # sorted ascending again after negation
    kq1 = kq[:, 0]
    if np.any(kq1 >= 0):
        i = int(np.argmax(kq1))
        raise HypothesisViolationError(
            f"node {i} at {quad.points[i]} has no positive curvature direction"
        )
    t_star = -1.0 / kq1
    n = kq.shape[1]
    if n == 1:
        inner = t_star + 0.5 * kq1 * t_star**2
    elif n == 2:
        e1 = kq[:, 0] + kq[:, 1]
        e2 = kq[:, 0] * kq[:, 1]
        inner = t_star + 0.5 * e1 * t_star**2 + e2 * t_star**3 / 3.0
    else:
        raise InputError("tube integral implemented for n in {1, 2}")
    return float((f.value(quad.normals) * quad.weights * inner).sum())


def hk_evaluate(sampled: Sequence[tuple], f: Integrand, tol_eq: float = 1e-3) -> HKReport:
    """Evaluate the volume vs curvature-integral ratio over disjoint bodies.

    ``sampled`` holds one (body, quadrature, curvature table) triple per
    body, the table computed with ``f`` on that quadrature; the report
    holds one row per body in that order.
    ratio = vol / (n/(n+1) * sum F(nu)/H w); the verdict is "equality" when
    |ratio - 1| <= tol_eq and "strict" otherwise.  Any node with H <= 0
    violates the positivity hypothesis and raises.
    """
    if not sampled:
        raise InputError("empty scene")
    dims = {quad.dim for _, quad, _ in sampled}
    if len(dims) != 1 or next(iter(dims)) != f.dim:
        raise InputError("bodies and integrand must share one dimension")
    if len(sampled) > 1:
        check_disjoint(sampled)
    n = f.dim - 1

    rows = []
    for k, (_, quad, table) in enumerate(sampled):
        if np.any(table.mean <= 0):
            i = int(np.argmin(table.mean))
            raise HypothesisViolationError(
                f"body {k} node {i} at {quad.points[i]} has H = {table.mean[i]:.3e} <= 0"
            )
        rows.append(
            HKRow(
                vol=volume(quad),
                integral=float((f.value(quad.normals) / table.mean * quad.weights).sum()),
                mr_integral=montiel_ros_integral(quad, table, f),
                h_min=float(table.mean.min()),
                h_max=float(table.mean.max()),
            )
        )

    vol = sum(r.vol for r in rows)
    integral = sum(r.integral for r in rows)
    ratio = vol / (n / (n + 1) * integral)
    return HKReport(
        rows=tuple(rows),
        vol=vol,
        integral=integral,
        ratio=ratio,
        h_min=min(r.h_min for r in rows),
        h_max=max(r.h_max for r in rows),
        mr_integral=sum(r.mr_integral for r in rows),
        verdict="equality" if abs(ratio - 1.0) <= tol_eq else "strict",
        tol_eq=tol_eq,
    )


@dataclass(frozen=True, eq=False)
class ClassifierVerdict:
    verdict: str
    failing_condition: Optional[str]
    radii: tuple
    centers: tuple
    equal_radii: Optional[bool]
    min_radius_bound: float


def equality_classifier(
    report: HKReport,
    umbilicity: Sequence[UmbilicityReport],
    c: float,
    tol_r: float = 0.02,
) -> ClassifierVerdict:
    """Decide "wulff-union" vs "strict" from the ratio, umbilicity, and radii.

    Requires |ratio - 1| <= tol_eq, every body umbilical with a clean ball
    fit, and every fitted radius >= n/c within the relative slack tol_r.
    Whether the radii are all equal is reported alongside (the equality case
    admits unequal radii as long as each clears n/c).
    """
    if not umbilicity:
        raise InputError("classifier needs at least one umbilicity report")
    if c < report.h_max * (1 - 1e-12):
        raise InputError(f"curvature bound c={c} is below the observed H_max={report.h_max}")
    radii = tuple(u.radius for u in umbilicity if u.radius is not None)
    centers = tuple(u.center for u in umbilicity if u.center is not None)

    failing = None
    if abs(report.ratio - 1.0) > report.tol_eq:
        failing = "ratio"
    elif any(u.verdict != "wulff" for u in umbilicity):
        failing = "umbilicity"

    bound = float("nan")
    if failing is None:
        n = len(centers[0]) - 1
        bound = n / c
        if any(r < bound * (1 - tol_r) for r in radii):
            failing = "radius-bound"

    equal = None
    if radii:
        equal = bool(max(radii) - min(radii) <= tol_r * max(radii))
    return ClassifierVerdict(
        verdict="wulff-union" if failing is None else "strict",
        failing_condition=failing,
        radii=radii,
        centers=centers,
        equal_radii=equal,
        min_radius_bound=bound,
    )
