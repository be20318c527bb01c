"""Heintze-Karcher inequality evaluation and Wulff-union rigidity classification.

For a body with everywhere positive anisotropic mean curvature H,

    vol <= mr <= n/(n+1) * integral of F(nu)/H over the boundary,

where the middle quantity is the tube (Montiel-Ros) integral obtained by
integrating the normal-flow Jacobian up to the first focal time.  Equality
of the outer terms forces every node to be umbilical and the body to be a
Wulff ball; scenes of disjoint bodies classify as "wulff-union" when the
ratio is 1 within tolerance, all nodes are umbilical, and every fitted
radius clears n/c for the supplied curvature bound c.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curvature import CurvatureTable, UmbilicityReport, umbilicity_classify
from .errors import HypothesisViolationError, InputError
from .hypersurface import SurfaceQuadrature, volume
from .integrand import Integrand

__all__ = [
    "HKReport",
    "hk_evaluate",
    "montiel_ros_integral",
    "equality_classifier",
    "ClassifierVerdict",
    "check_disjoint",
]


@dataclass(frozen=True, eq=False)
class HKReport:
    """Volume, curvature integral, their ratio, and the tube-integral chain."""

    vol: float
    integral: float
    ratio: float
    h_min: float
    h_max: float
    mr_integral: float
    mr_excluded: int
    umbilicity: tuple
    dispersion: Optional[float]
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


def _mr_from_table(table, quad, f: Integrand):
    """Montiel-Ros tube integral from complement-side principal curvatures.

    kappa_Q = -kappa (normal flipped into the body); the inner integral of
    prod(1 + t kappa_Q) runs to the first focal time T = -1/kappa_Q1 and is
    a degree-(n+1) polynomial evaluated in closed form.  Nodes whose largest
    curvature is nonpositive have no focal cut and are excluded.
    """
    kq = -table.kappa[:, ::-1]  # sorted ascending again after negation
    kq1 = kq[:, 0]
    ok = kq1 < 0
    excluded = int((~ok).sum())
    t_star = -1.0 / kq1[ok]
    n = kq.shape[1]
    if n == 1:
        inner = t_star + 0.5 * kq1[ok] * t_star**2
    elif n == 2:
        e1 = kq[ok, 0] + kq[ok, 1]
        e2 = kq[ok, 0] * kq[ok, 1]
        inner = t_star + 0.5 * e1 * t_star**2 + e2 * t_star**3 / 3.0
    else:
        raise InputError("tube integral implemented for n in {1, 2}")
    fnu = f.value(quad.normals[ok])
    return float((fnu * quad.weights[ok] * inner).sum()), excluded


def montiel_ros_integral(
    quad: SurfaceQuadrature, table: CurvatureTable, f: Integrand
) -> float:
    """Boundary-integrated tube volume bound; warns on excluded nodes."""
    value, excluded = _mr_from_table(table, quad, f)
    if excluded:
        warnings.warn(
            f"{excluded} nodes had no positive curvature direction and were excluded"
        )
    return value


def hk_evaluate(
    sampled: Sequence[tuple],
    f: Integrand,
    tol_eq: float = 1e-3,
    tol_fit: float = 1e-3,
) -> HKReport:
    """Evaluate the volume vs curvature-integral ratio over disjoint bodies.

    ``sampled`` holds one (body, quadrature, curvature table) triple per
    body, the table computed with ``f`` on that quadrature.
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

    vol = 0.0
    integral = 0.0
    mr_total = 0.0
    mr_excluded = 0
    h_min, h_max = np.inf, -np.inf
    umb = []
    for k, (_, quad, table) in enumerate(sampled):
        if np.any(table.mean <= 0):
            i = int(np.argmin(table.mean))
            raise HypothesisViolationError(
                f"body {k} node {i} at {quad.points[i]} has H = {table.mean[i]:.3e} <= 0"
            )
        h_min = min(h_min, float(table.mean.min()))
        h_max = max(h_max, float(table.mean.max()))
        vol += volume(quad)
        fnu = f.value(quad.normals)
        integral += float((fnu / table.mean * quad.weights).sum())
        mr_val, mr_exc = _mr_from_table(table, quad, f)
        mr_total += mr_val
        mr_excluded += mr_exc
        umb.append(umbilicity_classify(quad, table, f, tol_fit=tol_fit))

    ratio = vol / (n / (n + 1) * integral)
    dispersions = [u.dispersion for u in umb if u.dispersion is not None]
    return HKReport(
        vol=vol,
        integral=integral,
        ratio=ratio,
        h_min=h_min,
        h_max=h_max,
        mr_integral=mr_total,
        mr_excluded=mr_excluded,
        umbilicity=tuple(umb),
        dispersion=max(dispersions) if dispersions else None,
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
