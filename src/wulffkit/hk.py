"""Heintze-Karcher inequality evaluation and Wulff-union rigidity classification.

For a body with everywhere positive anisotropic mean curvature H,

    vol <= mr <= n/(n+1) * integral of F(nu)/H over the boundary,

where the middle quantity is the tube (Montiel-Ros) integral obtained by
integrating the normal-flow Jacobian up to the first focal time.  Every
routine here takes bodies as their curvature tables alone: the integrals
read the quadrature, F(nu), H and the sigma_k from the table.
``hk_row`` computes the three terms of one body as an ``HKRow``, and
``hk_report`` sums the rows in body order for the scene's totals;
``hk_evaluate`` composes the two over a scene's tables and refuses tables
of different integrands.  The disjointness check splits the same way: each
body's ``node_overlaps`` flags, and ``refuse_overlaps`` over all of them,
so a run may evaluate each body where its table lives.  One rule
holds for every caller: a node with H <= 0 violates the hypothesis and
raises ``HypothesisViolationError``.  Equality of the outer terms forces
every node to be umbilical and the body to be a Wulff ball; scenes of
disjoint bodies classify as "wulff-union" when the ratio is 1 within
EQUALITY_TOL and every body's fit is a Wulff ball.  The fitted radii are
reported beside, with whether they agree within the relative slack
RADIUS_TOL.  Both tolerances are module constants, which no caller or scene
sets.  The union is of disjoint open Wulff shapes, so ``refuse_overlaps``
accepts Wulff balls of one integrand whose closures touch, deciding each
such pair in closed form from F* of its centres.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .curvature import CurvatureTable, UmbilicityReport
from .errors import HypothesisViolationError, InputError
from .hypersurface import WulffBody, volume

__all__ = [
    "HKRow",
    "HKReport",
    "hk_evaluate",
    "hk_report",
    "hk_row",
    "montiel_ros_integral",
    "equality_classifier",
    "ClassifierVerdict",
    "node_overlaps",
    "refuse_overlaps",
]

# largest |ratio - 1| that hk_report calls equality; Wulff balls read at most
# 6.7e-16 (the shipped scenes and the weighted benchmark seeds, at their
# resolution and at half of it)
EQUALITY_TOL = 1e-13
# relative slack of equality_classifier's equal-radii report; each fitted
# Wulff radius is recovered within 1e-10
RADIUS_TOL = 1e-10


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


def _closed_form(a, b) -> bool:
    """Whether ``refuse_overlaps`` decides the pair of bodies in closed form."""
    return isinstance(a, WulffBody) and isinstance(b, WulffBody) and a.dual.base is b.dual.base


def node_overlaps(table: CurvatureTable, bodies: Sequence, index: int) -> tuple:
    """Node-rule flags of body ``index`` of ``bodies``, whose curvature table is
    ``table``: entry l says whether a boundary node of the table has phi <= 0
    under body l.  It is None for the body itself and for the pairs that
    ``refuse_overlaps`` decides in closed form."""
    return tuple(
        None
        if l == index or _closed_form(table.body, other)
        else bool(np.any(other.sign(table.quad.points) <= 0))
        for l, other in enumerate(bodies)
    )


def refuse_overlaps(bodies: Sequence, overlaps: Sequence) -> None:
    """Reject ``bodies`` where two of them overlap or one is nested in
    another, given each body's ``node_overlaps`` flags in ``overlaps``; the
    first pair in ``combinations`` order that is not disjoint is refused.

    Two Wulff bodies of one integrand are decided in closed form, once per
    pair as F* is even: their open balls are disjoint exactly when
    F*(c_i - c_j) >= r_i + r_j, so balls that touch are accepted, and the
    pair is rejected below (r_i + r_j)(1 - 1e-12).  Of any other pair, every
    boundary node of each body must have phi > 0 under the other, which also
    catches a body nested inside another.
    """
    for i, j in combinations(range(len(bodies)), 2):
        a, b = bodies[i], bodies[j]
        if _closed_form(a, b):
            apart = a.dual.batch_value((a.center - b.center)[None, :])[0]
            if apart < (a.radius + b.radius) * (1.0 - 1e-12):
                raise InputError(
                    f"bodies {i} and {j} are not disjoint (F* of their centres' "
                    f"difference, {apart:.17g}, is below the sum of their radii)"
                )
            continue
        for k, l in ((i, j), (j, i)):
            if overlaps[k][l]:
                raise InputError(
                    f"bodies {k} and {l} are not disjoint (a boundary node of {k} "
                    f"lies in {l})"
                )


def montiel_ros_integral(table: CurvatureTable) -> float:
    """Montiel-Ros tube integral from the curvature table.

    Flowing inward along the normal, the area element at time t scales by
    prod(1 - t kappa_i) = sum_k (-1)^k sigma_k t^k up to the first focal
    time T = 1/kappa_max, so the inner integral is
    sum_k (-1)^k sigma_k T^(k+1)/(k+1), summed in k order, weighted by F(nu).
    A node whose largest curvature is nonpositive has no focal cut and raises.
    """
    quad = table.quad
    k_max = table.kappa[:, -1]
    if np.any(k_max <= 0):
        i = int(np.argmin(k_max))
        raise HypothesisViolationError(
            f"node {i} at {quad.points[i]} has no positive curvature direction"
        )
    t_star = 1.0 / k_max
    inner = 0.0
    for k in range(table.sigma.shape[1]):
        inner = inner + (-1) ** k * table.sigma[:, k] * t_star ** (k + 1) / (k + 1)
    return float((table.f_normal * quad.weights * inner).sum())


def hk_row(table: CurvatureTable, index: int = 0) -> HKRow:
    """The Heintze-Karcher row of one body, body ``index`` of its scene.

    A node with H <= 0 violates the positivity hypothesis and raises a
    ``HypothesisViolationError`` that names the body by ``index``.
    """
    quad = table.quad
    if np.any(table.mean <= 0):
        i = int(np.argmin(table.mean))
        raise HypothesisViolationError(
            f"body {index} node {i} at {quad.points[i]} has H = {table.mean[i]:.3e} <= 0"
        )
    return HKRow(
        vol=volume(quad),
        integral=float((table.f_normal / table.mean * quad.weights).sum()),
        mr_integral=montiel_ros_integral(table),
        h_min=float(table.mean.min()),
        h_max=float(table.mean.max()),
    )


def hk_report(rows: Sequence[HKRow], dim: int) -> HKReport:
    """The rows of disjoint bodies in R^dim, summed in body order, their ratio
    vol / (n/(n+1) * sum F(nu)/H w) and its verdict: "equality" when
    |ratio - 1| <= EQUALITY_TOL = 1e-13 and "strict" otherwise.  No rows
    is an empty scene, which an ``InputError`` refuses."""
    if not rows:
        raise InputError("empty scene")
    n = dim - 1
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
        verdict="equality" if abs(ratio - 1.0) <= EQUALITY_TOL else "strict",
    )


def hk_evaluate(tables: Sequence[CurvatureTable]) -> HKReport:
    """Evaluate the volume vs curvature-integral ratio over disjoint bodies.

    ``tables`` holds one curvature table per body, all under one integrand
    F (the same object), or an ``InputError`` names the first body whose
    table is not; F(nu) is read from the table.  Overlapping bodies are
    refused (``node_overlaps`` per body, then ``refuse_overlaps``), then
    each body's ``hk_row`` in order, and ``hk_report`` sums the rows.
    """
    if not tables:
        raise InputError("empty scene")
    f = tables[0].f
    for k, table in enumerate(tables):
        if table.f is not f:
            raise InputError(f"bodies 0 and {k} are tables of different integrands")
    bodies = [table.body for table in tables]
    refuse_overlaps(bodies, [node_overlaps(t, bodies, k) for k, t in enumerate(tables)])
    return hk_report([hk_row(table, k) for k, table in enumerate(tables)], f.dim)


@dataclass(frozen=True, eq=False)
class ClassifierVerdict:
    verdict: str
    failing_condition: Optional[str]
    radii: tuple
    centers: tuple
    equal_radii: Optional[bool]


def equality_classifier(
    report: HKReport, umbilicity: Sequence[UmbilicityReport]
) -> ClassifierVerdict:
    """Decide "wulff-union" vs "strict" from the ratio and umbilicity.

    Requires the report's "equality" verdict and every body umbilical with
    a clean ball fit; the first condition that fails is named.  The fitted
    radii and centres are listed one per body, in body order, None where the
    fit found no ball.  Whether the radii are all equal within the relative
    slack RADIUS_TOL = 1e-10 is reported alongside (the equality case admits
    unequal radii), and is None unless every body has a fitted ball.
    """
    if not umbilicity:
        raise InputError("classifier needs at least one umbilicity report")
    radii = tuple(u.radius for u in umbilicity)
    failing = None
    if report.verdict != "equality":
        failing = "ratio"
    elif any(u.verdict != "wulff" for u in umbilicity):
        failing = "umbilicity"

    equal = None
    if None not in radii:
        equal = bool(max(radii) - min(radii) <= RADIUS_TOL * max(radii))
    return ClassifierVerdict(
        verdict="wulff-union" if failing is None else "strict",
        failing_condition=failing,
        radii=radii,
        centers=tuple(u.center for u in umbilicity),
        equal_radii=equal,
    )
