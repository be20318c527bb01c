"""Tube-volume curves, polynomial fits, and the positive-reach test.

For a set A with positive anisotropic reach the tube volume
V(t) = vol{x : 0 < delta(x) <= t} is a polynomial of degree d with zero
constant term on (0, reach); conversely polynomial tube growth for every
weight certifies reach >= r.  Volumes are measured by cell counting on the
distance field (deterministic, O(h) error), and for smooth bodies the
coefficients are cross-checked against the closed-form boundary integrals

    c_i = (-1)^(i-1) / i * integral of F(nu) sigma_(i-1)(kappa_F)

over the body boundary (the tube taken inward from the complement), where
sigma_k is the k-th elementary symmetric polynomial of the anisotropic
principal curvatures: sigma_0 = 1, sigma_1 = H, sigma_2 = kappa_1 kappa_2,
as ``CurvatureTable.sigma`` holds them; ``claim5_coefficients`` takes the
body's curvature table alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureTable
from .distance import DistanceField
from .errors import InputError, TruncationError

__all__ = [
    "TubeCurve",
    "tube_volumes",
    "SteinerFit",
    "fit_polynomial",
    "claim5_coefficients",
    "positive_reach_test",
    "ReachVerdict",
    "default_t_grid",
]

# largest relative fit residual that positive_reach_test calls polynomial
RESIDUAL_TOL = 1e-2
# default_t_grid's tube window, in fractions of the reference radius, and its
# sample count; no scene or caller sets them
LO_FRAC = 0.05
HI_FRAC = 0.9
SAMPLES = 40


@dataclass(frozen=True, eq=False)
class TubeCurve:
    t: np.ndarray
    volume: np.ndarray


def _grid_margin(field: DistanceField) -> float:
    """Smallest positive delta on the outermost cell layer of the box, read
    from the first and last layer of each axis (a cell on two of them is
    read twice, which leaves the least value as it is)."""
    d = field.delta
    vals = np.concatenate([np.take(d, [0, -1], axis=k).ravel() for k in range(d.ndim)])
    vals = vals[vals > 0]
    return float(vals.min()) if len(vals) else np.inf


def tube_volumes(field: DistanceField, t_samples) -> TubeCurve:
    """V(t) = cell volume * #{cells : 0 < delta <= t} for increasing t."""
    t = np.asarray(t_samples, dtype=float)
    # NaN fails every comparison, so a NaN radius is refused
    if t.ndim != 1 or len(t) == 0 or not np.all(np.diff(t) > 0) or not t[0] > 0:
        raise InputError("t samples must be positive and strictly increasing")
    margin = _grid_margin(field)
    if t[-1] > margin:
        raise TruncationError(
            f"tube radius {t[-1]:.4g} exceeds the grid margin {margin:.4g}"
        )
    deltas = np.sort(field.delta[field.delta > 0].ravel())
    counts = np.searchsorted(deltas, t, side="right")
    return TubeCurve(t=t, volume=counts * field.grid.cell_volume)


def default_t_grid(r: float):
    """SAMPLES equispaced tube radii in (LO_FRAC*r, HI_FRAC*r), avoiding the
    near-zero staircase and boundary truncation."""
    return np.linspace(LO_FRAC * r, HI_FRAC * r, SAMPLES)


@dataclass(frozen=True, eq=False)
class SteinerFit:
    """Least-squares tube polynomial sum_j c_j t^j (zero constant term)."""

    coefficients: np.ndarray
    residual: float
    t_range: tuple

    @property
    def degree(self) -> int:
        return len(self.coefficients)


def fit_polynomial(curve: TubeCurve, degree: int) -> SteinerFit:
    """Fit V(t) = sum_{j=1..degree} c_j t^j; residual is max relative deviation.

    The fit runs in u = t/s with s = 2^(16 round(e/16)), where the largest
    radius is m 2^e with 1/2 <= m < 1: a power of two near it, so the powers
    of u in the design stay near 1 at every scale of the curve, and
    c_j = (coefficient of u^j) / s^j exactly.  s = 1 while 2^-9 <= t_max < 2^8.
    A curve with no positive volume has no relative deviation and is refused.
    """
    if degree < 1:
        raise InputError("polynomial degree must be >= 1")
    if len(curve.t) < 3 * degree:
        raise InputError("need at least 3*degree tube samples")
    if not np.any(curve.volume > 0):
        raise InputError(
            f"the tube volume is 0 up to the largest tube radius {curve.t[-1]:.6g}"
        )
    powers = np.arange(1, degree + 1)
    s = math.ldexp(1.0, 16 * round(math.frexp(np.abs(curve.t).max())[1] / 16))
    design = (curve.t / s)[:, None] ** powers
    if np.linalg.matrix_rank(design) < degree:
        raise InputError("degenerate t grid: design matrix is rank deficient")
    coeff, *_ = np.linalg.lstsq(design, curve.volume, rcond=None)
    fitted = design @ coeff
    residual = float(np.abs(fitted - curve.volume).max() / np.abs(curve.volume).max())
    return SteinerFit(
        coefficients=coeff / s**powers,
        residual=residual,
        t_range=(float(curve.t[0]), float(curve.t[-1])),
    )


def claim5_coefficients(table: CurvatureTable) -> np.ndarray:
    """Tube coefficients of the inward tube of a smooth body from boundary data.

    c_i = (-1)^(i-1)/i * sum F(nu) sigma_(i-1)(kappa_F) w over the boundary
    quadrature, i = 1..d, with the quadrature, F(nu) and sigma_k read from
    the curvature table.  By the anisotropic Gauss-Bonnet identity the top
    coefficient is (-1)^n |W|.
    """
    quad = table.quad
    return np.array(
        [
            (-1) ** i / (i + 1)
            * float((table.f_normal * table.sigma[:, i] * quad.weights).sum())
            for i in range(quad.dim)
        ]
    )


@dataclass(frozen=True, eq=False)
class ReachVerdict:
    consistent: bool
    r: float
    coefficient_agreement: np.ndarray

    @property
    def verdict(self) -> str:
        return (
            f"consistent-with-reach >= {self.r:.6g}"
            if self.consistent
            else "polynomial-fit-rejected"
        )


def positive_reach_test(fit: SteinerFit, reference: np.ndarray) -> ReachVerdict:
    """Polynomial tube growth over (0, r) certifies reach >= r.

    The fit counts as polynomial when its residual is at most RESIDUAL_TOL.
    ``coefficient_agreement`` is the per-degree deviation of the fit from
    ``reference`` (the smooth-body coefficients), relative to its largest.
    """
    reference = np.asarray(reference, dtype=float)
    k = min(len(reference), fit.degree)
    scale = np.abs(reference[:k]).max()
    agreement = np.abs(fit.coefficients[:k] - reference[:k]) / scale
    return ReachVerdict(
        consistent=fit.residual <= RESIDUAL_TOL,
        r=fit.t_range[1],
        coefficient_agreement=agreement,
    )
