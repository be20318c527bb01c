"""Shape operators, anisotropic principal curvatures, and umbilicity fits.

The anisotropic principal curvatures at a boundary node are the eigenvalues
of A.B where A is the tangential Hessian of the integrand at the unit
normal and B the Euclidean shape operator.  A is symmetric positive
definite for elliptic integrands, so the eigenvalues are computed from the
symmetric matrix C.B.C with C the SPD square root of A, which keeps them
real by construction.  Dimensions are small (n = 1 or 2), so square roots
and eigenvalues use closed forms.

``curvature_table`` is the one boundary object of a body: it carries the
body, the integrand F and the quadrature it was built from and, beside the
curvatures, F(nu), grad F(nu), the elementary symmetric polynomials sigma_k
of the curvatures and, once asked for, the weighted stress w B_F(nu).  The
umbilicity, Heintze-Karcher, tube (Montiel-Ros), Steiner and variation
routines take the table alone, so none of them can pair it with another
quadrature or another F.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DegeneratePointError, InputError, NonEllipticError
from .hypersurface import StarBody, SurfaceQuadrature, WulffBody
from .integrand import Integrand, _row_norm, _row_sum, tangential_hessian

__all__ = [
    "CurvatureTable",
    "curvature_table",
    "UmbilicityReport",
    "umbilicity_classify",
]

# largest dispersion of the ball fit that umbilicity_classify calls a Wulff
# ball; the dispersion of grad F(nu) - lambda x is dimensionless, so the
# bound is the same at every radius.  Wulff balls read at most 1.5e-10 (the
# shipped scenes and the weighted benchmark seeds, at their resolution and
# at half of it), and the bound is pinned at most 1e-8
FIT_TOL = 1e-8


def _sqrt_spd(a):
    """SPD square root of stacked (N, n, n) matrices, n in {1, 2}."""
    n = a.shape[-1]
    if n == 1:
        return np.sqrt(a)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    s = np.sqrt(det)
    tr = a[:, 0, 0] + a[:, 1, 1]
    c = a + s[:, None, None] * np.eye(2)[None]
    return c / np.sqrt(tr + 2 * s)[:, None, None]


def _eigvalsh_small(a):
    """Sorted eigenvalues of stacked symmetric (N, n, n), n in {1, 2}."""
    n = a.shape[-1]
    if n == 1:
        return a[:, :, 0]
    mid = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    off = 0.5 * (a[:, 0, 1] + a[:, 1, 0])
    disc = np.sqrt((0.5 * (a[:, 0, 0] - a[:, 1, 1])) ** 2 + off**2)
    return np.stack([mid - disc, mid + disc], axis=1)


def _min_eig_spd(a):
    return _eigvalsh_small(a)[:, 0]


def _wulff_shape_operators(a_tan, radius):
    """Shape operators of a Wulff boundary of the given radius, from the
    tangential Hessians a_tan of its integrand at the normals.

    The Gauss map of a Wulff boundary inverts in closed form: x(u) = c + r
    grad F(u), so Dnu restricted to the tangent is (r D2F(nu)|tan)^-1.
    """
    if np.any(_min_eig_spd(a_tan) <= 0):
        raise NonEllipticError("tangential Hessian not positive definite")
    b = np.linalg.inv(a_tan) / radius
    return 0.5 * (b + np.transpose(b, (0, 2, 1)))


def _shape_operators_bulk(body: StarBody, quad: SurfaceQuadrature, frames):
    """Euclidean shape operators (N, n, n) in the given tangent frames, from
    the implicit function's gradient and Hessian."""
    g = body.grad_phi(quad.points)
    gnorm = _row_norm(g)
    if np.any(gnorm < 1e-12):
        raise DegeneratePointError("vanishing implicit gradient at a node")
    h = body.hess_phi(quad.points) / gnorm[:, None, None]
    b = np.swapaxes(frames, 1, 2) @ h @ frames
    return 0.5 * (b + np.transpose(b, (0, 2, 1)))


def _kappa_from_ab(a, b):
    if np.any(_min_eig_spd(a) <= 1e-14 * np.abs(a).max()):
        raise NonEllipticError("tangential Hessian not positive definite")
    c = _sqrt_spd(a)
    sym = c @ b @ c
    return _eigvalsh_small(sym)


def _stress(f_normal, eta, nu):
    """B_F(nu) = F(nu) I - outer(nu, grad F(nu)) from F(nu) and grad F(nu),
    formed in one (N, d, d) array: 0 - nu_i eta_j, then F(nu) added on the
    diagonal, the bits of F(nu) delta_ij - nu_i eta_j."""
    b = np.einsum("ni,nj->nij", nu, eta)
    np.subtract(0.0, b, out=b)
    for i in range(nu.shape[1]):
        b[:, i, i] += f_normal
    return b


@dataclass(frozen=True, eq=False)
class CurvatureTable:
    """Per-node boundary data of one body's quadrature under one integrand.

    body, f and quad are what ``curvature_table`` built the table from.
    kappa holds the sorted anisotropic principal curvatures (N, n); mean
    holds H, their sum, equal to trace(A.B) at every node.  f_normal holds
    F(nu) and eta grad F(nu) at the unit normals nu; sigma (N, n+1) holds the
    elementary symmetric polynomials sigma_0 = 1, sigma_1, ..., sigma_n of
    the rows of kappa.  Every boundary integral reads these arrays, so F is
    evaluated at the normals once per table.
    """

    body: StarBody
    f: Integrand
    quad: SurfaceQuadrature
    kappa: np.ndarray
    mean: np.ndarray
    f_normal: np.ndarray
    eta: np.ndarray
    sigma: np.ndarray

    @cached_property
    def weighted_stress(self):
        """w B_F(nu) at every node, flattened to one row of d*d entries: built
        once, and shared by the first variation and criticality residuals of
        this table."""
        q = self.quad
        stress = _stress(self.f_normal, self.eta, q.normals).reshape(len(q), -1)
        stress *= q.weights[:, None]
        return stress


def curvature_table(body: StarBody, f: Integrand, quad: SurfaceQuadrature) -> CurvatureTable:
    """Vectorized curvature pass over all quadrature nodes, in the tangent
    frames ``quad.frames``.  A Wulff ball takes its shape operators from the
    tangential Hessian of its own integrand; for a ball of f itself that is
    the table's, built once."""
    if len(quad) == 0:
        raise InputError("empty quadrature")
    a = tangential_hessian(f, quad.normals, quad.frames)
    if isinstance(body, WulffBody):
        base = body.dual.base
        a_ball = a if base is f else tangential_hessian(base, quad.normals, quad.frames)
        b = _wulff_shape_operators(a_ball, body.radius)
    else:
        b = _shape_operators_bulk(body, quad, quad.frames)
    kappa = _kappa_from_ab(a, b)
    # sigma_0 = 1, sigma_1 = sum of the kappa_i and, for n = 2, sigma_2 = kappa_1 kappa_2
    sigma = [np.ones(len(kappa)), _row_sum(kappa), kappa.prod(axis=1)][: kappa.shape[1] + 1]
    return CurvatureTable(
        body=body,
        f=f,
        quad=quad,
        kappa=kappa,
        mean=np.einsum("nij,nji->n", a, b),
        f_normal=f.value(quad.normals),
        eta=f.grad(quad.normals),
        sigma=np.stack(sigma, axis=1),
    )


@dataclass(frozen=True, eq=False)
class UmbilicityReport:
    """Outcome of the constant-curvature / Wulff-ball fit.

    verdict is one of "wulff", "umbilical-unresolved", "not-umbilical",
    "hyperplane-like".  When umbilical, the recovered ball has
    center = -c/lambda and radius = 1/|lambda| where c is the weighted mean
    of grad F(nu(x)) - lambda x over the nodes.
    """

    lam: float
    center: Optional[np.ndarray]
    radius: Optional[float]
    dispersion: Optional[float]
    verdict: str


def umbilicity_classify(table: CurvatureTable) -> UmbilicityReport:
    """Classify a boundary as a Wulff ball via constant anisotropic curvature.

    lambda is the area-weighted mean of (sum kappa_i)/n; nodes must all have
    every curvature within spread_tol = 1e-12 |lambda| of lambda to count as
    umbilical, after which the affine relation grad F(nu(x)) = lambda x + c
    is fitted, grad F(nu) read from ``table.eta``, and its worst deviation
    reported as the dispersion.  The verdict is "wulff" when the dispersion,
    which is dimensionless, is at most FIT_TOL = 1e-8.
    """
    quad = table.quad
    wsum = quad.weights.sum()
    lam = float((quad.weights * (_row_sum(table.kappa) / table.kappa.shape[1])).sum() / wsum)
    residuals = np.abs(table.kappa - lam).max(axis=1)
    max_res = float(residuals.max())
    # Wulff balls spread by at most 1.3e-15 |lambda| over the same sweep as FIT_TOL
    spread_tol = 1e-12 * max(abs(lam), 1e-30)

    if max_res > spread_tol:
        return UmbilicityReport(
            lam=lam, center=None, radius=None, dispersion=None, verdict="not-umbilical"
        )
    if abs(lam) < 1e-10:
        return UmbilicityReport(
            lam=lam, center=None, radius=None, dispersion=None, verdict="hyperplane-like"
        )
    affine = table.eta - lam * quad.points
    c = (quad.weights[:, None] * affine).sum(axis=0) / wsum
    dispersion = float(_row_norm(affine - c).max())
    radius = 1.0 / abs(lam)
    verdict = "wulff" if dispersion <= FIT_TOL else "umbilical-unresolved"
    return UmbilicityReport(
        lam=lam, center=-c / lam, radius=radius, dispersion=dispersion, verdict=verdict
    )
