"""First variation of the anisotropic perimeter and criticality residuals.

The first variation under a vector field g is the boundary integral of the
Frobenius pairing of Dg with the stress tensor

    B_F(nu) = F(nu) I - outer(nu, grad F(nu)),

and must match the central-difference derivative of the pushed-forward
surface energy.  Volume-constrained criticality is measured by the residual

    (n+1) dP - n (P/V) dV,

which vanishes on Wulff shapes for every field; the volume-preserving
formulation rescales the flowed body by (V0/V(t))^(1/(n+1)) and
differentiates the rescaled energy directly.

Fields are polynomial (constant + linear + quadratic) so their Jacobians
are exact and quadrature is the only error source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, StepTooLargeError
from .hypersurface import SurfaceQuadrature, perimeter_F, volume
from .curvature import tangent_frames
from .integrand import Integrand

__all__ = [
    "PolynomialField",
    "stress_tensor",
    "first_variation",
    "flow_energy_derivative",
    "volume_derivative",
    "criticality_residual",
    "CriticalityResult",
]


@dataclass(frozen=True, eq=False)
class PolynomialField:
    """g(x) = const + lin x + quad(x, x) with the quadratic part symmetric.

    quad[i, j, k] multiplies x_j x_k in component i; it is symmetrized on
    construction so Dg is exactly lin + 2 quad(., x).
    """

    const: np.ndarray
    lin: np.ndarray
    quad: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.const, dtype=float)
        l = np.asarray(self.lin, dtype=float)
        q = np.asarray(self.quad, dtype=float)
        d = len(c)
        if l.shape != (d, d) or q.shape != (d, d, d):
            raise InputError("field coefficient shapes are inconsistent")
        object.__setattr__(self, "const", c)
        object.__setattr__(self, "lin", l)
        object.__setattr__(self, "quad", 0.5 * (q + np.transpose(q, (0, 2, 1))))

    @property
    def dim(self) -> int:
        return len(self.const)

    @classmethod
    def constant(cls, v):
        v = np.asarray(v, dtype=float)
        d = len(v)
        return cls(v, np.zeros((d, d)), np.zeros((d, d, d)))

    @classmethod
    def linear(cls, l):
        l = np.asarray(l, dtype=float)
        d = l.shape[0]
        return cls(np.zeros(d), l, np.zeros((d, d, d)))

    @classmethod
    def position(cls, d):
        return cls.linear(np.eye(d))

    @classmethod
    def random(cls, rng, d, scale: float = 1.0):
        return cls(
            scale * rng.standard_normal(d),
            scale * rng.standard_normal((d, d)),
            scale * rng.standard_normal((d, d, d)),
        )

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (
            self.const[None, :]
            + x @ self.lin.T
            + np.einsum("ijk,nj,nk->ni", self.quad, x, x)
        )

    def jacobian(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.lin[None, :, :] + 2.0 * np.einsum("ijk,nk->nij", self.quad, x)


def stress_tensor(f: Integrand, nu):
    """B_F(nu) = F(nu) I - outer(nu, grad F(nu)), stacked over nodes."""
    nu = np.atleast_2d(np.asarray(nu, dtype=float))
    d = nu.shape[1]
    fv = f.value(nu)
    g = f.grad(nu)
    return fv[:, None, None] * np.eye(d)[None] - nu[:, :, None] * g[:, None, :]


def first_variation(q: SurfaceQuadrature, f: Integrand, g: PolynomialField) -> float:
    """sum over nodes of <Dg(x), B_F(nu)> w (entrywise matrix pairing)."""
    if len(q) == 0:
        raise InputError("empty quadrature")
    dg = g.jacobian(q.points)
    bf = stress_tensor(f, q.normals)
    return float((np.einsum("nij,nij->n", dg, bf) * q.weights).sum())


def volume_derivative(q: SurfaceQuadrature, g: PolynomialField) -> float:
    """Flux of g through the boundary: sum (g(x).nu) w."""
    return float((np.einsum("ni,ni->n", g(q.points), q.normals) * q.weights).sum())


def _push_quadrature(q: SurfaceQuadrature, g: PolynomialField, t: float):
    """Transport nodes, frames, weights, and normals along x -> x + t g(x)."""
    x = q.points + t * g(q.points)
    jac = np.eye(q.dim)[None] + t * g.jacobian(q.points)
    frames = tangent_frames(q.normals)
    pushed = np.einsum("nij,njk->nik", jac, frames)
    if q.dim == 2:
        tau = pushed[:, :, 0]
        stretch = np.linalg.norm(tau, axis=1)
        if np.any(stretch < 1e-12):
            raise StepTooLargeError("pushed tangent degenerated; reduce the step")
        nu = np.stack([tau[:, 1], -tau[:, 0]], axis=1) / stretch[:, None]
    else:
        cr = np.cross(pushed[:, :, 0], pushed[:, :, 1])
        stretch = np.linalg.norm(cr, axis=1)
        if np.any(stretch < 1e-12):
            raise StepTooLargeError("pushed frame degenerated; reduce the step")
        nu = cr / stretch[:, None]
    return x, nu, q.weights * stretch


def _pushed_energy_volume(q, f, g, t):
    x, nu, w = _push_quadrature(q, g, t)
    energy = float((f.value(nu) * w).sum())
    vol = float((np.einsum("ni,ni->n", x, nu) * w).sum() / q.dim)
    return energy, vol


def _pushed_energies(quad, f, g, h):
    """(energy, volume) of the quadrature pushed by +h and by -h."""
    diameter = 2.0 * float(quad.rho.max())
    if h > 1e-3 * diameter:
        raise InputError(f"step {h} too large for body diameter {diameter}")
    return _pushed_energy_volume(quad, f, g, +h), _pushed_energy_volume(quad, f, g, -h)


def flow_energy_derivative(
    quad: SurfaceQuadrature, f: Integrand, g: PolynomialField, h: float
) -> float:
    """Central difference of the pushed surface energy at t = 0.

    Nodes move by t g(x), tangent frames by I + t Dg, weights by the
    tangential Jacobian, and normals follow the pushed frame; h must stay
    below 1e-3 of the body diameter so the difference is in the O(h^2)
    regime.
    """
    (e_plus, _), (e_minus, _) = _pushed_energies(quad, f, g, h)
    return (e_plus - e_minus) / (2 * h)


@dataclass(frozen=True, eq=False)
class CriticalityResult:
    """Volume-constrained criticality residuals for one body and field.

    ``flow_derivative`` is the central difference of the pushed energy, the
    value of ``flow_energy_derivative`` at the same step.
    """

    residual: float
    rescaled_residual: float
    perimeter: float
    volume: float
    first_variation: float
    volume_derivative: float
    flow_derivative: float


def criticality_residual(
    quad: SurfaceQuadrature,
    f: Integrand,
    g: PolynomialField,
    h: Optional[float] = None,
) -> CriticalityResult:
    """(n+1) dP - n (P/V) dV, plus the rescaled volume-preserving residual.

    The second residual flows by x + t g(x), rescales by
    (V0/V(t))^(1/(n+1)) to restore the volume, and differentiates the
    energy of the rescaled flow by central differences; both residuals
    vanish for Wulff shapes.  The same two pushes give the flow derivative.
    h defaults to 1e-4 of the body diameter.
    """
    n = quad.dim - 1
    p = perimeter_F(quad, f)
    v = volume(quad)
    fv = first_variation(quad, f, g)
    dv = volume_derivative(quad, g)
    residual = (n + 1) * fv - n * (p / v) * dv

    if h is None:
        h = 1e-4 * 2.0 * float(quad.rho.max())
    pushed = _pushed_energies(quad, f, g, h)
    rescaled = [
        ((v / vol_t) ** (1.0 / (n + 1))) ** n * energy for energy, vol_t in pushed
    ]
    return CriticalityResult(
        residual=residual,
        rescaled_residual=(rescaled[0] - rescaled[1]) / (2 * h),
        perimeter=p,
        volume=v,
        first_variation=fv,
        volume_derivative=dv,
        flow_derivative=(pushed[0][0] - pushed[1][0]) / (2 * h),
    )
