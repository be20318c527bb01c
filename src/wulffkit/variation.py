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
from typing import List, Optional, Sequence

import numpy as np

from .errors import InputError, StepTooLargeError
from .hypersurface import SurfaceQuadrature, perimeter_F, volume
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
    construction so Dg is exactly lin + 2 quad(., x).  g and Dg are one
    matmul each against the monomials (1, x, x x) of the points.
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
        return self._values(_monomials(x))

    def _values(self, mono):
        """g at the points whose ``_monomials`` are ``mono``: one matmul."""
        d = self.dim
        coefs = np.vstack([self.const, self.lin.T, self.quad.reshape(d, d * d).T])
        return mono @ coefs

    def _jacobians(self, mono):
        """Dg = lin + 2 quad(., x), (N, d, d), from the (1, x) columns of mono."""
        d = self.dim
        coefs = np.vstack([self.lin.reshape(1, -1), 2.0 * self.quad.reshape(d * d, d).T])
        return (mono[:, : 1 + d] @ coefs).reshape(-1, d, d)


def _monomials(x):
    """Columns 1, x_j and x_j x_k of every point: an (N, 1 + d + d*d) view.

    It is built column-major so that the products run along the nodes.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_pts, d = x.shape
    m = np.empty((1 + d + d * d, n_pts))
    m[0] = 1.0
    xt = m[1 : 1 + d]
    xt[...] = x.T
    np.multiply(xt[:, None, :], xt[None, :, :], out=m[1 + d :].reshape(d, d, n_pts))
    return m.T


def stress_tensor(f: Integrand, nu):
    """B_F(nu) = F(nu) I - outer(nu, grad F(nu)), stacked over nodes."""
    nu = np.atleast_2d(np.asarray(nu, dtype=float))
    d = nu.shape[1]
    fv = f.value(nu)
    g = f.grad(nu)
    return fv[:, None, None] * np.eye(d)[None] - nu[:, :, None] * g[:, None, :]


def _weighted_stress(q: SurfaceQuadrature, f: Integrand):
    """w B_F(nu) at every node, flattened to one row of d*d entries."""
    return (stress_tensor(f, q.normals) * q.weights[:, None, None]).reshape(len(q), -1)


def _first_variation(dg, stress) -> float:
    return float(np.einsum("ni,ni->", dg.reshape(len(dg), -1), stress))


def _flux(q: SurfaceQuadrature, gx):
    """g(x).nu at every node."""
    return np.einsum("ni,ni->n", gx, q.normals)


def _node_monomials(q: SurfaceQuadrature, fields):
    """``_monomials`` of the nodes of q, once each field is checked to have
    the dimension of q."""
    for g in fields:
        if g.dim != q.dim:
            raise InputError(f"field of dimension {g.dim} on a surface in dimension {q.dim}")
    return _monomials(q.points)


def first_variation(q: SurfaceQuadrature, f: Integrand, g: PolynomialField) -> float:
    """sum over nodes of <Dg(x), B_F(nu)> w (entrywise matrix pairing)."""
    if len(q) == 0:
        raise InputError("empty quadrature")
    return _first_variation(g._jacobians(_node_monomials(q, [g])), _weighted_stress(q, f))


def volume_derivative(q: SurfaceQuadrature, g: PolynomialField) -> float:
    """Flux of g through the boundary: sum (g(x).nu) w."""
    return float((_flux(q, g._values(_node_monomials(q, [g]))) * q.weights).sum())


def _field_terms(q: SurfaceQuadrature, mono, g: PolynomialField):
    """g(x), Dg(x) and Dg(x) frames at the nodes, each evaluated once."""
    dg = g._jacobians(mono)
    return g._values(mono), dg, dg @ q.frames


def _pushed_energy_volume(q: SurfaceQuadrature, f: Integrand, gx, dg_frames, t: float):
    """(energy, volume) of q pushed along x -> x + t g(x).

    Nodes move by t g(x) and tangent frames by I + t Dg.  The pushed area
    vector a (the rotated tangent for d=2, the cross product of the frame
    for d=3) is the pushed normal times the tangential Jacobian, so with F
    one-homogeneous the pushed energy density F(nu_t) w |a| is F(a) w.
    """
    x = q.points + t * gx
    pushed = q.frames + t * dg_frames
    if q.dim == 2:
        a = np.stack([pushed[:, 1, 0], -pushed[:, 0, 0]], axis=1)
    else:
        a = np.cross(pushed[:, :, 0], pushed[:, :, 1])
    if np.any(np.einsum("ni,ni->n", a, a) < 1e-24):
        raise StepTooLargeError("pushed frame degenerated; reduce the step")
    energy = float((f.value(a) * q.weights).sum())
    vol = float((np.einsum("ni,ni->n", x, a) * q.weights).sum() / q.dim)
    return energy, vol


def _pushed_energies(q, f, gx, dg_frames, h):
    """(energy, volume) of the quadrature pushed by +h and by -h."""
    return [_pushed_energy_volume(q, f, gx, dg_frames, t) for t in (+h, -h)]


def _check_step(q: SurfaceQuadrature, h: float):
    diameter = 2.0 * float(q.rho.max())
    if h > 1e-3 * diameter:
        raise InputError(f"step {h} too large for body diameter {diameter}")


def flow_energy_derivative(
    quad: SurfaceQuadrature, f: Integrand, g: PolynomialField, h: float
) -> float:
    """Central difference of the pushed surface energy at t = 0.

    Nodes move by t g(x), tangent frames by I + t Dg, weights by the
    tangential Jacobian, and normals follow the pushed frame; h must stay
    below 1e-3 of the body diameter so the difference is in the O(h^2)
    regime.
    """
    _check_step(quad, h)
    gx, _, dg_frames = _field_terms(quad, _node_monomials(quad, [g]), g)
    (e_plus, _), (e_minus, _) = _pushed_energies(quad, f, gx, dg_frames, h)
    return (e_plus - e_minus) / (2 * h)


@dataclass(frozen=True, eq=False)
class CriticalityResult:
    """Volume-constrained criticality residuals for one body and field.

    ``flow_derivative`` is the central difference of the pushed energy, the
    value of ``flow_energy_derivative`` at the same step.  ``flux`` is
    g(x).nu at every node; its weighted sum is ``volume_derivative``.
    """

    residual: float
    rescaled_residual: float
    volume: float
    first_variation: float
    volume_derivative: float
    flow_derivative: float
    flux: np.ndarray


def criticality_residual(
    quad: SurfaceQuadrature,
    f: Integrand,
    fields: Sequence[PolynomialField],
    h: Optional[float] = None,
) -> List[CriticalityResult]:
    """(n+1) dP - n (P/V) dV, plus the rescaled volume-preserving residual,
    for each of a body's fields.

    The second residual flows by x + t g(x), rescales by
    (V0/V(t))^(1/(n+1)) to restore the volume, and differentiates the
    energy of the rescaled flow by central differences; both residuals
    vanish for Wulff shapes.  The same two pushes give the flow derivative.
    h defaults to 1e-4 of the body diameter.

    P, V, w B_F(nu), the node monomials and the tangent frames are computed
    once for the body; g(x), Dg(x) and Dg(x) frames once per field, shared
    by dP, dV and both pushes.  Each result equals the one-field
    ``first_variation``, ``volume_derivative`` and ``flow_energy_derivative``.
    """
    n = quad.dim - 1
    p = perimeter_F(quad, f)
    v = volume(quad)
    if h is None:
        h = 1e-4 * 2.0 * float(quad.rho.max())
    _check_step(quad, h)
    mono = _node_monomials(quad, fields)
    stress = _weighted_stress(quad, f)
    results = []
    for g in fields:
        gx, dg, dg_frames = _field_terms(quad, mono, g)
        fv = _first_variation(dg, stress)
        flux = _flux(quad, gx)
        dv = float((flux * quad.weights).sum())
        pushed = _pushed_energies(quad, f, gx, dg_frames, h)
        rescaled = [
            ((v / vol_t) ** (1.0 / (n + 1))) ** n * energy for energy, vol_t in pushed
        ]
        results.append(
            CriticalityResult(
                residual=(n + 1) * fv - n * (p / v) * dv,
                rescaled_residual=(rescaled[0] - rescaled[1]) / (2 * h),
                volume=v,
                first_variation=fv,
                volume_derivative=dv,
                flow_derivative=(pushed[0][0] - pushed[1][0]) / (2 * h),
                flux=flux,
            )
        )
    return results
