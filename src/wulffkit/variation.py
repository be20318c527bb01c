"""First variation of the anisotropic perimeter and criticality residuals.

The first variation under a vector field g is the boundary integral of the
Frobenius pairing of Dg with the stress tensor

    B_F(nu) = F(nu) I - outer(nu, grad F(nu)),

and must match the central-difference derivative of the pushed-forward
surface energy.  Volume-constrained criticality is measured by the residual

    (n+1) dP - n (P/V) dV,

which vanishes on Wulff shapes for every field.  Rescaling the flowed
body by (V0/V(t))^(1/(n+1)) keeps its volume, and the derivative of the
rescaled energy at t = 0 is the residual over n+1; the tests check that
identity through the row-by-row push of ``tests/oracles.py``.

Fields are polynomial (constant + linear + quadratic) so their Jacobians
are exact and quadrature is the only error source.

Layout.  ``first_variation`` and ``criticality_residual`` take the body's
``CurvatureTable`` alone: its quadrature, its F and, read from it, F(nu),
grad F(nu) and the weighted stress w B_F(nu), built once per table.  P, dP,
dV and the flux g.nu are sums over (N, d) rows of the nodes.  The
pushes run component-major: every pushed quantity is a (d, N) array, one
row of N nodes per coordinate, so each step is one contiguous pass.  With
the tangent frame T_1, ..., T_n of ``quad.frames`` (n = d - 1) and the
images D_k = Dg T_k, formed column by column from Dg and the frame, the
pushed frame T_k + t D_k has the area vector

    a(t) = a0 + t a1 + t^2 a2,
    d = 2:  a0 = rot T_1,  a1 = rot D_1,  a2 = 0,  rot v = (v_2, -v_1)
    d = 3:  a0 = T_1 x T_2,  a1 = T_1 x D_2 + D_1 x T_2,  a2 = D_1 x D_2

(Nanson's formula: a(t) = cof(I + t Dg) a0, and a0 = nu).  a0 is formed
once per body and a1, a2 once per field; a push by t forms a(t) in one
fresh (d, N) array and evaluates F through the integrand's ``value`` on the
transposed (N, d) view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .curvature import CurvatureTable
from .errors import InputError, StepTooLargeError
from .hypersurface import SurfaceQuadrature, volume
from .integrand import Integrand

__all__ = [
    "PolynomialField",
    "first_variation",
    "flow_energy_derivative",
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
        for name, a in (("const", c), ("lin", l), ("quad", q)):
            if not np.all(np.isfinite(a)):
                raise InputError(f"field coefficient {name} must be finite")
        object.__setattr__(self, "const", c)
        object.__setattr__(self, "lin", l)
        object.__setattr__(self, "quad", 0.5 * (q + np.transpose(q, (0, 2, 1))))

    @property
    def dim(self) -> int:
        return len(self.const)

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

    def _values(self, mono):
        """g at the points whose ``_monomials`` are ``mono``: one matmul."""
        d = self.dim
        coefs = np.vstack([self.const, self.lin.T, self.quad.reshape(d, d * d).T])
        return mono @ coefs

    def _jacobian_coefs(self):
        """The (1 + d, d*d) coefficients of Dg = lin + 2 quad(., x) against the
        monomials (1, x); column i d + j gives the entry Dg_ij."""
        d = self.dim
        return np.vstack([self.lin.reshape(1, -1), 2.0 * self.quad.reshape(d * d, d).T])

    def _jacobians(self, mono):
        """Dg, (N, d, d), from the (1, x) columns of mono."""
        d = self.dim
        return (mono[:, : 1 + d] @ self._jacobian_coefs()).reshape(-1, d, d)


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


def _first_variation(dg, stress) -> float:
    return float(np.einsum("ni,ni->", dg.reshape(len(dg), -1), stress))


def _node_monomials(q: SurfaceQuadrature, fields):
    """``_monomials`` of the nodes of q, once each field is checked to have
    the dimension of q."""
    for g in fields:
        if g.dim != q.dim:
            raise InputError(f"field of dimension {g.dim} on a surface in dimension {q.dim}")
    return _monomials(q.points)


def first_variation(table: CurvatureTable, g: PolynomialField) -> float:
    """sum over the nodes of the table's quadrature of <Dg(x), B_F(nu)> w
    (entrywise matrix pairing), with w B_F(nu) the table's weighted stress."""
    mono = _node_monomials(table.quad, [g])
    return _first_variation(g._jacobians(mono), table.weighted_stress)


def _cross(u, v):
    """u x v, for 3-vectors given as three rows of nodes each."""
    out = np.empty((3, len(u[0])))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(u[j], v[k], out=out[i])
        out[i] -= u[k] * v[j]
    return out


class _Pushes:
    """The pushes x -> x + t g(x) of one quadrature, as (d, N) arrays.

    ``frame[k][j]`` is component j of the tangent T_k over the nodes, a view
    of ``q.frames``.  a0, a1 and a2 are the terms of a(t) (see the module
    docstring): a0 once, a1 and a2 per field by ``expand``, from the field's
    Jacobian entries.
    """

    def __init__(self, q: SurfaceQuadrature):
        d = q.dim
        self.q = q
        self.frame = [[q.frames[:, j, k] for j in range(d)] for k in range(d - 1)]
        if d == 2:
            (t,) = self.frame
            self.a0 = np.array([t[1], -t[0]])
        else:
            self.a0 = _cross(*self.frame)

    def expand(self, g: PolynomialField, mono):
        """a1 and a2 of the field g, whose nodes have the ``_monomials`` mono:
        the entries Dg_ij component-major, in the rows i d + j of jac, the
        images D_k = Dg T_k column by column, then the terms of the module
        docstring."""
        d = self.q.dim
        jac = g._jacobian_coefs().T @ mono[:, : 1 + d].T
        images = [
            [sum((jac[i * d + j] * t[j] for j in range(1, d)), jac[i * d] * t[0]) for i in range(d)]
            for t in self.frame
        ]
        if d == 2:
            (dt,) = images
            self.a1 = np.array([dt[1], -dt[0]])
        else:
            (t1, t2), (d1, d2) = self.frame, images
            self.a1 = _cross(t1, d2)
            self.a1 += _cross(d1, t2)
            self.a2 = _cross(d1, d2)

    def energy(self, f: Integrand, t: float) -> float:
        """Energy of the quadrature pushed by t along the field of the last
        ``expand``.

        With F one-homogeneous the pushed energy density F(nu_t) w |a| is
        F(a) w.
        """
        if self.q.dim == 3:
            a = self.a2 * t
            a += self.a1
            a *= t
        else:
            a = self.a1 * t
        a += self.a0
        if np.any(np.einsum("in,in->n", a, a) < 1e-24):
            raise StepTooLargeError("pushed frame degenerated; reduce the step")
        return float((f.value(a.T) * self.q.weights).sum())

    def pair(self, f: Integrand, g: PolynomialField, mono, h: float):
        """The energies pushed by +h and by -h along the field g, whose nodes
        have the ``_monomials`` mono."""
        self.expand(g, mono)
        return [self.energy(f, t) for t in (+h, -h)]


def _check_step(q: SurfaceQuadrature, h: float):
    if not 0.0 < h < np.inf:
        raise InputError(f"step h must be positive and finite, got h = {h}")
    diameter = 2.0 * float(q.rho.max())
    if h > 1e-3 * diameter:
        raise InputError(f"step h = {h} too large for body diameter {diameter}")


def flow_energy_derivative(
    quad: SurfaceQuadrature, f: Integrand, g: PolynomialField, h: float
) -> float:
    """Central difference of the pushed surface energy at t = 0.

    Nodes move by t g(x), tangent frames by I + t Dg, weights by the
    tangential Jacobian, and normals follow the pushed frame; h must be
    positive and stay below 1e-3 of the body diameter so the difference is
    in the O(h^2) regime.
    """
    _check_step(quad, h)
    mono = _node_monomials(quad, [g])
    e_plus, e_minus = _Pushes(quad).pair(f, g, mono, h)
    return (e_plus - e_minus) / (2 * h)


@dataclass(frozen=True, eq=False)
class CriticalityResult:
    """The volume-constrained criticality residual (n+1) dP - n (P/V) dV of
    one body under one field, with dP (``first_variation``) and dV.

    ``flow_derivative`` is the central difference of the pushed energy, the
    value of ``flow_energy_derivative`` at the same step.  ``flux`` is
    g(x).nu at every node; its weighted sum is ``volume_derivative``, the
    flux of g through the boundary.
    """

    residual: float
    first_variation: float
    volume_derivative: float
    flow_derivative: float
    flux: np.ndarray


def criticality_residual(
    table: CurvatureTable, fields: Sequence[PolynomialField]
) -> List[CriticalityResult]:
    """(n+1) dP - n (P/V) dV for each of a body's fields, with the flow
    derivative of the pushed energy beside it.

    The residual vanishes for Wulff shapes.  The flow derivative is the
    central difference of the energies pushed by x + t g(x) at t = +h and
    t = -h; the step h is 1e-5 of the body diameter, where the central
    difference's truncation error stays below its rounding on the shipped
    bodies.

    The body is its curvature table: P is read from its F(nu), dP from its
    weighted stress, and the pushes evaluate its F.  P, V, the node
    monomials and a0 are computed once for the body; g(x) once per field
    for dV, and Dg(x), a1 and a2 once per field, shared by dP and both
    pushes.  Each result equals the one-field ``first_variation`` and
    ``flow_energy_derivative``.
    """
    quad = table.quad
    n = quad.dim - 1
    p = float((table.f_normal * quad.weights).sum())  # perimeter_F(quad, f), bit for bit
    v = volume(quad)
    h = 1e-5 * 2.0 * float(quad.rho.max())
    mono = _node_monomials(quad, fields)
    pushes = _Pushes(quad)
    results = []
    for g in fields:
        gx = g._values(mono)
        fv = _first_variation(g._jacobians(mono), table.weighted_stress)
        flux = np.einsum("ni,ni->n", gx, quad.normals)
        dv = float((flux * quad.weights).sum())
        e_plus, e_minus = pushes.pair(table.f, g, mono, h)
        results.append(
            CriticalityResult(
                residual=(n + 1) * fv - n * (p / v) * dv,
                first_variation=fv,
                volume_derivative=dv,
                flow_derivative=(e_plus - e_minus) / (2 * h),
                flux=flux,
            )
        )
    return results
