"""Star-shaped implicit bodies and oriented boundary quadratures.

Bodies are level sets {phi = 0} of functions that increase along rays from
the body center, so every sphere direction meets the boundary exactly once,
at a radius that every shipped kind gives in closed form.
Boundary nodes carry the exact implicit normal and a radial-projection area
weight, which keeps all downstream surface integrals honest: for direction
omega with sphere weight sigma and ray radius rho, the area element is
rho^(d-1) sigma / (omega . nu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .duality import DualNorm
from .errors import (
    InputError,
    QuadratureInconsistencyError,
    StarShapeError,
)
from .integrand import Integrand, _center, _check_spd, _finite_rows, _quadratic_form
from .integrand import _row_norm, _row_sum
from .spheregrid import grid_counts, sphere_quadrature, tangent_frames

__all__ = [
    "StarBody",
    "Ellipsoid",
    "WulffBody",
    "Superellipse",
    "SurfaceQuadrature",
    "sample_surface",
    "surface_counts",
    "volume",
    "perimeter_F",
]


class StarBody:
    """Implicit body phi < 0, star-shaped around ``center``.

    ``phi``, ``grad_phi``, ``hess_phi`` and ``sign`` take an (N, dim) array
    of finite rows and refuse anything else with an InputError.  A subclass
    also gives ``ray_radii``; ``sample_surface`` refuses a body with a ray
    radius that is not positive by a StarShapeError.
    """

    center: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.center)

    def phi(self, x):
        raise NotImplementedError

    def grad_phi(self, x):
        raise NotImplementedError

    def hess_phi(self, x):
        raise NotImplementedError

    def sign(self, x):
        """The sign of phi: -1 inside the body, 0 on its boundary, 1 outside."""
        return np.sign(self.phi(x))

    def ray_radii(self, omega):
        """Boundary radius along each unit ray from the center: the root
        t > 0 of phi(c + t w), in closed form for every shipped kind."""
        raise NotImplementedError

    def ray_boundary(self, omega):
        """(rho, grad phi(c + rho omega)): the boundary radius along each unit
        ray and the gradient of phi where the ray meets the boundary."""
        rho = self.ray_radii(omega)
        return rho, self.grad_phi(self.center[None, :] + rho[:, None] * omega)


@dataclass(frozen=True, eq=False)
class Ellipsoid(StarBody):
    """phi(x) = (x-c)'Q(x-c) - 1 with Q symmetric positive definite."""

    matrix: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        q = _check_spd(self.matrix, "ellipsoid matrix")
        object.__setattr__(self, "matrix", q)
        object.__setattr__(self, "center", _center(self.center, len(q), "ellipsoid"))

    def phi(self, x):
        u = _finite_rows(x, self.dim) - self.center
        return _quadratic_form(u, self.matrix) - 1.0

    def grad_phi(self, x):
        return 2.0 * (_finite_rows(x, self.dim) - self.center) @ self.matrix

    def hess_phi(self, x):
        n = len(_finite_rows(x, self.dim))
        return np.broadcast_to(2.0 * self.matrix, (n, self.dim, self.dim))

    def ray_radii(self, omega):
        # phi(c + t w) = t^2 w'Qw - 1 has the exact root t = 1 / sqrt(w'Qw)
        return 1.0 / np.sqrt(_quadratic_form(np.asarray(omega, dtype=float), self.matrix))


@dataclass(frozen=True, eq=False)
class WulffBody(StarBody):
    """phi(x) = F*(x - c) - r: the F*-ball of radius r around c.

    Its boundary has two maps in closed form: by rays, w -> c + r w / F*(w)
    (``ray_radii``), and by unit outward normals, the Cahn-Hoffman map
    nu -> c + r grad F(nu) (``cahn_hoffman``).
    """

    dual: DualNorm
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius < np.inf:
            raise InputError("Wulff radius must be positive and finite")
        object.__setattr__(self, "center", _center(self.center, self.dual.dim, "Wulff"))

    def phi(self, x):
        return self.dual.batch_value(_finite_rows(x, self.dim) - self.center) - self.radius

    def grad_phi(self, x):
        return self.dual.batch_grad(_finite_rows(x, self.dim) - self.center)

    def sign(self, x):
        """``np.sign(self.phi(x))``; without a closed form, a row is decided
        from the exact bracket lo <= F*(w) <= hi of ``DualNorm.batch_bracket``
        and only the rest are solved.

        The solve stops at v with |w' - w| <= tol |w|, where w' = F(v) grad F(v)
        and F(v) = F*(w'), tol the ``tolerance``; so its phi is within
        L tol |w| of the exact one, L = ``grad_bound()``.  A row whose bracket
        clears the radius by more than the margin 10 tol L |w| (1e-9 L |w|,
        far above the bracket's rounding allowance) therefore gets the sign
        the solve would give, and never raises ``SolverError``.
        """
        dual = self.dual
        # the bracket covers d = 2 and d = 3
        if dual.has_closed_form or self.dim > 3:
            return super().sign(x)
        w = _finite_rows(x, self.dim) - self.center
        lo, hi, margin = dual.batch_bracket(w)
        margin *= 10.0 * dual.tolerance * dual.grad_bound()
        out = np.zeros(len(w))
        out[lo - self.radius > margin] = 1.0
        out[self.radius - hi > margin] = -1.0
        open_rows = out == 0.0
        if open_rows.any():
            out[open_rows] = np.sign(dual.batch_value(w[open_rows]) - self.radius)
        return out

    def cahn_hoffman(self, nu):
        """c + r grad F(nu) for each row nu: the boundary point whose unit
        outward Euclidean normal is nu, the Gauss map inverted in closed form."""
        return self.center + self.radius * self.dual.base.grad(nu)

    def ray_radii(self, omega):
        # F* is 1-homogeneous, so phi(c + t w) = t F*(w) - r has the exact
        # root t = r / F*(w); no iteration needed.
        omega = np.asarray(omega, dtype=float)
        return self.radius / self.dual.batch_value(omega)

    def ray_boundary(self, omega):
        """Without a closed form, one solve per ray: grad F* is 0-homogeneous,
        so grad phi(c + rho w) = grad F*(w)."""
        if self.dual.has_closed_form:
            return super().ray_boundary(omega)
        value, grad = self.dual.batch_value_grad(np.asarray(omega, dtype=float))
        return self.radius / value, grad


@dataclass(frozen=True, eq=False)
class Superellipse(StarBody):
    """|x1/a|^p + |x2/b|^p = 1 with p > 2; d=2 only."""

    semi_axes: tuple
    exponent: float
    center: np.ndarray

    def __post_init__(self):
        axes = np.asarray(self.semi_axes, dtype=float)
        if axes.shape != (2,):
            raise InputError(f"superellipse semi_axes must be 2 numbers, got shape {axes.shape}")
        a, b = (float(v) for v in axes)
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):
            raise InputError("superellipse semi-axes must be positive and finite")
        if not 2.0 < self.exponent < np.inf:
            raise InputError("superellipse exponent must exceed 2 and be finite")
        object.__setattr__(self, "semi_axes", (a, b))
        object.__setattr__(self, "center", _center(self.center, 2, "superellipse"))

    def phi(self, x):
        u = (_finite_rows(x, 2) - self.center) / np.asarray(self.semi_axes)
        return _row_sum(np.abs(u) ** self.exponent) - 1.0

    def grad_phi(self, x):
        ax = np.asarray(self.semi_axes)
        u = (_finite_rows(x, 2) - self.center) / ax
        p = self.exponent
        return (p / ax) * np.abs(u) ** (p - 1) * np.sign(u)

    def hess_phi(self, x):
        ax = np.asarray(self.semi_axes)
        u = (_finite_rows(x, 2) - self.center) / ax
        p = self.exponent
        diag = (p * (p - 1) / ax**2) * np.abs(u) ** (p - 2)
        h = np.zeros((len(u), 2, 2))
        h[:, 0, 0] = diag[:, 0]
        h[:, 1, 1] = diag[:, 1]
        return h

    def ray_radii(self, omega):
        # phi(c + t w) = t^p sum |w_i/a_i|^p - 1 has the exact root
        # t = (sum |w_i/a_i|^p)^(-1/p); the largest |w_i/a_i| is factored
        # out so that no power underflows at a large exponent
        u = np.abs(np.asarray(omega, dtype=float)) / np.asarray(self.semi_axes)
        top = u.max(axis=1)
        p = self.exponent
        return 1.0 / (top * _row_sum((u / top[:, None]) ** p) ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class SurfaceQuadrature:
    """Oriented boundary sample: points, unit outward normals, area weights.

    ``rho`` stores the ray radius and ``sigma`` the sphere-grid weight of
    each node, so the radial volume formula stays available after sampling.
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray

    def __len__(self):
        return len(self.points)

    @property
    def dim(self):
        return self.points.shape[1]

    @cached_property
    def frames(self):
        """``tangent_frames(normals)``, built once and shared by the curvature
        table and the variation pass of this quadrature."""
        return tangent_frames(self.normals)


# the most nodes a boundary sample takes: its arrays stay near 0.1 GB
MAX_NODES = 2**20


def surface_counts(dim: int, resolution) -> tuple:
    """``grid_counts`` of a resolution that ``sample_surface`` takes: even
    counts, at least 64 nodes in d=2 and a 32x64 grid in d=3, and at most
    MAX_NODES nodes in all."""
    counts = grid_counts(dim, resolution)
    least = (64,) if dim == 2 else (32, 64)
    if any(n < m or n % 2 for n, m in zip(counts, least)):
        raise InputError(
            f"d={dim} surface sampling needs even counts of at least {least}, got {counts}"
        )
    if math.prod(counts) > MAX_NODES:
        # a count past 12 digits by its three leading ones
        shown = ", ".join(
            n if len(n) <= 12 else f"{n[0]}.{n[1:3]}e+{len(n) - 1}" for n in map(str, counts)
        )
        raise InputError(f"d={dim} surface sampling takes at most {MAX_NODES} nodes, got ({shown})")
    return counts


def sample_surface(body: StarBody, resolution) -> SurfaceQuadrature:
    """Boundary quadrature of a star body over a full sphere grid."""
    surface_counts(body.dim, resolution)
    omega, sigma = sphere_quadrature(body.dim, resolution)
    rho, g = body.ray_boundary(omega)
    if not np.all(rho > 0):  # inverted so NaN radii fail too
        raise StarShapeError("a ray from the center has no positive boundary radius")
    x = body.center[None, :] + rho[:, None] * omega
    gnorm = _row_norm(g)
    if np.any(gnorm < 1e-12):
        raise StarShapeError("vanishing boundary gradient")
    nu = g / gnorm[:, None]
    proj = np.einsum("ni,ni->n", omega, nu)
    if np.any(proj <= 0):
        raise StarShapeError("normal not outward along its generating ray")
    w = rho ** (body.dim - 1) * sigma / proj
    return SurfaceQuadrature(points=x, normals=nu, weights=w, rho=rho, sigma=sigma)


def volume(q: SurfaceQuadrature) -> float:
    """Enclosed volume via the radial formula, cross-checked by divergence theorem.

    The two quadratures must agree to 1e-6 relative; the radial value is
    returned.  A radial value that is not positive and finite (a ball so
    small that its volume underflows to 0, say) is refused.
    """
    v_rad, v_div = _volume_pair(q)
    if not 0.0 < v_rad < math.inf:
        raise InputError(f"enclosed volume {v_rad!r} is not positive and finite")
    if abs(v_div - v_rad) > 1e-6 * abs(v_rad):
        raise QuadratureInconsistencyError(
            f"volume formulas disagree: radial {v_rad!r} vs divergence {v_div!r}"
        )
    return v_rad


def _volume_pair(q: SurfaceQuadrature):
    d = q.dim
    v_rad = float((q.rho**d * q.sigma).sum() / d)
    v_div = float(
        (np.einsum("ni,ni->n", q.points, q.normals) * q.weights).sum() / d
    )
    return v_rad, v_div


def perimeter_F(q: SurfaceQuadrature, f: Integrand) -> float:
    """Anisotropic perimeter: sum of F(nu) times area weight."""
    if len(q) == 0:
        raise InputError("empty quadrature")
    return float((f.value(q.normals) * q.weights).sum())
