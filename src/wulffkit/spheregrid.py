"""Direction grids on the unit sphere with exact partition weights, and
tangent frames.

d=2 uses midpoint angles on a uniform grid; d=3 uses Gauss-Legendre nodes
in z = cos theta times midpoint angles in phi, with weights
w_z * dphi: exact for polynomials in z up to degree 2 n_theta - 1, where the
midpoint rule in theta was second order.  Even counts are required so the
grids are antipodally symmetric; several downstream consistency checks
(divergence-theorem vs radial volume) rely on that exact symmetry.

``grid_counts`` is the one reader of a sphere-grid resolution: every
routine that takes one passes it through here.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "circle_quadrature",
    "grid_counts",
    "latlong_quadrature",
    "sphere_quadrature",
    "tangent_frames",
]


def _is_count(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def grid_counts(dim: int, resolution) -> tuple:
    """Per-axis node counts of a resolution: (n,) in d=2 from an integer n;
    (n_theta, n_phi) in d=3 from a pair of integers, or from one integer n
    meaning (n, 2n)."""
    if dim not in (2, 3):
        raise InputError(f"unsupported dimension {dim}")
    if _is_count(resolution):
        n = int(resolution)
        return (n,) if dim == 2 else (n, 2 * n)
    if dim == 2:
        raise InputError(f"d=2 resolution must be an integer, got {resolution!r}")
    counts = tuple(resolution) if isinstance(resolution, (tuple, list, np.ndarray)) else ()
    if len(counts) != 2 or not all(_is_count(v) for v in counts):
        raise InputError(
            f"d=3 resolution must be an integer or a pair of integers, got {resolution!r}"
        )
    return tuple(int(v) for v in counts)


def circle_quadrature(n: int):
    """Midpoint angle grid: directions (n, 2) and weights summing to 2 pi."""
    if n < 4 or n % 2:
        raise InputError("circle grid needs an even count >= 4")
    theta = (np.arange(n) + 0.5) * (2 * np.pi / n)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return dirs, np.full(n, 2 * np.pi / n)


def latlong_quadrature(n_theta: int, n_phi: int):
    """Lat-long grid: directions (n_theta*n_phi, 3), theta ascending at the
    Gauss-Legendre nodes in cos theta, and weights summing to 4 pi."""
    if n_theta < 2 or n_phi < 4 or n_theta % 2 or n_phi % 2:
        raise InputError("lat-long grid needs even counts, n_theta >= 2, n_phi >= 4")
    z, wz = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(z[::-1])
    band = wz[::-1] * (2 * np.pi / n_phi)
    phi = (np.arange(n_phi) + 0.5) * (2 * np.pi / n_phi)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    weights = np.repeat(band, n_phi)
    return dirs, weights


def sphere_quadrature(dim: int, resolution):
    """The grid of ``grid_counts(dim, resolution)``: directions and weights."""
    counts = grid_counts(dim, resolution)
    if dim == 2:
        return circle_quadrature(*counts)
    return latlong_quadrature(*counts)


def tangent_frames(nu):
    """Orthonormal tangent frames (N, d, n) oriented so the frame + normal
    is right-handed (d=3: tau1 x tau2 = nu; d=2: tau = rot90(nu))."""
    nu = np.atleast_2d(np.asarray(nu, dtype=float))
    n_nodes, d = nu.shape
    if d == 2:
        tau = np.stack([-nu[:, 1], nu[:, 0]], axis=1)
        return tau[:, :, None]
    if d == 3:
        seed = np.zeros((n_nodes, 3))
        seed[np.arange(n_nodes), np.argmin(np.abs(nu), axis=1)] = 1.0
        t1 = seed - np.einsum("ni,ni->n", seed, nu)[:, None] * nu
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        t2 = np.cross(nu, t1)
        return np.stack([t1, t2], axis=2)
    raise InputError(f"unsupported dimension {d}")
