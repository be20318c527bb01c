"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: brute
enumeration, adaptive quadrature, finite differences, and dense parameter
scans.  Oracles stay independent of the implementations they check.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform


def fd_gradient(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (fn(x + e) - fn(x - e)) / (2 * h)
    return out


def fd_jacobian(fn, x, h=1e-6):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        cols.append((fn(x + e) - fn(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def brute_conjugate(f_value, w, n=200_000):
    """max w.u over {F(u) = 1} by dense sampling of the plane of w (d=2)."""
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    units = dirs / f_value(dirs)[:, None]
    return float((units @ np.asarray(w, dtype=float)).max())


def golden_conjugate(f_value, w, tol=1e-14):
    """max w.u over {F(u) = 1} by bracketing plus golden-section (d=2)."""
    w = np.asarray(w, dtype=float)

    def s(theta):
        u = np.array([np.cos(theta), np.sin(theta)])
        return float(w @ (u / f_value(u[None, :])[0]))

    coarse = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    best = max(coarse, key=s)
    a, b = best - 2 * np.pi / 1024, best + 2 * np.pi / 1024
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = s(c), s(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = s(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = s(c)
    return s(0.5 * (a + b))


def ellipse_arc_length(a, b):
    """Perimeter of an axis-aligned ellipse by adaptive quadrature."""
    speed = lambda t: np.sqrt(a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2)
    val, _ = integrate.quad(speed, 0.0, 2 * np.pi, limit=200)
    return val


def ellipse_curvature(a, b, t):
    """Signed curvature of the ellipse (a cos t, b sin t)."""
    return a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5


def ellipse_hk_ratio(a, b):
    """area / ((n/(n+1)) * integral of 1/kappa ds) for the ellipse, n = 1."""
    integrand = lambda t: (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 2 / (a * b)
    val, _ = integrate.quad(integrand, 0.0, 2 * np.pi, limit=200)
    return (np.pi * a * b) / (0.5 * val)


def disk_inward_tube_area(R, t):
    """Area of {x : R - t <= |x| <= R}: the inward tube of the complement."""
    return np.pi * (R**2 - (R - t) ** 2)


def disk_outward_tube_area(R, t):
    return np.pi * ((R + t) ** 2 - R**2)


def sphere_inward_shell_volume(R, t):
    return 4.0 * np.pi / 3.0 * (R**3 - (R - t) ** 3)


def eig_product(a, b):
    """Eigenvalues of A @ B via the general nonsymmetric solver, sorted."""
    vals = np.linalg.eigvals(a @ b)
    assert np.abs(vals.imag).max() < 1e-12
    return np.sort(vals.real)


def single_linkage_connected(pts, tol):
    """True when the points form one single-linkage cluster at scale tol."""
    pts = np.asarray(pts, dtype=float)
    if len(pts) <= 1:
        return True
    adj = squareform(pdist(pts, "sqeuclidean") <= tol**2)
    n_components, _ = connected_components(csr_matrix(adj), directed=False)
    return n_components == 1
