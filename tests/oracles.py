"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: brute
enumeration, adaptive quadrature, finite differences, and dense parameter
scans.  Oracles stay independent of the implementations they check.  The
one exception is ``rolling_ball_by_wulff_sample``, a second route through
the library's boundary sampler and curvature table to a radius that the
library itself reads off D^2F on a sphere grid.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import pdist

from wulffkit.distance import EPS_CLUSTER


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


def polynomial_field(const, lin, quad, x):
    """const_i + sum_j lin_ij x_j + sum_jk quad_ijk x_j x_k, by explicit sums."""
    d = len(const)
    out = np.empty(d)
    for i in range(d):
        total = const[i]
        for j in range(d):
            total += lin[i][j] * x[j]
            for k in range(d):
                total += quad[i][j][k] * x[j] * x[k]
        out[i] = total
    return out


def row_major_push(quad, f, g, t):
    """(energy, volume) of a boundary quadrature pushed along x -> x + t g(x),
    node by node in (N, d) rows.

    Dg = lin + 2 quad(., x) by explicit contraction, the pushed tangent
    frames (I + t Dg) frames by batched matmul, and the pushed area vector
    a as their 90-degree rotation (d=2) or cross product (d=3), so that the
    pushed energy is sum F(a) w and the volume sum (x + t g(x)).a w / d.
    """
    x = quad.points
    dg = g.lin[None] + 2.0 * np.einsum("ijk,nk->nij", g.quad, x)
    moved = x + t * g(x)
    pushed = quad.frames + t * (dg @ quad.frames)
    if quad.dim == 2:
        a = np.stack([pushed[:, 1, 0], -pushed[:, 0, 0]], axis=1)
    else:
        a = np.cross(pushed[:, :, 0], pushed[:, :, 1])
    energy = float((f.value(a) * quad.weights).sum())
    vol = float((np.einsum("ni,ni->n", moved, a) * quad.weights).sum() / quad.dim)
    return energy, vol


def bisect_ray_radii(phi, center, omega, start):
    """The root t > 0 of t -> phi(center + t w) along each unit ray w: the
    bracket [0, start] doubles until phi is positive at its end, then halves
    until its ends are adjacent floats.  phi takes (N, d) rows; it must be
    negative at the centre and change sign once along each ray."""
    omega = np.asarray(omega, dtype=float)

    def positive(t):
        return phi(center + t[:, None] * omega) > 0

    lo, hi = np.zeros(len(omega)), np.full(len(omega), float(start))
    for _ in range(64):
        out = positive(hi)
        if out.all():
            break
        hi = np.where(out, hi, 2.0 * hi)
    else:
        raise AssertionError("no sign change along some rays")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        pos = positive(mid)
        lo, hi = np.where(pos, lo, mid), np.where(pos, mid, hi)
    return 0.5 * (lo + hi)


def brute_conjugate(f_value, w, n=200_000):
    """max w.u over {F(u) = 1} by dense sampling of the plane of w (d=2)."""
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    units = dirs / f_value(dirs)[:, None]
    return float((units @ np.asarray(w, dtype=float)).max())


def golden_conjugate(f_value, w, tol=1e-14):
    """max w.u over {F(u) = 1} by bracketing plus golden-section (d=2).

    ``w`` is one vector or a stack of them; a stack runs in lockstep, with
    one ``f_value`` call over all its points per golden step.
    """
    w = np.asarray(w, dtype=float)
    ws = np.atleast_2d(w)

    def s(theta):
        """w.u / F(u) for u at the angles theta, one row of angles per point."""
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        f = f_value(u.reshape(-1, 2)).reshape(theta.shape)
        return np.einsum("ni,nki->nk", ws, u / f[..., None])

    coarse = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    best = coarse[s(np.tile(coarse, (len(ws), 1))).argmax(axis=1)]
    a, b = best - 2 * np.pi / 1024, best + 2 * np.pi / 1024
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = s(c[:, None])[:, 0], s(d[:, None])[:, 0]
    while np.any(b - a > tol):
        live = b - a > tol
        up = live & (fc < fd)
        down = live & ~up
        a, c, fc = np.where(up, c, a), np.where(up, d, c), np.where(up, fd, fc)
        b, d, fd = np.where(down, d, b), np.where(down, c, d), np.where(down, fc, fd)
        d = np.where(up, a + invphi * (b - a), d)
        c = np.where(down, b - invphi * (b - a), c)
        probe = s(np.where(up, d, c)[:, None])[:, 0]
        fd = np.where(up, probe, fd)
        fc = np.where(down, probe, fc)
    out = s(0.5 * (a + b)[:, None])[:, 0]
    return float(out[0]) if w.ndim == 1 else out


def search_cone(psi, gamma):
    """The Wulff-polygon cone of each angle psi by binary search over the
    increasing vertex angles gamma_0, ..., gamma_N: the index of the last
    gamma_k at or below psi, 0 below gamma_0."""
    return np.clip(np.searchsorted(gamma, psi, "right") - 1, 0, len(gamma) - 1)


def search_gauge(w, gamma, q):
    """(k, w.q_k) per row w of the 2D Wulff-polygon gauge by binary search:
    the angle of w moved into [gamma_0, gamma_0 + 2 pi), its ``search_cone``
    k, and the cone's q_k (k clipped to a cone)."""
    x, y = w[:, 0], w[:, 1]
    psi = np.arctan2(y, x)
    psi[psi < gamma[0]] += 2 * np.pi
    k = search_cone(psi, gamma)
    return k, x * q[0].take(k, mode="clip") + y * q[1].take(k, mode="clip")


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


def rolling_ball_by_wulff_sample(f, resolution):
    """Least radius of curvature of the unit Wulff shape {F* <= 1}: sample its
    boundary with Newton ray solves, then take 1 / max kappa of its Euclidean
    curvature table."""
    from wulffkit import DualNorm, EuclideanNorm, WulffBody, curvature_table, sample_surface

    body = WulffBody(DualNorm(f), np.zeros(f.dim), 1.0)
    quad = sample_surface(body, resolution)
    return 1.0 / float(curvature_table(body, EuclideanNorm(f.dim), quad).kappa.max())


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


def congruence(p, m):
    """p_n' m_n p_n at every node n, by explicit sums over the indices."""
    n_nodes, d, k = p.shape
    out = np.zeros((n_nodes, k, k))
    for n in range(n_nodes):
        pn, mn = p[n].tolist(), m[n].tolist()
        for a in range(k):
            for b in range(k):
                out[n, a, b] = sum(
                    pn[i][a] * mn[i][j] * pn[j][b] for i in range(d) for j in range(d)
                )
    return out


def sandwich_eigenvalues(a, b):
    """Sorted eigenvalues of C B C per node, C the SPD square root of A from
    a per-node eigendecomposition."""
    out = []
    for an, bn in zip(a, b):
        lam, vec = np.linalg.eigh(an)
        c = (vec * np.sqrt(lam)) @ vec.T
        out.append(np.linalg.eigvalsh(congruence(c[None], bn[None])[0]))
    return np.array(out)


def single_linkage_connected(pts, tol):
    """True when the points form one single-linkage cluster at scale tol."""
    return _linked(pdist(np.asarray(pts, dtype=float), "sqeuclidean"), tol)


def _linked(sq, tol):
    """True when the condensed squared distances ``sq`` link their points into
    one single-linkage cluster at scale tol: every merge height is <= tol^2."""
    return len(sq) == 0 or linkage(sq, "single")[:, 2].max() <= tol**2


def resolve_gap(points, loops, d, eps_cluster, window_abs, tol):
    """Ambiguity gap at one point from its F* values ``d`` to every source
    point, the loops given as (start, stop, closed) ranges: the Euclidean
    diameter of the near-minimizer cluster when it covers half a loop or more
    or is not one single-linkage component at scale tol, else 0."""
    m = d.min()
    idx = np.nonzero(d <= m + (eps_cluster * m + window_abs))[0]
    sq = pdist(points[idx], "sqeuclidean")
    diameter = np.sqrt(sq.max()) if len(sq) else 0.0
    for (start, stop, _closed) in loops:
        if 2 * ((idx >= start) & (idx < stop)).sum() >= stop - start:
            return diameter
    return 0.0 if _linked(sq, tol) else diameter


def project_reference(field, x, window_cells):
    """(point, delta, gap, ambiguous, foot_index, grad_check_dev) of one
    query x by the brute force that ``project``'s docstring describes.

    The foot is the first least F*(a - x) over every source a, and the gap
    the larger of ``resolve_gap`` on those values and the stored gap of x's
    cell.  A query in A gets delta 0, gap 0 and no cross-check; otherwise a
    query that projects uniquely from more than 2h away rebuilds its foot as
    x - delta grad F(g), g the central differences of delta at the grid
    spacing h, delta being 0 in A and the least F* over every source
    elsewhere, and reports the Euclidean distance of that foot from the
    argmin, or None where |g| <= 1e-12.  F* is ``dual.batch_value_fast``,
    as the field takes it, and window_cells the window's floor in grid
    spacings; the cell index is floor((x - lo) / spacing), clipped to the
    grid.
    """
    src, grid, dual = field.source, field.grid, field.dual
    pts = src.points
    x = np.asarray(x, dtype=float)
    h = float(np.max((grid.hi - grid.lo) / np.asarray(grid.cells)))
    values = dual.batch_value_fast(pts - x)
    best = int(np.argmin(values))
    delta = float(values[best])
    gap = resolve_gap(pts, src.loops, values, EPS_CLUSTER, window_cells * h, field.tol_unique)
    spacing = (grid.hi - grid.lo) / np.asarray(grid.cells)
    cell = np.minimum(np.floor((x - grid.lo) / spacing).astype(int), np.asarray(grid.cells) - 1)
    gap = max(float(gap), float(field.gap[tuple(cell)]))
    ambiguous = gap > field.tol_unique
    if src.membership(x[None])[0]:
        return pts[best], 0.0, 0.0, False, best, None
    dev = None
    if not ambiguous and delta > 2 * h:

        def distance(p):
            return 0.0 if src.membership(p[None])[0] else dual.batch_value_fast(pts - p).min()

        g = np.array([(distance(x + e) - distance(x - e)) / (2 * h) for e in h * np.eye(len(x))])
        if np.linalg.norm(g) > 1e-12:
            rebuilt = x - delta * field.f.grad(g[None])[0]
            dev = float(np.linalg.norm(rebuilt - pts[best]))
    return pts[best], delta, gap, ambiguous, best, dev
