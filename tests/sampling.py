"""Boundary samples and scenes in the form the library routines take them."""

import numpy as np

from wulffkit import SourceSet, StarBody, boundary_source, curvature_table, hk, sample_surface
from wulffkit.curvature import umbilicity_classify
from wulffkit.duality import dual_norm_of
from wulffkit.scene import Scene


def table(body, f, resolution):
    """Curvature table under ``f`` of the boundary quadrature of ``body``."""
    return curvature_table(body, f, sample_surface(body, resolution))


def tables(bodies, f, resolution):
    """One curvature table per body, as hk_evaluate takes them."""
    return [table(b, f, resolution) for b in bodies]


def refuse_overlaps(tables):
    """The disjointness refusal of the bodies of ``tables``: each body's
    ``node_overlaps`` flags, then ``hk.refuse_overlaps`` over all of them."""
    bodies = [t.body for t in tables]
    hk.refuse_overlaps(bodies, [hk.node_overlaps(t, bodies, k) for k, t in enumerate(tables)])


def region_source(bodies, resolution, region):
    """``boundary_source``'s points and loops of the union of ``bodies`` as
    the source of A for ``region``: "complement" (the closure of the
    outside, the library's one region), "set" (the closed union) or "curve"
    (the boundary alone, no membership)."""
    src = boundary_source(bodies, resolution)
    if region == "complement":
        return src
    if region == "curve":
        return SourceSet(points=src.points, loops=src.loops)
    assert region == "set", region

    def inside(x):
        out = np.zeros(len(x), dtype=bool)
        for b in bodies:
            out |= b.sign(x) <= 0
        return out

    return SourceSet(points=src.points, loops=src.loops, inside=inside)


def umbilicity(tables):
    """One umbilicity report per curvature table, in order."""
    return tuple(umbilicity_classify(t) for t in tables)


def scene(bodies, f, resolution, suites=("curv", "hk", "mr")):
    """A gridless scene of ``(id, body)`` pairs."""
    return Scene(
        integrand=f,
        dual=dual_norm_of(f),
        bodies=tuple(bodies),
        resolution=resolution,
        grid=None,
        seed=0,
        suites=tuple(suites),
        hk_c=None,
        steiner={},
    )


class Flower(StarBody):
    """Radial test body rho(theta) = 1 + a cos(3 theta); concave at the dents
    for a > 1/10, giving nodes with negative curvature."""

    def __init__(self, a):
        self.a = a
        self.center = np.zeros(2)

    def _polar(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=1)
        t = np.arctan2(x[:, 1], x[:, 0])
        return x, r, t

    def phi(self, x):
        x, r, t = self._polar(x)
        return r - (1.0 + self.a * np.cos(3 * t))

    def grad_phi(self, x):
        x, r, t = self._polar(x)
        xhat = x / r[:, None]
        grad_t = np.stack([-x[:, 1], x[:, 0]], axis=1) / (r**2)[:, None]
        return xhat + (3 * self.a * np.sin(3 * t))[:, None] * grad_t

    def hess_phi(self, x):
        x, r, t = self._polar(x)
        xhat = x / r[:, None]
        grad_t = np.stack([-x[:, 1], x[:, 0]], axis=1) / (r**2)[:, None]
        hess_t = np.empty((len(x), 2, 2))
        hess_t[:, 0, 0] = 2 * x[:, 0] * x[:, 1]
        hess_t[:, 0, 1] = hess_t[:, 1, 0] = x[:, 1] ** 2 - x[:, 0] ** 2
        hess_t[:, 1, 1] = -2 * x[:, 0] * x[:, 1]
        hess_t /= (r**4)[:, None, None]
        proj = (np.eye(2)[None] - xhat[:, :, None] * xhat[:, None, :]) / r[:, None, None]
        rho1 = -3 * self.a * np.sin(3 * t)
        rho2 = -9 * self.a * np.cos(3 * t)
        return (
            proj
            - rho2[:, None, None] * grad_t[:, :, None] * grad_t[:, None, :]
            - rho1[:, None, None] * hess_t
        )

    def ray_radii(self, omega):
        return 1.0 + self.a * np.cos(3 * np.arctan2(omega[:, 1], omega[:, 0]))
