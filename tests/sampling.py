"""Boundary samples and scenes in the form the library routines take them."""

from wulffkit import curvature_table, sample_surface
from wulffkit.curvature import umbilicity_classify
from wulffkit.duality import dual_norm_of
from wulffkit.scene import DEFAULT_STEINER, Scene


def table(body, f, resolution):
    """Curvature table under ``f`` of the boundary quadrature of ``body``."""
    return curvature_table(body, f, sample_surface(body, resolution))


def tables(bodies, f, resolution):
    """One curvature table per body, as hk_evaluate takes them."""
    return [table(b, f, resolution) for b in bodies]


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
        steiner=dict(DEFAULT_STEINER),
    )
