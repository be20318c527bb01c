"""Boundary samples and scenes in the form the library routines take them."""

from wulffkit import curvature_table, sample_surface
from wulffkit.curvature import umbilicity_classify
from wulffkit.duality import dual_norm_of
from wulffkit.scene import DEFAULT_STEINER, Scene


def quad_table(body, f, resolution):
    """Boundary quadrature of ``body`` and its curvature table under ``f``."""
    q = sample_surface(body, resolution)
    return q, curvature_table(body, f, q)


def sampled(bodies, f, resolution):
    """(body, quadrature, curvature table) triples, as hk_evaluate takes them."""
    return [(b, *quad_table(b, f, resolution)) for b in bodies]


def umbilicity(triples):
    """One umbilicity report per (body, quadrature, table) triple, in order."""
    return tuple(umbilicity_classify(q, t) for _, q, t in triples)


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
