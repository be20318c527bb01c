"""Boundary samples in the form the library routines take them."""

from wulffkit import curvature_table, sample_surface


def quad_table(body, f, resolution):
    """Boundary quadrature of ``body`` and its curvature table under ``f``."""
    q = sample_surface(body, resolution)
    return q, curvature_table(body, f, q)


def sampled(bodies, f, resolution):
    """(body, quadrature, curvature table) triples, as hk_evaluate takes them."""
    return [(b, *quad_table(b, f, resolution)) for b in bodies]
