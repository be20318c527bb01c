"""Even one-homogeneous surface energy integrands with exact derivatives.

Three closed-form families are supported: the Euclidean norm, quadratic
norms sqrt(x'Mx) with M symmetric positive definite, and positive
weighted sums of the two.  Keeping the families closed-form makes every
gradient and Hessian exact, which all downstream duality and curvature
checks rely on.

Every evaluator of F here, of F* in ``wulffkit.duality`` and of the
implicit functions of ``wulffkit.hypersurface`` takes an (N, d) array of
rows and returns one result per row; ``_rows`` refuses any other shape.
A reduction over the short coordinate axis of such rows goes through
``_row_sum`` or ``_row_norm``, which add the d columns one at a time in
index order: the additions numpy's own reduce makes for d < 8, so the bits
are the same, at a fraction of its cost on C-ordered rows.  A component-major
(d, N) array passes to the evaluators as its transposed (N, d) view, whose
columns are then contiguous.
The conjugate solve in ``wulffkit.duality`` instead takes F, grad F and the
Hessian together from ``_value_grad_hess``, on component-major (d, N)
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DomainError, InputError

__all__ = [
    "Integrand",
    "EuclideanNorm",
    "QuadraticNorm",
    "WeightedSum",
    "tangential_hessian",
]


def _rows(x, dim):
    """x as an (N, dim) float array; any other shape is an InputError that
    names the expected and the received shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise InputError(f"expected an (N, {dim}) array of rows, got shape {x.shape}")
    return x


def _row_sum(y):
    """``y.sum(axis=1)`` of an (N, d) array, bit for bit.

    numpy adds a row of fewer than 8 entries to 0 in index order (so a row
    of -0.0 sums to +0.0), so the columns are added to 0 one at a time in
    that order; that avoids the per-row setup of numpy's reduce over a short
    axis.  From 8 columns numpy sums pairwise, and its own reduce is used.
    """
    d = y.shape[1]
    if not 0 < d < 8:
        return y.sum(axis=1)
    out = np.add(y[:, 0], 0.0, dtype=float)
    for j in range(1, d):
        out += y[:, j]
    return out


def _row_norm(x):
    """``np.linalg.norm(x, axis=1)`` of an (N, d) array, bit for bit: the
    root of the ``_row_sum`` of the squares, as numpy computes it."""
    return np.sqrt(_row_sum(x * x))


def _finite_rows(x, dim):
    """``_rows`` with every entry finite, else InputError."""
    x = _rows(x, dim)
    if not np.isfinite(x).all():
        raise InputError("non-finite input components")
    return x


def _center(center, dim, name):
    """The centre of a body or ball as a finite float ``dim``-vector, or InputError."""
    c = np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise InputError(f"{name} center must be a {dim}-vector")
    if not np.all(np.isfinite(c)):
        raise InputError(f"{name} center must be finite")
    return c


def _whole(value, name):
    """A finite whole number as an int, or InputError naming it."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = np.nan
    if not (np.isfinite(number) and number == int(number)):
        raise InputError(f"{name} must be a whole number, got {value}")
    return int(number)


def _quadratic_form(x, m):
    """x_n' M x_n for every row x_n of x; one (N, d) temporary, laid out as
    x is, so a transposed component-major view keeps contiguous columns."""
    y = np.matmul(x, m, out=np.empty_like(x))
    y *= x
    return _row_sum(y)


def _check_spd(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} must have finite entries")
    if not np.allclose(m, m.T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise InputError(f"{name} must be symmetric")
    sym = 0.5 * (m + m.T)
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise InputError(f"{name} must be positive definite") from None
    return sym


def _upper_pairs(dim):
    """(i, j) of the dim (dim + 1) / 2 upper Hessian entries, i <= j, in row order."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _quadratic_norm_hessian(m, g, inv):
    """The upper entries (M_ij - g_i g_j) / F of the Hessian of F = sqrt(x'Mx)
    (M = I for |x|), from its component-major gradient g = Mx / F and
    inv = 1 / F, in the order of ``_upper_pairs``."""
    pairs = _upper_pairs(len(g))
    h = np.empty((len(pairs), g.shape[1]))
    for k, (i, j) in enumerate(pairs):
        np.multiply(g[i], g[j], out=h[k])
        np.subtract(m[i, j], h[k], out=h[k])
    h *= inv
    return h


class Integrand:
    """Base class; subclasses provide value/grad/hess on nonzero vectors.

    The closed-form families also provide what the conjugate solve and the
    weighted sums call: ``_value`` and ``_grad`` at (N, dim) rows the caller
    has checked finite (and nonzero, for ``_grad``), and
    ``_value_grad_hess``, (F, grad F, upper Hessian) at the columns of a
    component-major (d, N) array the caller has checked finite and nonzero:
    F of length N, grad F as (d, N), and the entries H_ij, i <= j, of the
    Hessian as (d (d + 1) / 2, N) in the order of ``_upper_pairs``, each
    array new, so callers may overwrite them.
    """

    dim: int

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def _require_nonzero(self, x):
        """x as finite, nonzero (N, dim) rows, else InputError or DomainError."""
        x = _finite_rows(x, self.dim)
        if (_row_norm(x) == 0.0).any():
            raise DomainError("derivative of the integrand is undefined at the origin")
        return x


@dataclass(frozen=True)
class EuclideanNorm(Integrand):
    """F(x) = |x|; the isotropic area integrand."""

    dim: int

    def __post_init__(self):
        dim = _whole(self.dim, "ambient dimension")
        if dim < 2:
            raise InputError("ambient dimension must be >= 2")
        object.__setattr__(self, "dim", dim)

    def value(self, x):
        return self._value(_finite_rows(x, self.dim))

    def _value(self, x):
        return _row_norm(x)

    def grad(self, x):
        return self._grad(self._require_nonzero(x))

    def _grad(self, x):
        return x / _row_norm(x)[:, None]

    def hess(self, x):
        x = self._require_nonzero(x)
        r = _row_norm(x)
        u = x / r[:, None]
        return (np.eye(self.dim)[None] - u[:, :, None] * u[:, None, :]) / r[:, None, None]

    def _value_grad_hess(self, x):
        r = np.sqrt(np.einsum("in,in->n", x, x))
        inv = 1.0 / r
        g = x * inv
        return r, g, _quadratic_norm_hessian(np.eye(self.dim), g, inv)


@dataclass(frozen=True, eq=False)
class QuadraticNorm(Integrand):
    """F(x) = sqrt(x'Mx) with M symmetric positive definite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_spd(self.matrix)
        if m.shape[0] < 2:
            raise InputError("ambient dimension must be >= 2")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", np.linalg.inv(m))

    @property
    def dim(self):
        return self.matrix.shape[0]

    def value(self, x):
        return self._value(_finite_rows(x, self.dim))

    def _value(self, x):
        return np.sqrt(_quadratic_form(x, self.matrix))

    def grad(self, x):
        return self._grad(self._require_nonzero(x))

    def _grad(self, x):
        mx = x @ self.matrix
        f = np.sqrt(np.einsum("ni,ni->n", x, mx))
        return mx / f[:, None]

    def hess(self, x):
        x = self._require_nonzero(x)
        mx = x @ self.matrix
        f = np.sqrt(np.einsum("ni,ni->n", x, mx))
        return self.matrix[None] / f[:, None, None] - mx[:, :, None] * mx[:, None, :] / (
            f**3
        )[:, None, None]

    def _value_grad_hess(self, x):
        mx = self.matrix @ x
        f = np.sqrt(np.einsum("in,in->n", x, mx))
        inv = 1.0 / f
        g = np.multiply(mx, inv, out=mx)
        return f, g, _quadratic_norm_hessian(self.matrix, g, inv)


@dataclass(frozen=True, eq=False)
class WeightedSum(Integrand):
    """F = sum_k w_k F_k with w_k > 0; convexity and homogeneity are preserved."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(w), f) for w, f in self.terms)
        if not terms:
            raise InputError("weighted sum needs at least one term")
        dims = {f.dim for _, f in terms}
        if len(dims) != 1:
            raise InputError("all terms must share one ambient dimension")
        if not all(0.0 < w < np.inf for w, _ in terms):
            raise InputError("weights must be positive and finite")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self):
        return self.terms[0][1].dim

    # the rows are checked once per call, not once per term
    def value(self, x):
        return self._value(_finite_rows(x, self.dim))

    def _value(self, x):
        return sum(w * f._value(x) for w, f in self.terms)

    def grad(self, x):
        return self._grad(self._require_nonzero(x))

    def _grad(self, x):
        return sum(w * f._grad(x) for w, f in self.terms)

    def hess(self, x):
        return sum(w * f.hess(x) for w, f in self.terms)

    def _value_grad_hess(self, x):
        # term by term in the order of ``value`` and ``grad``: w_0 F_0 + w_1 F_1 + ...
        total = None
        for w, f in self.terms:
            part = f._value_grad_hess(x)
            for a in part:
                a *= w
            if total is None:
                total = part
            else:
                for a, b in zip(total, part):
                    a += b
        return total


def tangential_hessian(f: Integrand, u, frames):
    """frames' D^2F(u) frames per row, symmetrized: D^2F at the unit vectors u
    restricted to their tangent planes, (N, n, n) in the given tangent frames.

    Its least eigenvalue at u is the Wulff shape's least radius of curvature
    at the boundary point of normal u.
    """
    a = np.swapaxes(frames, 1, 2) @ f.hess(u) @ frames
    return 0.5 * (a + np.swapaxes(a, 1, 2))
