"""Conjugate norms and their gradients.

The conjugate norm of F is F*(w) = sup { w.u : F(u) <= 1 }; its balls are
the Wulff shapes of F, and ``hypersurface.WulffBody`` holds both maps of a
Wulff ball's boundary, by rays and by normals.  For the Euclidean and quadratic families closed
forms are used (Euclidean is self-dual, quadratic M dualizes to M^-1);
for weighted sums the supremum is computed by a damped Newton iteration
on the strictly convex problem

    minimize  F(v)^2 / 2 - w.v   over v in R^d,

whose unique minimizer v* satisfies F(v*) = F*(w) and v*/F(v*) = grad F*(w).
This is the gradient-alignment fixed point F(v) grad F(v) = w solved with
second-order steps.  The solve is one kernel on component-major (d, N)
arrays, one length-N array per coordinate: the integrand's
``_value_grad_hess`` gives F, grad F and the d(d+1)/2 upper entries of its
Hessian in one pass, the Newton matrix F grad^2 F + grad F grad F' is formed
entry by entry and solved by a Cholesky factorization unrolled over the
components, and the triple that the line search evaluates at an accepted
trial point is the next iterate's.  Rows the line search leaves above the
tolerance get a few undamped steps of the same routine from inside the
basin: in d=2 from the vertex of the Wulff polygon whose cone holds w, in
higher dimensions from the stalled iterate when it is close to the optimum.
Whether a row is solved is decided by its gap measured with the integrand's
``value`` and ``grad``.  Closed forms are preferred in production; the
iterative path is cross-checked against them and against a golden-section
oracle in the test suite.

``DualNorm.batch_bracket`` encloses F* without a solve, in d=2 between the
Wulff polygon's bounds and in d=3 between |w|^2 / F(w) and L |w|; it is the
one bracket behind ``WulffBody.sign``.  A ``DualNorm`` depends on F alone:
the solve's iteration cap and tolerance are class constants, so every
caller of ``dual_norm_of`` shares one object per integrand.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, InputError, SolverError
from .integrand import EuclideanNorm, Integrand, QuadraticNorm
from .integrand import _finite_rows, _quadratic_form, _row_norm, _row_sum, _rows
from .integrand import _upper_pairs
from .spheregrid import latlong_quadrature

__all__ = ["DualNorm", "dual_norm_of"]

_TABLE_SIZE = 8192
# buckets of the cone lookup, over [gamma_0, gamma_N)
_BUCKETS = 2 * _TABLE_SIZE
# rounding allowance of batch_bracket, relative to |w| grad_bound()
_BRACKET_ROUNDING = 1e-12


@dataclass
class DualNorm:
    """Conjugate-norm evaluator for a base integrand, its only parameter.

    The class constants ``max_iterations`` and ``tolerance`` bound the Newton
    solve.  ``tolerance`` is relative: a Newton row is solved once
    |F(v) grad F(v) - w| is at most tolerance * |w|, with F and grad F the
    integrand's ``value`` and ``grad``; the component-major Newton kernel
    stops on the same test from its own triple, and every row it returns is
    measured again with ``value`` and ``grad``.  The ``batch_*`` entry points
    take (N, dim) arrays of rows and refuse any other shape with an
    InputError.  Evaluations are pure; the lazily built d=2 Wulff polygon and
    ``grad_bound`` are idempotent caches, so concurrent use is safe.
    """

    base: Integrand
    _poly: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _lip: Optional[float] = field(default=None, init=False, repr=False, compare=False)

    max_iterations: ClassVar[int] = 60
    tolerance: ClassVar[float] = 1e-10

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def has_closed_form(self) -> bool:
        return isinstance(self.base, (EuclideanNorm, QuadraticNorm))

    # -- exact evaluation ---------------------------------------------------

    def batch_value(self, W):
        """F* row by row; F*(0) = 0 by homogeneity."""
        W = _rows(W, self.dim)
        if isinstance(self.base, EuclideanNorm):
            return _row_norm(W)
        if isinstance(self.base, QuadraticNorm):
            return np.sqrt(_quadratic_form(W, self.base.inverse))
        zero = ~W.any(axis=1)
        if zero.any():
            out = np.zeros(len(W))
            out[~zero] = self.batch_value(W[~zero])
            return out
        v = self._polar_minimize(W)
        return self.base.value(v)

    def batch_grad(self, W):
        W = _rows(W, self.dim)
        if not W.any(axis=1).all():
            raise DomainError("conjugate norm is not differentiable at the origin")
        if isinstance(self.base, EuclideanNorm):
            return W / _row_norm(W)[:, None]
        if isinstance(self.base, QuadraticNorm):
            mw = W @ self.base.inverse
            f = np.sqrt(np.einsum("ni,ni->n", W, mw))
            return mw / f[:, None]
        v = self._polar_minimize(W)
        return v / self.base.value(v)[:, None]

    def batch_value_grad(self, W):
        """(F*(w), grad F*(w)) row by row, from one solve per row.

        The minimizer v of the polar problem gives both: F*(w) = F(v) and
        grad F*(w) = v / F(v), so each value equals ``batch_value`` and each
        gradient ``batch_grad`` bit for bit.  Closed forms make those two
        calls.  Rows must be nonzero.
        """
        W = _rows(W, self.dim)
        if self.has_closed_form:
            return self.batch_value(W), self.batch_grad(W)
        if not W.any(axis=1).all():
            raise DomainError("conjugate norm is not differentiable at the origin")
        v = self._polar_minimize(W)
        fv = self.base.value(v)
        return fv, v / fv[:, None]

    def batch_value_fast(self, W):
        """Vectorized F* for bulk grids; the gauge of an inscribed Wulff polygon
        in d=2.

        Without a closed form, d=2 rows take hi of ``batch_bracket`` without
        its rounding allowance: w.q_k in the cone [g_k, g_{k+1}] of w, the
        gauge of the polygon with vertices g_k = grad F(u_k) at 8192 unit
        directions.  The polygon lies in the Wulff shape, so the value is an
        upper bound on F*, 0 <= fast - F* <= about 7.4e-8 F* on weighted sums
        up to rounding, and ``grad_bound()`` is its Lipschitz constant.
        Closed-form families and dimensions >= 3 evaluate exactly.
        """
        W = _rows(W, self.dim)
        if self.has_closed_form or self.dim != 2:
            return self.batch_value(W)
        return self._gauge(W)[1]

    def batch_bracket(self, W):
        """(lo, hi, |w|) with lo <= F*(w) <= hi row by row, without a solve
        (d = 2, 3); |w| has the bits of ``_row_norm``: in d=2 x x + y y is its
        (x x + 0) + y y, since x x is never -0.

        In d=2 a table holds, at 8192 unit directions u_k in angular order
        (spaced as ``_polygon_directions`` says), g_k = grad F(u_k) and
        p_k = u_k / F(u_k).  Both bounds are exact:

        - F*(w) = sup { w.p : F(p) <= 1 } and F(p_k) = 1, so F*(w) >= w.p_k;
          lo is the larger of w.p_k and w.p_{k+1}.
        - F*(g_k) = 1: grad F(u).v <= F(v) for every v by convexity and
          1-homogeneity, with equality at v = p_k.  The F-ball is strictly
          convex, so the angles of the g_k increase with k and w lies in one
          cone [g_k, g_{k+1}]: w = alpha g_k + beta g_{k+1} with alpha,
          beta >= 0.  F* is convex and 1-homogeneous, so
          F*(w) <= alpha F*(g_k) + beta F*(g_{k+1}) = alpha + beta = hi.
          The table stores q_k with q_k.g_k = q_k.g_{k+1} = 1, so hi = w.q_k,
          the gauge of the polygon with vertices g_k (``batch_value_fast``).

        The bracket is O(8192^-2) F*(w) wide: about 1e-7 on weighted sums.
        In d=3 it is |w|^2 / F(w) <= F*(w) <= L |w|: p = w / F(w) has
        F(p) = 1, so F*(w) >= w.p, and F* is L-Lipschitz with F*(0) = 0,
        L = ``grad_bound()``.  lo is 0 where F(w) is 0, so w = 0 raises no
        0/0.  It is wide near the Wulff sphere but decides points a body's
        width away.

        Rounding: in d=2, q_k is formed from the chord g_{k+1} - g_k and from
        g_k x (g_{k+1} - g_k), which has no cancellation, so the table's
        identities hold to a few ulps; lo and hi are two-term dot products
        with |p_k| and |q_k| at most about L; a row within rounding of a
        cone's edge may take the neighbouring cone, whose hi agrees there to
        O(u L |w|).  In d=3, lo equals F* where w / F(w) is the maximizer,
        as along an axis of a diagonal M, and may round above it.  Both
        bounds are widened by 1e-12 |w| grad_bound(), thousands of times
        that: grad_bound() is at least L, which bounds every |p_k| as the p_k
        lie on the F-unit sphere, and within about 1e-7 relative of
        max_k |q_k|.  Other dimensions are an InputError.
        """
        if self.dim not in (2, 3):
            raise InputError(f"the conjugate bracket needs d = 2 or 3, not d = {self.dim}")
        W = _rows(W, self.dim)
        lip = self.grad_bound()
        if self.dim == 2:
            k, hi = self._gauge(W)
            np.minimum(np.maximum(k, 0, out=k), _TABLE_SIZE - 1, out=k)
            p0, p1 = self._polygon()[1]
            x, y = W[:, 0], W[:, 1]
            k1 = k + 1
            lo = np.maximum(x * p0.take(k) + y * p1.take(k), x * p0.take(k1) + y * p1.take(k1))
            norm = np.sqrt(x * x + y * y)
        else:
            sq = _row_sum(W * W)
            norm = np.sqrt(sq)
            fw = self.base.value(W)
            lo = np.divide(sq, fw, out=np.zeros(len(W)), where=fw > 0.0)
            hi = lip * norm
        slack = _BRACKET_ROUNDING * lip * norm
        return lo - slack, hi + slack, norm

    def grad_bound(self) -> float:
        """An upper bound on |grad F*|, the Lipschitz constant of F*; cached.

        It is exact for the closed forms.  In d=2 otherwise it is max_k |q_k|,
        the Lipschitz constant of ``batch_value_fast``: the inscribed polygon's
        gauge is max_k w.q_k, at least F*, so its largest value on the unit
        circle is at least L = max_|w|=1 F*(w).  In d=3 it is
        max_k F*(u_k) / (1 - c) over the 512 cell centres u_k of a 16 x 32
        lat-long grid: a unit vector w is within pi / 32 in theta and pi / 32
        in phi of the centre of its cell, so within chord c = 2 sin(pi / 32)
        of it, and F*(w) <= F*(u_k) + L c.
        """
        if self._lip is None:
            if isinstance(self.base, EuclideanNorm):
                self._lip = 1.0
            elif isinstance(self.base, QuadraticNorm):
                self._lip = float(np.sqrt(np.linalg.eigvalsh(self.base.inverse).max()))
            elif self.dim == 2:
                self._lip = float(np.hypot(*self._polygon()[2]).max())
            else:
                chord = 2.0 * np.sin(np.pi / 32)
                centres = latlong_quadrature(16, 32)[0]
                self._lip = float(self.batch_value(centres).max() / (1.0 - chord))
        return self._lip

    # -- d=2 Wulff polygon --------------------------------------------------

    def _polygon(self):
        """(edges, p, q, first, steps) of the Wulff polygon with vertices g_k =
        grad F(u_k) at the _TABLE_SIZE + 1 directions of
        ``_polygon_directions``: the cone edges and bucket table of
        ``_cone_edges``, the p_k, and the q_k of the _TABLE_SIZE cones.  p and
        q hold one coordinate per row, so each gather reads a contiguous array.
        """
        if self._poly is None:
            u = _polygon_directions(self.base)
            g = self.base.grad(u)
            p = np.ascontiguousarray((u / self.base.value(u)[:, None]).T)
            gamma = np.unwrap(np.arctan2(g[:, 1], g[:, 0]))
            if not np.all(np.diff(gamma) > 0):
                raise DomainError("the F-ball is not strictly convex")
            # q_k is normal to the chord c from g_k to g_{k+1}, scaled so that
            # q_k.g_k = q_k.g_{k+1} = 1; g_k x c equals g_k x g_{k+1} without
            # its cancellation
            c = np.diff(g, axis=0)
            q = np.stack([c[:, 1], -c[:, 0]])
            q /= g[:-1, 0] * c[:, 1] - g[:-1, 1] * c[:, 0]
            edges, first, steps = _cone_edges(gamma)
            self._poly = (edges, p, q, first, steps)
        return self._poly

    def _gauge(self, W):
        """(k, w.q_k) per row w of W, k the index of the cone [g_k, g_{k+1}]
        that holds w, unclipped.

        The angle of w is moved into [gamma_0, gamma_0 + 2 pi), and ``_cone``
        finds its cone in constant time: k is the last vertex angle gamma_k at
        or below it.  Angles rounded past either end take an end cone.
        """
        edges, _p, q, _first, _steps = self._polygon()
        x, y = W[:, 0], W[:, 1]
        psi = np.arctan2(y, x)
        psi[psi < edges[0]] += 2 * np.pi
        k = self._cone(psi)
        # the gathers clip k: gamma_N ends cone N - 1, and a NaN row keeps a
        # NaN value whichever cone it takes; hi takes over the buffer of
        # psi and the product the buffer of its gather, so at most three
        # arrays of len(W) rows are live at once, as in ``_cone``
        hi = np.multiply(x, q[0].take(k, mode="clip"), out=psi)
        t = q[1].take(k, mode="clip")
        hi += np.multiply(y, t, out=t)
        return k, hi

    def _cone(self, psi):
        """The cone k of each wrapped angle psi, with edges_k <= psi <
        edges_{k+1}, and 0 below edges_0: the bucket's first cone, then one
        compare-and-add per edge the bucket may hold.  A NaN angle takes an
        arbitrary cone."""
        edges, _p, _q, first, steps = self._polygon()
        k = _bucket(psi, edges)
        first.take(k, mode="clip", out=k)
        after = edges[1:]
        for _ in range(steps):
            k += psi >= after.take(k, mode="clip")
        return k

    # -- iterative path -----------------------------------------------------

    def _polar_minimize(self, W):
        """Damped Newton minimization of F(v)^2/2 - w.v, one row v per row w of W.

        The loop works on component-major (d, n) arrays of the rows still
        above the tolerance; each iteration takes F, grad F and the upper
        Hessian from one ``_value_grad_hess`` pass, the step from
        ``_newton_step``, and the next triple from the trial point that the
        line search accepts.  Every row returned passes the gap measured with
        ``value`` and ``grad``; otherwise the solve raises SolverError.
        """
        W = _finite_rows(W, self.dim)
        nw = _row_norm(W)
        if np.any(nw == 0.0):
            raise InputError("conjugate evaluation requires nonzero vectors")
        f = self.base
        what = W / nw[:, None]
        scale = f.value(what) * _row_norm(f.grad(what))
        v = np.ascontiguousarray((what * (nw / scale)[:, None]).T)

        # the rows of W still above the tolerance (None: all of them), with
        # their iterates x, targets w, norms |w| and the triple at x
        rows, x, w, norm, triple = None, v, np.ascontiguousarray(W.T), nw, None
        for _ in range(self.max_iterations):
            if triple is None:
                triple = f._value_grad_hess(x)
            fx, g, h = triple
            res = g * fx - w
            active = np.sqrt(_dot(res, res)) / norm > self.tolerance
            if not active.any():
                break
            if not active.all():
                keep = np.flatnonzero(active)
                x, w, norm, fx, g, h, res = (
                    a.take(keep, axis=-1) for a in (x, w, norm, fx, g, h, res)
                )
                rows = keep if rows is None else rows[keep]
            psi0 = 0.5 * fx**2 - _dot(w, x)
            step = _newton_step(fx, g, h, res)
            slope = _dot(res, step)
            # drop this iterate's arrays before the line search makes the next
            triple = fx = g = h = res = None
            x, triple = _line_search(f, x, step, w, psi0, slope)
            if rows is None:
                v = x
            else:
                v[:, rows] = x
        v = np.ascontiguousarray(v.T)

        def measured(v):
            """F(v) and the relative gap |F(v) grad F(v) - w| / |w| per row."""
            fv = f.value(v)
            return fv, _row_norm(fv[:, None] * f.grad(v) - W) / nw

        fv, gap = measured(v)
        bad = gap > self.tolerance
        if bad.any():
            if self.dim == 2:
                # w lies in the cone [g_k, g_{k+1}] of the Wulff polygon, so
                # its maximizer on the F-unit circle lies between p_k and
                # p_{k+1}, and v = (w.p_k) p_k starts within one cone of v*
                w = W[bad]
                k = self._gauge(w)[0].clip(0, _TABLE_SIZE - 1)
                p = self._polygon()[1][:, k].T
                v[bad] = self._newton_polish(w, p * _row_sum(w * p)[:, None])
            else:
                # strongly anisotropic sums stall the damped line search at
                # relative gaps up to a few 1e-6; undamped steps are trusted
                # only below 1e-4, so rows further off still raise below
                near = bad & (gap < 1e-4)
                v[near] = self._newton_polish(W[near], v[near])
            fv, gap = measured(v)
            bad = gap > self.tolerance
        if bad.any():
            i = int(np.argmax(gap))
            raise SolverError(
                f"conjugate solve did not converge within {self.max_iterations} "
                f"iterations (relative gap {gap[i]:.3e})",
                best=float(fv[i]),
                gap=float(gap[i]),
            )
        return v

    def _newton_polish(self, W, v):
        """Four undamped Newton steps on F(v) grad F(v) = w from inside the
        basin, for the rows w of W from the rows of v.

        The rows are turned component-major and each step is the damped
        loop's: one ``_value_grad_hess`` pass, then ``_newton_step``'s
        Cholesky solve of F grad^2 F + grad F grad F'.  The caller measures
        the result with ``value`` and ``grad``."""
        f = self.base
        w, x = np.ascontiguousarray(W.T), np.ascontiguousarray(v.T)
        for _ in range(4):
            fx, g, h = f._value_grad_hess(x)
            x = x + _newton_step(fx, g, h, g * fx - w)
        return x.T


def _dot(a, b):
    """The dot products of the columns of two (d, n) arrays."""
    return np.einsum("in,in->n", a, b)


def _newton_step(fx, g, h, res):
    """The Newton step s of F(v)^2/2 - w.v at the columns v of a (d, n) array,
    from F, grad F and the upper Hessian h of ``_value_grad_hess`` there and
    the residual res = F grad F - w: the solution of grad^2(F^2/2) s = -res.
    Overwrites h."""
    return _cholesky_solve(_squared_hessian(fx, g, h), -res)


def _squared_hessian(fx, g, h):
    """The upper entries of grad^2(F^2/2) = F grad^2 F + grad F grad F', entry
    by entry in the order of ``_upper_pairs``, formed in place in h."""
    h *= fx
    for k, (i, j) in enumerate(_upper_pairs(len(g))):
        h[k] += g[i] * g[j]
    return h


def _cholesky_solve(a, b):
    """The solution s of A s = b per column, for symmetric positive definite A
    given by its upper entries a (d (d + 1) / 2, n) in the order of
    ``_upper_pairs`` and b (d, n): a Cholesky factorization A = U'U unrolled
    over the components, then forward and back substitution.  Overwrites a
    with U, apart from its diagonal, which is kept as 1 / U_jj."""
    d = len(b)
    u = dict(zip(_upper_pairs(d), a))
    inv = []
    for j in range(d):
        for i in range(j, d):
            for m in range(j):
                u[j, i] -= u[m, j] * u[m, i]
        inv.append(1.0 / np.sqrt(u[j, j]))
        for i in range(j + 1, d):
            u[j, i] *= inv[j]
    s = np.array(b, dtype=float)
    for i in range(d):
        for m in range(i):
            s[i] -= u[m, i] * s[m]
        s[i] *= inv[i]
    for i in reversed(range(d)):
        for m in range(i + 1, d):
            s[i] -= u[i, m] * s[m]
        s[i] *= inv[i]
    return s


def _line_search(f, x, step, w, psi0, slope):
    """The backtracking line search of ``DualNorm._polar_minimize``: per
    column, the first trial point x + alpha step, alpha = 1, 1/2, ...,
    2^-39, that meets the Armijo test on psi(v) = F(v)^2/2 - w.v, else
    x + 2^-40 step.  Returns the new (d, n) iterates and their
    ``_value_grad_hess`` triple; an accepted trial keeps the triple its test
    evaluated.  A trial within 1e-300 of the origin is never accepted.
    """
    n = x.shape[1]
    new = triple = None
    pending = None  # the columns still searching; None: all of them
    alpha = 1.0
    for _ in range(40):
        cand = pending
        if cand is None:
            t = x + step
        else:
            t = x[:, cand] + alpha * step[:, cand]
        ok = np.sqrt(_dot(t, t)) > 1e-300
        if not ok.all():
            cand = np.flatnonzero(ok) if cand is None else cand[ok]
            t = t[:, ok]
        ft, gt, ht = f._value_grad_hess(t)
        p0, sl, wt = (a if cand is None else a[..., cand] for a in (psi0, slope, w))
        psi = 0.5 * ft**2 - _dot(wt, t)
        # cushion absorbs rounding of psi near the optimum, where the true
        # decrease falls below eps * |psi|
        good = psi <= p0 + 1e-4 * alpha * sl + 1e-15 * (1.0 + np.abs(p0))
        if cand is None and good.all():
            return t, (ft, gt, ht)
        if new is None:
            new, done = np.empty_like(x), np.zeros(n, dtype=bool)
            triple = (np.empty(n), np.empty_like(x), np.empty((len(ht), n)))
        took = np.flatnonzero(good) if cand is None else cand[good]
        new[:, took] = t[:, good]
        for a, b in zip(triple, (ft, gt, ht)):
            a[..., took] = b[..., good]
        done[took] = True
        pending = np.flatnonzero(~done)
        if not len(pending):
            return new, triple
        alpha *= 0.5
    t = x[:, pending] + alpha * step[:, pending]
    new[:, pending] = t
    for a, b in zip(triple, f._value_grad_hess(t)):
        a[..., pending] = b
    return new, triple


def _polygon_directions(f: Integrand):
    """The _TABLE_SIZE + 1 unit directions u_k of the d=2 Wulff polygon of f,
    the last one u_0 again after a full turn.

    With g(t) = grad F(u(t)), |g'| is the radius of curvature of the Wulff
    boundary at the normal u(t), so the chord from g(t) to g(t + dt) lies
    within |g'| dt^2 / 8 of it, and the gauge errs there by that over the
    support value F(u(t)).  The u_k are spaced in angle at the density
    sqrt(|g'| / F), measured from the chords of uniform angles, so every
    chord errs by about the same amount: (2 pi / _TABLE_SIZE)^2 / 8 =
    7.4e-8 on an ellipse of any aspect ratio, and no more on weighted sums.
    """
    t = np.linspace(0.0, 2 * np.pi, _TABLE_SIZE + 1)
    u = np.stack([np.cos(t), np.sin(t)], axis=1)
    chord = _row_norm(np.diff(f.grad(u), axis=0))
    arc = np.append(0.0, np.cumsum(np.sqrt(chord / f.value(u[:-1]))))
    t = np.interp(np.linspace(0.0, arc[-1], _TABLE_SIZE + 1), arc, t)
    # u_N = u(2 pi) closes the polygon and is the sentinel p_N
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _cone_edges(gamma):
    """(edges, first, steps), the cone lookup of ``DualNorm._cone`` for the
    increasing vertex angles gamma_0, ..., gamma_N.

    The edges are the vertex angles and a sentinel edges_{N+1} = inf.
    ``_bucket`` cuts [edges_0, edges_N) into _BUCKETS parts; first[b] counts
    the edges_1, ..., edges_N in buckets below b, and steps is the most that
    any one bucket holds.  The bucket is monotone in the angle, so an angle
    in bucket b lies above the edges of lower buckets and below those of
    higher ones.
    """
    edges = np.append(gamma, np.inf)
    bucket = _bucket(edges[1:-1], edges).clip(0, _BUCKETS - 1)
    first = np.searchsorted(bucket, np.arange(_BUCKETS))
    return edges, first, int(np.bincount(bucket).max())


def _bucket(psi, edges):
    """The lookup bucket of each angle psi, unclipped: a subtraction, a
    multiplication and a truncation, each monotone in psi."""
    t = psi - edges[0]
    t *= _BUCKETS / (edges[-2] - edges[0])
    return t.astype(np.intp)


_LIVE_DUALS = weakref.WeakValueDictionary()


def dual_norm_of(f: Integrand) -> DualNorm:
    """The live default ``DualNorm`` of the integrand object f, or a new one.

    Sharing it builds the lazily cached d=2 Wulff polygon and ``grad_bound``
    once per integrand object.  Entries are keyed by id(f) and live only as
    long as their DualNorm, whose ``base`` holds f, so an id is never reused
    while its entry exists.
    """
    dual = _LIVE_DUALS.get(id(f))
    if dual is None:
        dual = _LIVE_DUALS[id(f)] = DualNorm(f)
    return dual
