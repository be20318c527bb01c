"""Conjugate norms, their gradients, and exact Wulff-shape boundary samples.

The conjugate norm of F is F*(w) = sup { w.u : F(u) <= 1 }; its balls are
the Wulff shapes of F.  For the Euclidean and quadratic families closed
forms are used (Euclidean is self-dual, quadratic M dualizes to M^-1);
for weighted sums the supremum is computed by a damped Newton iteration
on the strictly convex problem

    minimize  F(v)^2 / 2 - w.v   over v in R^d,

whose unique minimizer v* satisfies F(v*) = F*(w) and v*/F(v*) = grad F*(w).
This is the gradient-alignment fixed point F(v) grad F(v) = w solved with
second-order steps; a golden-section search on the unit circle provides a
d=2 fallback.  Closed forms are preferred in production; the iterative
path is cross-checked against them in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, InputError, SolverError
from .integrand import EuclideanNorm, Integrand, QuadraticNorm

__all__ = ["DualNorm", "WulffSample", "wulff_sample"]

_TABLE_SIZE = 8192
_BRACKET_SIZE = 1024
# rounding allowance of batch_bracket, relative to |w| max_k max(|p_k|, |q_k|)
_BRACKET_ROUNDING = 1e-12


@dataclass
class DualNorm:
    """Conjugate-norm evaluator for a base integrand.

    ``tolerance`` is relative; iterates stop once |F(v) grad F(v) - w|
    drops below tolerance * |w|.  Evaluations are pure; the lazily built
    tables and ``grad_bound`` are idempotent caches, so concurrent use is
    safe.
    """

    base: Integrand
    max_iterations: int = 60
    tolerance: float = 1e-10
    _table: Optional[tuple] = field(default=None, repr=False, compare=False)
    _bracket: Optional[tuple] = field(default=None, repr=False, compare=False)
    _lip: Optional[float] = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def has_closed_form(self) -> bool:
        return isinstance(self.base, (EuclideanNorm, QuadraticNorm))

    # -- exact evaluation ---------------------------------------------------

    def value(self, w) -> float:
        return float(self.batch_value(np.asarray(w, dtype=float)[None, :])[0])

    def grad(self, w):
        return self.batch_grad(np.asarray(w, dtype=float)[None, :])[0]

    def batch_value(self, W):
        """F* row by row; F*(0) = 0 by homogeneity."""
        W = np.asarray(W, dtype=float)
        if isinstance(self.base, EuclideanNorm):
            return np.linalg.norm(W, axis=1)
        if isinstance(self.base, QuadraticNorm):
            return np.sqrt(np.einsum("ni,ij,nj->n", W, self.base.inverse, W))
        zero = ~W.any(axis=1)
        if zero.any():
            out = np.zeros(len(W))
            out[~zero] = self.batch_value(W[~zero])
            return out
        v = self._polar_minimize(W)
        return self.base.value(v)

    def batch_grad(self, W):
        W = np.asarray(W, dtype=float)
        if not W.any(axis=1).all():
            raise DomainError("conjugate norm is not differentiable at the origin")
        if isinstance(self.base, EuclideanNorm):
            return W / np.linalg.norm(W, axis=1)[:, None]
        if isinstance(self.base, QuadraticNorm):
            mw = W @ self.base.inverse
            f = np.sqrt(np.einsum("ni,ni->n", W, mw))
            return mw / f[:, None]
        v = self._polar_minimize(W)
        return v / self.base.value(v)[:, None]

    def batch_value_fast(self, W):
        """Vectorized F* for bulk grids; interpolates a direction table in d=2.

        Table interpolation error is O((2 pi / table size)^2), far below the
        grid tolerances of the distance module.  Closed-form families and
        dimensions >= 3 evaluate exactly.
        """
        W = np.asarray(W, dtype=float)
        if self.has_closed_form or self.dim != 2:
            return self.batch_value(W)
        angles, vals = self._direction_table()
        x, y = W[:, 0], W[:, 1]
        # arctan2 lies in [-pi, pi], where adding 2 pi to the negative angles
        # gives the bits of np.mod(theta, 2 pi); sqrt(x*x + y*y) gives those
        # of norm(axis=1)
        theta = np.arctan2(y, x)
        theta[theta < 0] += 2 * np.pi
        return np.sqrt(x * x + y * y) * np.interp(theta, angles, vals)

    def batch_bracket(self, W):
        """(lo, hi) with lo <= F*(w) <= hi row by row, from closed forms only (d=2).

        A table holds, at 1024 unit directions u_k in angular order,
        g_k = grad F(u_k) and p_k = u_k / F(u_k).  Both bounds are exact:

        - F*(w) = sup { w.p : F(p) <= 1 } and F(p_k) = 1, so F*(w) >= w.p_k;
          lo is the larger of w.p_k and w.p_{k+1}.
        - F*(g_k) = 1: grad F(u).v <= F(v) for every v by convexity and
          1-homogeneity, with equality at v = p_k.  The F-ball is strictly
          convex, so the angles of the g_k increase with k and w lies in one
          cone [g_k, g_{k+1}]: w = alpha g_k + beta g_{k+1} with alpha,
          beta >= 0.  F* is convex and 1-homogeneous, so
          F*(w) <= alpha F*(g_k) + beta F*(g_{k+1}) = alpha + beta = hi.
          The table stores q_k with q_k.g_k = q_k.g_{k+1} = 1, so hi = w.q_k.

        Rounding: q_k is formed from the chord g_{k+1} - g_k and from
        g_k x (g_{k+1} - g_k), which has no cancellation, so the table's
        identities hold to a few ulps; lo and hi are two-term dot products with
        |p_k| and |q_k| at most about L, the Lipschitz constant of F*; a row
        within rounding of a cone's edge may take the neighbouring cone, whose
        hi agrees there to O(u L |w|).  Against an independent golden-section
        F* on random weighted sums the unwidened bounds are off by at most
        about 6 u L |w| (u = 2^-53).  Both are widened by
        1e-12 |w| max_k max(|p_k|, |q_k|), over a thousand times that.  The
        bracket is O(1024^-2) F*(w) wide: about 1e-5 to 1e-4 on weighted sums.
        """
        W = np.asarray(W, dtype=float)
        if self.dim != 2:
            raise InputError("the conjugate bracket is two-dimensional")
        gamma, p, q, scale = self._bracket_table()
        x, y = W[:, 0], W[:, 1]
        psi = gamma[0] + np.mod(np.arctan2(y, x) - gamma[0], 2 * np.pi)
        k = np.clip(np.searchsorted(gamma, psi, side="right") - 1, 0, _BRACKET_SIZE - 1)
        k1 = (k + 1) % _BRACKET_SIZE
        lo = np.maximum(x * p[k, 0] + y * p[k, 1], x * p[k1, 0] + y * p[k1, 1])
        hi = x * q[k, 0] + y * q[k, 1]
        slack = scale * np.sqrt(x * x + y * y)
        return lo - slack, hi + slack

    def grad_bound(self) -> float:
        """An upper bound on |grad F*|, the Lipschitz constant of F*; cached.

        It is exact for the closed forms.  Otherwise it is max_k F*(u_k) / (1 - c)
        over the 512-node direction set, whose nodes lie within the angle
        theta_c of every unit vector w, at chord c = 2 sin(theta_c / 2): the
        constant L = max_|w|=1 F*(w) satisfies F*(w) <= F*(u_k) + L c.
        """
        if self._lip is None:
            if isinstance(self.base, EuclideanNorm):
                self._lip = 1.0
            elif isinstance(self.base, QuadraticNorm):
                self._lip = float(np.sqrt(np.linalg.eigvalsh(self.base.inverse).max()))
            else:
                u = _unit_directions(self.dim, 512)
                # d=2: angles 2 pi / 512 apart; d=3: 16 rows and 32 columns
                # pi / 16 apart, so a unit vector is within half a row plus
                # half a column
                theta_c = np.pi / 512 if self.dim == 2 else np.pi / 16
                chord = 2.0 * np.sin(theta_c / 2.0)
                self._lip = float(self.batch_value(u).max() / (1.0 - chord))
        return self._lip

    # -- iterative path -----------------------------------------------------

    def _direction_table(self):
        """(angles, F*) at _TABLE_SIZE directions, padded by one node on each
        side across 0 = 2 pi, as np.interp(..., period=2 pi) pads them."""
        if self._table is None:
            angles = np.linspace(0.0, 2 * np.pi, _TABLE_SIZE, endpoint=False)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            vals = self.batch_value(dirs)
            self._table = (
                np.concatenate((angles[-1:] - 2 * np.pi, angles, angles[:1] + 2 * np.pi)),
                np.concatenate((vals[-1:], vals, vals[:1])),
            )
        return self._table

    def _bracket_table(self):
        """(gamma, p, q, scale) for ``batch_bracket``: the unwrapped angles of
        the g_k with gamma_0 + 2 pi appended, the p_k, the q_k, and the
        rounding allowance per unit |w|."""
        if self._bracket is None:
            u = _unit_directions(2, _BRACKET_SIZE)
            g = self.base.grad(u)
            p = u / self.base.value(u)[:, None]
            gamma = np.unwrap(np.arctan2(g[:, 1], g[:, 0]))
            gamma = np.append(gamma, gamma[0] + 2 * np.pi)
            if not np.all(np.diff(gamma) > 0):
                raise DomainError("the F-ball is not strictly convex")
            # q_k is normal to the chord c from g_k to g_{k+1}, scaled so that
            # q_k.g_k = q_k.g_{k+1} = 1; g_k x c equals g_k x g_{k+1} without
            # its cancellation
            c = np.roll(g, -1, axis=0) - g
            q = np.stack([c[:, 1], -c[:, 0]], axis=1)
            q /= (g[:, 0] * c[:, 1] - g[:, 1] * c[:, 0])[:, None]
            size = max(np.linalg.norm(p, axis=1).max(), np.linalg.norm(q, axis=1).max())
            self._bracket = (gamma, p, q, _BRACKET_ROUNDING * float(size))
        return self._bracket

    def _polar_minimize(self, W):
        """Newton minimization of F(v)^2/2 - w.v, one row per input vector."""
        W = np.atleast_2d(np.asarray(W, dtype=float))
        if np.any(np.linalg.norm(W, axis=1) == 0.0):
            raise InputError("conjugate evaluation requires nonzero vectors")
        f = self.base
        nw = np.linalg.norm(W, axis=1)
        what = W / nw[:, None]
        scale = f.value(what) * np.linalg.norm(f.grad(what), axis=1)
        v = what * (nw / scale)[:, None]

        active = np.ones(len(W), dtype=bool)
        for _ in range(self.max_iterations):
            fv = f.value(v)
            g = f.grad(v)
            res = fv[:, None] * g - W
            gap = np.linalg.norm(res, axis=1) / nw
            active = gap > self.tolerance
            if not active.any():
                return v
            idx = np.nonzero(active)[0]
            va, fa, ga = v[idx], fv[idx], g[idx]
            hess = fa[:, None, None] * f.hess(va) + ga[:, :, None] * ga[:, None, :]
            step = np.linalg.solve(hess, -res[idx][..., None])[..., 0]
            psi0 = 0.5 * fa**2 - np.einsum("ni,ni->n", W[idx], va)
            slope = np.einsum("ni,ni->n", res[idx], step)
            alpha = np.ones(len(idx))
            accepted = np.zeros(len(idx), dtype=bool)
            vnew = va.copy()
            for _ in range(40):
                trial = va + alpha[:, None] * step
                ok = np.linalg.norm(trial, axis=1) > 1e-300
                psi = np.full(len(idx), np.inf)
                psi[ok] = 0.5 * f.value(trial[ok]) ** 2 - np.einsum(
                    "ni,ni->n", W[idx][ok], trial[ok]
                )
                # cushion absorbs rounding of psi near the optimum, where the
                # true decrease falls below eps * |psi|
                good = (~accepted) & (
                    psi <= psi0 + 1e-4 * alpha * slope + 1e-15 * (1.0 + np.abs(psi0))
                )
                vnew[good] = trial[good]
                accepted |= good
                if accepted.all():
                    break
                alpha[~accepted] *= 0.5
            vnew[~accepted] = va[~accepted] + alpha[~accepted, None] * step[~accepted]
            v[idx] = vnew

        fv = f.value(v)
        res = fv[:, None] * f.grad(v) - W
        gap = np.linalg.norm(res, axis=1) / nw
        bad = gap > self.tolerance
        if self.dim == 2 and bad.any():
            # golden section localizes the flat maximum only to sqrt(eps) in
            # angle; a few undamped Newton steps polish it from inside the basin
            vb = self._golden_fallback(W[bad])
            for _ in range(4):
                fb, gb = f.value(vb), f.grad(vb)
                rb = fb[:, None] * gb - W[bad]
                hb = fb[:, None, None] * f.hess(vb) + gb[:, :, None] * gb[:, None, :]
                vb = vb + np.linalg.solve(hb, -rb[..., None])[..., 0]
            v[bad] = vb
            fv = f.value(v)
            res = fv[:, None] * f.grad(v) - W
            gap = np.linalg.norm(res, axis=1) / nw
            bad = gap > max(self.tolerance, 1e-9)
        if bad.any():
            i = int(np.argmax(gap))
            raise SolverError(
                f"conjugate solve did not converge within {self.max_iterations} "
                f"iterations (relative gap {gap[i]:.3e})",
                best=float(fv[i]),
                gap=float(gap[i]),
            )
        return v

    def _golden_fallback(self, W):
        """Maximize w.u over the F-unit circle by grid bracketing + golden section."""
        f = self.base
        thetas = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        units = dirs / f.value(dirs)[:, None]
        out = np.empty_like(W)
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        for k, w in enumerate(W):
            best = int(np.argmax(units @ w))
            a = thetas[best] - 2 * np.pi / 720
            b = thetas[best] + 2 * np.pi / 720

            def s(theta, w=w):
                u = np.array([np.cos(theta), np.sin(theta)])
                return float(w @ (u / f.value(u)))

            c, d = b - invphi * (b - a), a + invphi * (b - a)
            fc, fd = s(c), s(d)
            while b - a > 1e-14:
                if fc < fd:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    fd = s(d)
                else:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    fc = s(c)
            theta = 0.5 * (a + b)
            u = np.array([np.cos(theta), np.sin(theta)])
            u /= f.value(u)
            # scale so that F(v) grad F(v) = w holds at the maximizer
            out[k] = u * (w @ u)
        return out


@dataclass(frozen=True, eq=False)
class WulffSample:
    """Boundary sample of the F*-ball around ``center`` with exact unit normals.

    Node k lies at center + radius * grad F(nu_k) where nu_k is the unit
    outward Euclidean normal of the boundary at that node; the Gauss map of
    a Wulff boundary is inverted in closed form this way.
    """

    center: np.ndarray
    radius: float
    points: np.ndarray
    normals: np.ndarray
    resolution: int

    def to_csv(self, path):
        data = np.hstack([self.points, self.normals])
        header = ",".join(
            [f"x{i+1}" for i in range(self.points.shape[1])]
            + [f"nu{i+1}" for i in range(self.points.shape[1])]
        )
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def _unit_directions(dim, resolution):
    """Node grid on the Euclidean sphere: uniform angles (d=2) or
    latitude-longitude rows with the poles collapsed to single nodes (d=3)."""
    if dim == 2:
        theta = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        n_lat = max(2, int(round(np.sqrt(resolution / 2.0))))
        n_long = 2 * n_lat
        theta = np.linspace(0.0, np.pi, n_lat + 1)[1:-1]
        phi = np.linspace(0.0, 2 * np.pi, n_long, endpoint=False)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        return np.concatenate([poles, dirs], axis=0)
    raise InputError(f"unsupported dimension {dim}")


def wulff_sample(dual: DualNorm, center, r: float, resolution: int) -> WulffSample:
    """Sample the boundary of the F*-ball B(center, r) with exact normals."""
    if r <= 0:
        raise InputError("Wulff radius must be positive")
    center = np.asarray(center, dtype=float)
    if center.shape != (dual.dim,):
        raise InputError(f"center must be a {dual.dim}-vector")
    min_res = 16 if dual.dim == 2 else 256
    if resolution < min_res:
        raise InputError(f"resolution must be >= {min_res} in dimension {dual.dim}")
    nu = _unit_directions(dual.dim, resolution)
    points = center[None, :] + r * dual.base.grad(nu)
    return WulffSample(
        center=center, radius=float(r), points=points, normals=nu, resolution=len(nu)
    )
