"""Basis sets defining structured noise patterns and their covariance.

A basis set is an ordered list [h_1 .. h_M] of fields over one data shape,
held as its read-only (M, d) element rows H: the Legendre + rotated
trigonometric family, the pixel indicators, or the single residual row
h_1 = degraded - clean of one (clean, degraded) pair.  The induced covariance
Sigma = H^T H is never formed: products go through H^T (H v), and solves
through one thin SVD of H.  The pixel basis is the exception: its H is the
identity, so it holds no rows, is never factored, and each product with it
is a copy.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npleg

from .fields import as_pair, cast

# Condition-number ceiling: directions of Sigma beyond it count as singular.
COND_LIMIT = 1e12
LEGENDRE_N1 = (int, 0, None)  # legendre_trig_basis's polynomial degree bound
LEGENDRE_N2 = (int, 2, None)  # and its trigonometric order bound


def __getattr__(name):
    # benchmark tracer only, retired by ROADMAP direction 1, which counts
    # CovarianceOp._factor instead
    if name == "sla":
        from scipy import linalg
        return linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SingularCovarianceError(RuntimeError):
    """Sigma is rank-deficient or too ill-conditioned to invert."""


class BasisSet:
    """Ordered basis functions [h_1 .. h_M] over a fixed data shape.

    The rows are None for the pixel basis alone (pixel_basis), whose
    elements are the identity: it is made when elements() asks, never kept.
    """

    def __init__(self, shape, elements):
        self.shape = tuple(int(n) for n in shape)
        if len(elements) < 1:
            raise ValueError("a basis set needs at least one element")
        rows = np.array(elements, dtype=np.float64).reshape(len(elements), -1)
        if rows.shape[1] != (int(np.prod(self.shape)) if self.shape else 0):
            raise ValueError("basis elements do not match the data shape")
        if not np.all(np.isfinite(rows)):
            raise ValueError("basis elements must be finite")
        rows.setflags(write=False)
        self._rows = rows

    @property
    def M(self) -> int:
        if self._rows is None:
            return math.prod(self.shape)
        return self._rows.shape[0]

    def elements(self) -> np.ndarray:
        """Stacked (M, d) element matrix; read-only."""
        if self._rows is None:
            eye = np.eye(self.M)
            eye.setflags(write=False)
            return eye
        return self._rows


def legendre_trig_basis(n1: int, n2: int, grid) -> BasisSet:
    """Legendre + rotated trigonometric family over [-1,1]^2.

    Polynomial part: P_m(x) P_n(y) for all m+n <= n1.  Trigonometric part:
    cos(n f) and sin(n f) for n in 2..n2 and rotations f(x,y,theta) =
    x cos(theta) + y sin(theta) with theta in {0, 10, .., 180} degrees.
    Every function is rescaled linearly over the grid so min -> 0.9 and
    max -> 1.1; constants map to 1.0 (midpoint of the degenerate range).
    """
    n1 = cast(n1, *LEGENDRE_N1, "n1")
    n2 = cast(n2, *LEGENDRE_N2, "n2")
    shape = tuple(int(n) for n in grid)
    if len(shape) != 2 or min(shape) < 1:
        raise ValueError("grid must be 2-D with positive extents")
    h, w = shape
    ys = np.linspace(-1.0, 1.0, h)[:, None]
    xs = np.linspace(-1.0, 1.0, w)[None, :]

    def unit(k):
        c = np.zeros(k + 1)
        c[k] = 1.0
        return c

    funcs = []
    for total in range(n1 + 1):
        for m in range(total + 1):
            n = total - m
            funcs.append(npleg.legval(xs, unit(m)) * npleg.legval(ys, unit(n)))
    for n in range(2, n2 + 1):
        for deg in range(0, 181, 10):
            th = math.radians(deg)
            f = xs * math.cos(th) + ys * math.sin(th)
            funcs.append(np.cos(n * f))
            funcs.append(np.sin(n * f))

    rows = np.empty((len(funcs), h * w))
    for i, fn in enumerate(funcs):
        fn = np.broadcast_to(fn, (h, w))
        lo, hi = float(fn.min()), float(fn.max())
        if hi - lo < 1e-12:
            rows[i] = 1.0
        else:
            rows[i] = (0.9 + 0.2 * (fn - lo) / (hi - lo)).reshape(-1)
    return BasisSet(shape, elements=rows)


def pixel_basis(shape) -> BasisSet:
    """One indicator element per pixel; Sigma is the identity."""
    shape = tuple(int(n) for n in shape)
    if not shape or math.prod(shape) < 1:
        raise ValueError("pixel basis needs at least one pixel")
    basis = BasisSet.__new__(BasisSet)
    basis.shape, basis._rows = shape, None
    return basis


def residual_basis(clean, degraded) -> BasisSet:
    """Single-element basis whose one row is h_1 = degraded - clean, for two
    Fields or arrays of one shape."""
    clean, degraded = as_pair(clean, degraded, "a residual basis")
    return BasisSet(clean.shape, elements=(degraded - clean).reshape(1, -1))


class CovarianceOp:
    """Sigma = sum_m h_m h_m^T for the element matrix of a basis.

    The (M, d) element rows H and their sum sum_m h_m (total) are kept, so
    no product re-reads the basis.  apply_flat() works at any size in
    O(M d).  Whitening and solves use one thin SVD of H = U S V^T, made once
    per operator (_factor); Sigma = V S^2 V^T itself is never formed.  The
    pixel basis has H = W = Sigma = I: it keeps no rows and is never
    factored, and each product returns a fresh copy of its operand.
    """

    def __init__(self, basis: BasisSet):
        self._rows = basis._rows
        if self._rows is None:
            self._d = basis.M
            self.total = np.ones(self._d)
        else:
            self._d = self._rows.shape[1]
            self.total = self._rows.sum(axis=0)
        self._factors = None

    def _copy(self, v, axis: int) -> np.ndarray:
        """v as a new float64 array, after the width check along axis that
        a product with the identity would make (ValueError)."""
        v = np.asarray(v)
        if v.ndim == 0 or v.shape[axis] != self._d:
            raise ValueError(f"operand of shape {v.shape} does not match "
                             f"d = {self._d}")
        return v.astype(np.float64)

    def mix(self, weights: np.ndarray) -> np.ndarray:
        """(n, d) rows sum_m w_m h_m for (n, M) weights: weights @ H."""
        if self._rows is None:
            return self._copy(weights, -1)
        return weights @ self._rows

    def diagonal(self) -> np.ndarray:
        """(d,) diagonal of Sigma, sum_m h_m^2."""
        if self._rows is None:
            return np.ones(self._d)
        return (self._rows ** 2).sum(axis=0)

    def apply_flat(self, v: np.ndarray) -> np.ndarray:
        # H^T (H v) for a (d,) vector or (d, k) columns: one (M,) contraction
        # then one (d,) accumulation per column
        if self._rows is None:
            return self._copy(v, 0)
        return self._rows.T @ (self._rows @ v)

    def _factor(self):
        """Make and cache (S_r^2, W) once per operator, W = S_r^{-1} V_r^T.

        r counts the singular values above s_max COND_LIMIT^{-1/2}, so Sigma
        on the kept range has a condition number under COND_LIMIT, and the
        (r, d) whitener gives W Sigma W^T = I_r.  A failed SVD raises
        SingularCovarianceError.
        """
        try:
            _, sv, vt = np.linalg.svd(self._rows, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError(str(exc)) from exc
        r = int(np.count_nonzero(sv > sv[0] * COND_LIMIT ** -0.5))
        # Fortran order makes W^T C-contiguous: at n = 8 states v @ W^T then
        # takes half the time it takes on a C-order W (d = 256)
        white = np.divide(vt[:r], sv[:r, None], order="F")
        self._factors = (sv[:r] ** 2, white)
        return self._factors

    def solve_flat(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^{-1} rhs = W^T (W rhs) for a (d,) vector or (d, k) columns;
        SingularCovarianceError when r < d, where the score is undefined."""
        if self._rows is None:
            return self._copy(rhs, 0)
        white = (self._factors or self._factor())[1]
        if white.shape[0] < self._d:
            raise SingularCovarianceError(
                f"rank {white.shape[0]} < d = {self._d}")
        return white.T @ (white @ rhs)

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """W v for one (d,) vector, or each row of (n, d) as (n, r) rows.

        Whitened vectors turn Sigma^{-1} quadratic forms on the range of
        Sigma into squared norms, r^T Sigma^+ r = |W r|^2.
        """
        if self._rows is None:
            return self._copy(v, -1)
        return v @ (self._factors or self._factor())[1].T

    def out_of_range(self, v: np.ndarray) -> np.ndarray:
        """(I - V_r V_r^T) v per row, the part of v outside Sigma's range;
        V_r V_r^T = W^T S_r^2 W."""
        if self._rows is None:
            return v - self._copy(v, -1)
        sv2, white = self._factors or self._factor()
        return v - ((v @ white.T) * sv2) @ white
