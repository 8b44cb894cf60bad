"""Basis sets defining structured noise patterns and their covariance.

A basis set is an ordered list [h_1 .. h_M] of fields over one data shape.
Fixed-mode sets (Legendre + rotated trigonometric family, pixel indicators)
are constants of the model; sample-dependent sets produce their elements from
a (clean, degraded) pair, e.g. the single-element residual basis
h_1 = degraded - clean, and resolve() turns one such pair into a fixed set
once, so everything downstream sees fixed rows.  The induced covariance
Sigma = H^T H of the (M, d) element rows H is never formed: products go
through H^T (H v), and solves through one thin SVD of H.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npleg

from .fields import Field

# Condition-number ceiling: directions of Sigma beyond it count as singular.
COND_LIMIT = 1e12


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
    """Ordered basis functions [h_1 .. h_M] over a fixed data shape."""

    def __init__(self, shape, elements=None, provider=None, size=None):
        self.shape = tuple(int(n) for n in shape)
        self._d = int(np.prod(self.shape)) if self.shape else 0
        if (elements is None) == (provider is None):
            raise ValueError("give exactly one of elements or provider")
        if elements is not None:
            rows = np.array(elements, dtype=np.float64).reshape(len(elements), -1)
            if rows.shape[1] != self._d:
                raise ValueError("basis elements do not match the data shape")
            if rows.shape[0] < 1:
                raise ValueError("a basis set needs at least one element")
            if not np.all(np.isfinite(rows)):
                raise ValueError("basis elements must be finite")
            rows.setflags(write=False)
            self.mode = "fixed"
            self._rows = rows
            self._provider = None
            self._size = rows.shape[0]
        else:
            if size is None or size < 1:
                raise ValueError("sample-dependent basis needs a declared size")
            self.mode = "sample-dependent"
            self._rows = None
            self._provider = provider
            self._size = int(size)

    @classmethod
    def from_elements(cls, fields_or_rows, shape) -> "BasisSet":
        """Fixed basis from an (M, d) array or a list of Fields."""
        rows = [f.values if isinstance(f, Field) else f for f in fields_or_rows]
        return cls(shape, elements=np.asarray(rows, dtype=np.float64))

    @property
    def M(self) -> int:
        return self._size

    def elements(self) -> np.ndarray:
        """Stacked (M, d) element matrix of a fixed set; read-only."""
        if self._rows is None:
            raise ValueError("sample-dependent basis: resolve it with a "
                             "(clean, degraded) pair first")
        return self._rows

    def resolve(self, pair) -> "BasisSet":
        """The fixed set for one (clean, degraded) Field pair: self for a
        fixed set, else the provider's rows for the pair, made once."""
        if self.mode == "fixed":
            return self
        clean, degraded = pair
        if clean.shape != self.shape or degraded.shape != self.shape:
            raise ValueError("(clean, degraded) pair does not match the "
                             "data shape")
        rows = np.asarray(self._provider(clean, degraded), dtype=np.float64)
        return BasisSet(self.shape, elements=rows.reshape(self._size, self._d))


def legendre_trig_basis(n1: int, n2: int, grid) -> BasisSet:
    """Legendre + rotated trigonometric family over [-1,1]^2.

    Polynomial part: P_m(x) P_n(y) for all m+n <= n1.  Trigonometric part:
    cos(n f) and sin(n f) for n in 2..n2 and rotations f(x,y,theta) =
    x cos(theta) + y sin(theta) with theta in {0, 10, .., 180} degrees.
    Every function is rescaled linearly over the grid so min -> 0.9 and
    max -> 1.1; constants map to 1.0 (midpoint of the degenerate range).
    """
    if n1 < 0:
        raise ValueError("polynomial degree bound must be non-negative")
    if n2 < 2:
        raise ValueError("trigonometric order bound must be at least 2")
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
    d = int(np.prod(shape))
    if d < 1:
        raise ValueError("pixel basis needs at least one pixel")
    return BasisSet(shape, elements=np.eye(d))


def residual_basis(clean: Field, degraded: Field) -> BasisSet:
    """Single-element, sample-dependent basis h_1 = degraded - clean.

    The passed pair fixes the data shape; resolve() makes the element for
    whichever pair it is given.
    """
    if clean.shape != degraded.shape:
        raise ValueError(f"shape mismatch: {clean.shape} vs {degraded.shape}")

    def provider(c, d):
        return (d.values - c.values).reshape(1, -1)

    return BasisSet(clean.shape, provider=provider, size=1)


class CovarianceOp:
    """Sigma = sum_m h_m h_m^T for the element matrix of a fixed basis.

    The (M, d) element rows H and their sum sum_m h_m (total) are kept, so
    no product re-reads the basis.  apply_flat() works at any size in
    O(M d).  Whitening and solves use one thin SVD of H = U S V^T, made once
    per operator (_factor); Sigma = V S^2 V^T itself is never formed.
    """

    def __init__(self, basis: BasisSet):
        self.basis = basis
        self.rows = basis.elements()
        self.total = self.rows.sum(axis=0)
        self._d = self.rows.shape[1]
        self._factors = None

    def apply_flat(self, v: np.ndarray) -> np.ndarray:
        # H^T (H v) for a (d,) vector or (d, k) columns: one (M,) contraction
        # then one (d,) accumulation per column
        return self.rows.T @ (self.rows @ v)

    def _factor(self):
        """Make and cache (S_r^2, W) once per operator, W = S_r^{-1} V_r^T.

        r counts the singular values above s_max COND_LIMIT^{-1/2}, so Sigma
        on the kept range has a condition number under COND_LIMIT, and the
        (r, d) whitener gives W Sigma W^T = I_r.  A failed SVD raises
        SingularCovarianceError.
        """
        try:
            _, sv, vt = np.linalg.svd(self.rows, full_matrices=False)
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
        return v @ (self._factors or self._factor())[1].T

    def out_of_range(self, v: np.ndarray) -> np.ndarray:
        """(I - V_r V_r^T) v per row, the part of v outside Sigma's range;
        V_r V_r^T = W^T S_r^2 W."""
        sv2, white = self._factors or self._factor()
        return v - ((v @ white.T) * sv2) @ white
