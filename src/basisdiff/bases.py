"""Basis sets defining structured noise patterns and their covariance.

A basis set is an ordered list [h_1 .. h_M] of fields over one data shape.
Fixed-mode sets (Legendre + rotated trigonometric family, pixel indicators)
are constants of the model; sample-dependent sets produce their elements from
a conditioning pair (clean, degraded), e.g. the single-element residual
basis h_1 = degraded - clean.  The induced covariance Sigma = H H^T is only
materialized at toy dimensions; the operator form H(H^T v) covers the rest.

scipy is not imported with this module: ``scipy.linalg`` loads at the first
covariance factorization, so a run that never factors Sigma (training, a
network restore) never pays its import.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npleg

from .fields import Field

# Largest dimension at which dense Sigma (d x d) may be materialized.
DENSE_COV_LIMIT = 4096
# Condition-number ceiling beyond which Sigma counts as numerically singular.
COND_LIMIT = 1e12


def __getattr__(name):
    # `bases.sla` is kept for the benchmark tracer and the tests that patch it
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

    def elements(self, conditioning=None) -> np.ndarray:
        """Stacked (M, d) element matrix; read-only.

        Fixed mode ignores conditioning entirely; sample-dependent mode
        requires a (clean, degraded) Field pair of the data shape.
        """
        if self.mode == "fixed":
            return self._rows
        if conditioning is None:
            raise ValueError("sample-dependent basis requires a conditioning pair")
        clean, degraded = conditioning
        if clean.shape != self.shape or degraded.shape != self.shape:
            raise ValueError("conditioning pair does not match the data shape")
        rows = np.asarray(self._provider(clean, degraded),
                          dtype=np.float64).reshape(self._size, self._d)
        return rows


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

    The passed pair fixes the data shape; the elements produced later follow
    whatever conditioning pair the caller supplies.
    """
    if clean.shape != degraded.shape:
        raise ValueError(f"shape mismatch: {clean.shape} vs {degraded.shape}")

    def provider(c, d):
        return (d.values - c.values).reshape(1, -1)

    return BasisSet(clean.shape, provider=provider, size=1)


class CovarianceOp:
    """Sigma = sum_m h_m h_m^T for one resolved element matrix.

    apply() works at any size in O(M d).  The dense matrix, the condition
    estimate and the whitener W = L^{-1} (Sigma = L L^T) exist only up to
    DENSE_COV_LIMIT; W is made once per operator and is then its only
    d x d array, so every whitening or solve is a matrix product.
    """

    def __init__(self, basis: BasisSet, conditioning=None):
        self.basis = basis
        self._rows = basis.elements(conditioning)
        self.shape = basis.shape
        self._d = self._rows.shape[1]
        self._dense = None
        self._cond = None
        self._white = None

    def apply(self, v: Field) -> Field:
        if v.shape != self.shape:
            raise ValueError(f"shape mismatch: {v.shape} vs {self.shape}")
        return Field(self.apply_flat(v.flat()).reshape(self.shape))

    def apply_flat(self, v: np.ndarray) -> np.ndarray:
        # H (H^T v): one (M,) contraction then one (d,) accumulation
        return self._rows.T @ (self._rows @ v)

    def dense(self) -> np.ndarray:
        if self._d > DENSE_COV_LIMIT:
            raise ValueError(
                f"dense covariance capped at d <= {DENSE_COV_LIMIT}; d = {self._d}")
        if self._dense is None:
            m = self._rows.T @ self._rows
            m.setflags(write=False)
            self._dense = m
        return self._dense

    def condition(self) -> float:
        if self._cond is None:
            self._cond = float(np.linalg.cond(self.dense()))
        return self._cond

    def _whitener(self) -> np.ndarray:
        """Cached lower-triangular W = L^{-1} for Sigma = L L^T.

        One Cholesky factorization, then LAPACK trtri inverts the factor in
        place, so no second d x d array is made; the strict upper triangle
        (left over from the factorization) is zeroed.  Dense Sigma is
        dropped once W exists.  Raises SingularCovarianceError when
        rank < d or the condition estimate exceeds COND_LIMIT; no
        pseudo-inverse fallback.  scipy.linalg is imported here, at the first
        factorization; cho_factor and dtrtri are read from the module at
        call time, so a patched attribute is seen.
        """
        if self._white is None:
            from scipy import linalg as sla

            if self._rows.shape[0] < self._d:
                raise SingularCovarianceError(
                    f"rank <= {self._rows.shape[0]} < d = {self._d}")
            cond = self.condition()
            if not math.isfinite(cond) or cond > COND_LIMIT:
                raise SingularCovarianceError(f"condition estimate {cond:.3e}")
            try:
                factor, _ = sla.cho_factor(self.dense(), lower=True)
            except np.linalg.LinAlgError as exc:
                raise SingularCovarianceError(str(exc)) from exc
            white, info = sla.lapack.dtrtri(factor, lower=1, overwrite_c=1)
            if info != 0:
                raise SingularCovarianceError(
                    f"triangular inverse failed (info = {info})")
            for j in range(1, self._d):
                white[:j, j] = 0.0
            self._white = white
            self._dense = None
        return self._white

    def solve_flat(self, rhs: np.ndarray) -> np.ndarray:
        """Sigma^{-1} rhs = W^T (W rhs) for a (d,) vector or (d, k) columns."""
        white = self._whitener()
        return white.T @ (white @ rhs)

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """W v = L^{-1} v for Sigma = L L^T: one (d,) vector or each row of (n, d).

        Whitened vectors turn Sigma^{-1} quadratic forms into squared norms,
        r^T Sigma^{-1} r = |W r|^2.
        """
        return v @ self._whitener().T

    def solve(self, v: Field) -> Field:
        if v.shape != self.shape:
            raise ValueError(f"shape mismatch: {v.shape} vs {self.shape}")
        return Field(self.solve_flat(v.flat()).reshape(self.shape))
