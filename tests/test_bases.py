import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basisdiff import bases
from basisdiff.bases import (BasisSet, CovarianceOp, SingularCovarianceError,
                             legendre_trig_basis, pixel_basis, residual_basis)
from basisdiff.fields import Field, Rng


def _oracle_legendre_trig(n1, n2, h, w):
    """Independent reconstruction of the scaled polynomial + wave family."""
    ys = np.linspace(-1.0, 1.0, h)[:, None]
    xs = np.linspace(-1.0, 1.0, w)[None, :]
    leg = [
        lambda u: np.ones_like(u),
        lambda u: u,
        lambda u: 1.5 * u ** 2 - 0.5,
        lambda u: 2.5 * u ** 3 - 1.5 * u,
    ]
    raw = []
    for total in range(n1 + 1):
        for m in range(total + 1):
            raw.append(leg[m](xs) * leg[total - m](ys))
    for n in range(2, n2 + 1):
        for deg in range(0, 181, 10):
            th = math.radians(deg)
            f = xs * math.cos(th) + ys * math.sin(th)
            raw.append(np.cos(n * f))
            raw.append(np.sin(n * f))
    rows = np.empty((len(raw), h * w))
    for i, fn in enumerate(raw):
        fn = np.broadcast_to(fn, (h, w)).astype(float)
        lo, hi = fn.min(), fn.max()
        rows[i] = 1.0 if hi - lo < 1e-12 else \
            (0.9 + 0.2 * (fn - lo) / (hi - lo)).reshape(-1)
    return rows


def test_family_sizes():
    grid = (16, 16)
    assert legendre_trig_basis(3, 5, grid).M == 162
    assert legendre_trig_basis(3, 2, grid).M == 10 + 38
    assert legendre_trig_basis(0, 2, grid).M == 1 + 38


def test_family_matches_independent_reconstruction():
    b = legendre_trig_basis(3, 3, (4, 5))
    expect = _oracle_legendre_trig(3, 3, 4, 5)
    assert b.elements().shape == expect.shape
    assert np.allclose(b.elements(), expect, atol=1e-12)
    s = b.elements().sum(axis=0)
    assert np.allclose(s, expect.sum(axis=0), rtol=1e-13)


def test_family_scaling_range():
    rows = legendre_trig_basis(2, 4, (8, 9)).elements()
    first = rows[0]
    assert np.all(first == 1.0)  # constant term maps to the midpoint
    for row in rows[1:]:
        assert row.min() == pytest.approx(0.9, abs=1e-12)
        assert row.max() == pytest.approx(1.1, abs=1e-12)
        assert row.min() >= 0.9 - 1e-12 and row.max() <= 1.1 + 1e-12


def test_family_argument_errors():
    with pytest.raises(ValueError):
        legendre_trig_basis(-1, 3, (4, 4))
    with pytest.raises(ValueError):
        legendre_trig_basis(2, 1, (4, 4))
    with pytest.raises(ValueError):
        legendre_trig_basis(2, 3, (4,))
    with pytest.raises(ValueError):
        legendre_trig_basis(2, 3, (4, 0))


def test_pixel_basis_identity_covariance():
    b = pixel_basis((2, 2))
    assert b.M == 4
    op = CovarianceOp(b)
    rows = b.elements()
    assert np.array_equal(rows.T @ rows, np.eye(4))
    v = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(op.apply_flat(v), v)
    assert pixel_basis((1, 1)).M == 1
    with pytest.raises(ValueError):
        pixel_basis((0,))


def test_residual_basis_tracks_conditioning():
    clean = Field([0.0, 0.0])
    degraded = Field([1.0, 2.0])
    b = residual_basis(clean, degraded)
    assert b.M == 1 and b.shape == (2,)
    assert np.array_equal(b.elements(), [[1.0, 2.0]])
    assert np.array_equal(b.elements().sum(axis=0), [1.0, 2.0])
    op = CovarianceOp(b)
    assert np.array_equal(op.apply_flat(np.eye(2)), [[1.0, 2.0], [2.0, 4.0]])
    # each pair makes its own residual row
    other = residual_basis(degraded, Field([0.0, 5.0]))
    assert np.array_equal(other.elements(), [[-1.0, 3.0]])
    # same-image pair: residual direction collapses to zero
    z = CovarianceOp(residual_basis(clean, clean)).apply_flat(np.eye(2))
    assert np.all(z == 0.0)


def test_residual_basis_requires_conditioning():
    # the pair fixes the data shape, so its two fields must share one
    with pytest.raises(ValueError, match="shape mismatch"):
        residual_basis(Field([0.0]), Field([1.0, 2.0]))


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one element"):
        BasisSet((2,), elements=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="at least one element"):
        BasisSet((2,), [])
    with pytest.raises(ValueError):
        BasisSet((2,), elements=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        BasisSet((2,), elements=[[1.0, np.nan]])
    b = BasisSet((2,), [Field([1.0, 2.0]), Field([0.0, 1.0])])
    assert b.M == 2 and np.array_equal(b.elements(), [[1.0, 2.0], [0.0, 1.0]])


def test_elements_are_read_only():
    rows = legendre_trig_basis(1, 2, (2, 2)).elements()
    with pytest.raises(ValueError):
        rows[0, 0] = 7.0


def test_operator_matches_dense_product():
    rng = Rng(3)
    rows = rng.standard_normal((5, 3)) + 0.3
    b = BasisSet((3,), elements=rows)
    op = CovarianceOp(b)
    dense = rows.T @ rows
    for _ in range(10):
        v = rng.standard_normal(3)
        assert np.allclose(op.apply_flat(v), dense @ v, rtol=1e-12, atol=1e-14)


def test_solve_inverts_apply():
    rng = Rng(4)
    rows = rng.standard_normal((6, 4)) + np.eye(4)[None, 0] * 0.0
    op = CovarianceOp(BasisSet((4,), elements=rows))
    v = rng.standard_normal(4)
    back = op.solve_flat(op.apply_flat(v))
    assert np.allclose(back, v, rtol=1e-9, atol=1e-12)


def test_whitener_inverts_sigma():
    rng = Rng(5)
    rows = rng.standard_normal((5, 3)) + 0.3
    op = CovarianceOp(BasisSet((3,), elements=rows))
    sigma = rows.T @ rows
    # W Sigma W^T = I, with W read off the whitened unit vectors
    w_mat = op.whiten(np.eye(3)).T
    np.testing.assert_allclose(w_mat @ sigma @ w_mat.T, np.eye(3),
                               rtol=1e-12, atol=1e-14)
    vs = rng.standard_normal((6, 3))
    white = op.whiten(vs)
    assert white.shape == (6, 3)
    assert op.whiten(vs[:1]).shape == (1, 3)
    for v, w in zip(vs, white):
        assert op.whiten(v).shape == (3,)
        np.testing.assert_allclose(op.whiten(v), w, rtol=1e-15, atol=0.0)
        # squared whitened norm is the Sigma^{-1} quadratic form
        assert np.isclose(w @ w, v @ np.linalg.solve(sigma, v), rtol=1e-12)


def _skewed_op(seed=6, d=4):
    """Operator of a non-orthogonal basis, and its dense Sigma built here."""
    rng = Rng(seed)
    rows = rng.standard_normal((d + 2, d)) + 0.3
    return CovarianceOp(BasisSet((d,), elements=rows)), rows.T @ rows, rng


def test_whitened_forms_and_solve_match_dense_oracle():
    op, sigma, rng = _skewed_op()
    rs = rng.standard_normal((5, 4))
    white = op.whiten(rs)
    for r, w in zip(rs, white):
        exact = np.linalg.solve(sigma, r)
        np.testing.assert_allclose(w @ w, r @ exact, rtol=1e-12)
        np.testing.assert_allclose(op.solve_flat(r), exact, rtol=1e-12)
    # (d, k) right-hand sides solve column by column
    np.testing.assert_allclose(op.solve_flat(rs.T), np.linalg.solve(sigma, rs.T),
                               rtol=1e-12)


def test_whitener_is_made_once_per_operator(monkeypatch):
    calls = []
    factor = CovarianceOp._factor

    def counting(op):
        calls.append(1)
        return factor(op)

    monkeypatch.setattr(CovarianceOp, "_factor", counting)
    op, _, rng = _skewed_op()
    for _ in range(50):
        v = rng.standard_normal(4)
        op.whiten(v)
        op.solve_flat(v)
        op.out_of_range(v)
    assert len(calls) == 1


def test_failed_svd_is_singular_and_nonfinite_rows_are_refused(monkeypatch):
    with pytest.raises(ValueError, match="finite"):
        BasisSet((2,), elements=[[np.nan, 1.0]])

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(bases.np.linalg, "svd", failing)
    op, _, _ = _skewed_op()
    with pytest.raises(SingularCovarianceError, match="converge"):
        op.whiten(np.ones(4))


def test_pixel_whitener_is_exactly_the_identity():
    op = CovarianceOp(pixel_basis((3, 3)))
    vs = Rng(8).standard_normal((5, 9))
    assert np.array_equal(op.whiten(vs), vs)
    assert np.array_equal(op.whiten(vs[2]), vs[2])
    assert np.array_equal(op.solve_flat(vs[3]), vs[3])


def test_solve_rejects_rank_deficiency():
    op = CovarianceOp(BasisSet((2,), elements=[[1.0, 2.0]]))
    with pytest.raises(SingularCovarianceError):
        op.solve_flat(np.array([1.0, 0.0]))
    # whitening keeps the rank-1 range: W = h^T / |h|^2, and the rest of a
    # vector is its out-of-range part
    v = np.array([1.0, 0.0])
    np.testing.assert_allclose(np.abs(op.whiten(v)), [0.2], rtol=1e-14)
    np.testing.assert_allclose(op.out_of_range(v), [0.8, -0.4], rtol=1e-14)


def test_solve_rejects_ill_conditioning():
    rows = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
    op = CovarianceOp(BasisSet((2,), elements=rows))
    with pytest.raises(SingularCovarianceError):
        op.solve_flat(np.array([1.0, 0.0]))


def test_thin_factor_works_at_large_dimension():
    d = 65 * 65
    b = BasisSet((65, 65), elements=np.ones((1, d)))
    op = CovarianceOp(b)
    out = op.apply_flat(np.ones(d))
    assert out.shape == (d,) and out[0] == d
    # one (1, d) factor: W = h^T / d, so W 1 = 1 and 1 lies in the range
    white = op.whiten(np.ones((2, d)))
    assert white.shape == (2, 1)
    np.testing.assert_allclose(np.abs(white), 1.0, rtol=1e-12)
    np.testing.assert_allclose(op.out_of_range(np.ones(d)), 0.0, atol=1e-12)
    with pytest.raises(SingularCovarianceError):
        op.solve_flat(np.ones(d))


def test_shape_mismatch_errors():
    op = CovarianceOp(pixel_basis((2, 2)))
    with pytest.raises(ValueError):
        op.apply_flat(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        op.solve_flat(np.array([1.0, 2.0]))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 5))
def test_covariance_is_positive_semidefinite(seed, m, d):
    rng = Rng(seed)
    rows = rng.standard_normal((m, d))
    op = CovarianceOp(BasisSet((d,), elements=rows))
    v = rng.standard_normal(d)
    assert v @ op.apply_flat(v) >= -1e-12
