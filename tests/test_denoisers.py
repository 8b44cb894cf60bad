import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import json_like

from basisdiff import bases
from basisdiff.bases import COND_LIMIT, BasisSet, pixel_basis
from basisdiff.denoisers import (CheckpointMismatch, ConstantDenoiser,
                                 DiracDataset, DiracMixtureDenoiser,
                                 PreconditionedDenoiser, TinyNetwork,
                                 load_network, save_network)
from basisdiff.fields import ConfigError, Field, Rng, field_to_bytes
from basisdiff.process import DiffusionProcess
from basisdiff.schedules import make_vp_schedule


def _pixel_process(d, eta=0.0):
    return DiffusionProcess(make_vp_schedule(), pixel_basis((d,)), eta)


def _manual_forward(params, widths, z):
    """Forward pass re-derived from the flat layout: W block then bias, per layer."""
    a = np.asarray(z, dtype=float)
    off = 0
    n_layers = len(widths) - 1
    for i in range(n_layers):
        fan_in, fan_out = widths[i], widths[i + 1]
        w = params[off:off + fan_out * fan_in].reshape(fan_out, fan_in)
        b = params[off + fan_out * fan_in:off + fan_out * (fan_in + 1)]
        off += fan_out * (fan_in + 1)
        pre = w @ a + b
        a = pre if i == n_layers - 1 else np.tanh(pre)
    return a


def test_constant_denoiser():
    y = Field([1.0, 2.0])
    den = ConstantDenoiser(y)
    out = den.denoise(np.zeros((3, 2)), 5.0)
    assert out.shape == (3, 2)
    assert np.array_equal(out, [[1.0, 2.0]] * 3)
    with pytest.raises(ValueError):
        den.denoise(np.zeros((3, 1)), 5.0)
    # the read-only view is reused while the state shape holds
    assert den.denoise(np.ones((3, 2)), 1.0) is den.denoise(np.ones((3, 2)), 2.0)
    assert not out.flags.writeable
    assert den.denoise(np.zeros((2,)), 5.0).shape == (2,)
    with pytest.raises(ValueError):
        den.denoise(np.zeros((3, 1)), 5.0)


# one clean point as a Field, a flat (d,) array and an array of the
# process's (2, 2) shape
CLEAN_FORMS = {"field": Field, "flat": np.ravel, "shaped": np.asarray}


@pytest.mark.parametrize("form", sorted(CLEAN_FORMS))
def test_constant_denoiser_takes_a_field_or_an_array(form):
    v = np.array([[0.5, -1.0], [2.0, 0.25]])
    src = v.copy()
    den = ConstantDenoiser(CLEAN_FORMS[form](src))
    src[...] = 9.0  # the denoiser keeps its own copy
    out = den.denoise(np.zeros((3, 4)), 5.0)
    np.testing.assert_array_equal(out, np.broadcast_to(v.reshape(-1), (3, 4)))
    with pytest.raises(ValueError, match="state width 3 != 4"):
        den.denoise(np.zeros((1, 3)), 5.0)


@pytest.mark.parametrize("form", sorted(CLEAN_FORMS))
def test_dataset_takes_fields_or_arrays(form):
    p = DiffusionProcess(make_vp_schedule(), pixel_basis((2, 2)), 0.0)
    v = np.array([[0.5, -1.0], [2.0, 0.25]])
    ds = DiracDataset([CLEAN_FORMS[form](v), CLEAN_FORMS[form](-v)])
    assert ds.stacked().dtype == np.float64
    np.testing.assert_array_equal(ds.stacked(), [v.reshape(-1), -v.reshape(-1)])
    x = np.array([[0.1, 0.2, -0.3, 0.4]])
    ref = DiracMixtureDenoiser(DiracDataset([Field(v), Field(-v)]), p)
    np.testing.assert_array_equal(DiracMixtureDenoiser(ds, p).denoise(x, 30.0),
                                  ref.denoise(x, 30.0))
    with pytest.raises(ValueError, match=r"got shape \(3,\)"):
        DiracMixtureDenoiser(DiracDataset([np.zeros(3)]), p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dataset_and_constant_denoiser_refuse_non_finite_points(bad):
    with pytest.raises(ValueError, match="dataset points must be finite"):
        DiracDataset([np.array([0.0, 1.0]), np.array([bad, 2.0])])
    with pytest.raises(ValueError, match="output must be finite"):
        ConstantDenoiser([bad, 1.0])


def test_network_init_layout():
    net = TinyNetwork([3, 5, 2], Rng(0))
    assert net.n_params == (5 * 3 + 5) + (2 * 5 + 2)
    # biases start at zero
    assert np.all(net.params[15:20] == 0.0)
    assert np.all(net.params[20 + 10:] == 0.0)
    with pytest.raises(ValueError):
        TinyNetwork([4], Rng(0))
    with pytest.raises(ValueError):
        TinyNetwork([4, 0, 2], Rng(0))


def test_network_forward_matches_flat_layout():
    widths = [4, 6, 3]
    net = TinyNetwork(widths, Rng(1))
    net.params[:] = Rng(2).standard_normal(net.n_params)
    z = Rng(3).standard_normal(4)
    assert np.allclose(net.forward_cached(z)[0],
                       _manual_forward(net.params, widths, z), rtol=1e-14)


def test_network_backward_sums_rows():
    net = TinyNetwork([3, 5, 4, 2], Rng(40))
    net.params[:] = 0.5 * Rng(41).standard_normal(net.n_params)
    z = Rng(42).standard_normal((6, 3))
    g = Rng(43).standard_normal((6, 2))
    _, acts = net.forward_cached(z)
    batch = net.backward(acts, g)
    rows = np.zeros(net.n_params)
    for zi, gi in zip(z, g):
        _, acts_i = net.forward_cached(zi)  # 1-D input, one row
        one = net.backward(acts_i, gi)
        _, acts_2d = net.forward_cached(zi[None, :])
        assert np.array_equal(one, net.backward(acts_2d, gi[None, :]))
        rows += one
    np.testing.assert_allclose(batch, rows, rtol=1e-12,
                               atol=1e-15 * np.abs(rows).max())


@pytest.mark.parametrize("widths", [[4, 7, 5, 3], [4, 3]])
@pytest.mark.parametrize("rows", [None, 1, 6], ids=["1-D", "1", "6"])
def test_network_passes_write_none_of_their_inputs(widths, rows):
    """forward_cached and backward write their activations and deltas in
    place, but only in arrays they made: z, acts and grad_out keep every
    bit, and no activation past the input shares z's memory."""
    net = TinyNetwork(widths, Rng(50))
    z = Rng(51).standard_normal(widths[0] if rows is None else (rows, widths[0]))
    z_bytes = z.tobytes()
    out, acts = net.forward_cached(z)
    assert z.tobytes() == z_bytes
    assert acts[0].tobytes() == z_bytes and acts[-1] is out
    assert not any(np.shares_memory(a, z) for a in acts[1:])
    acts_bytes = [a.tobytes() for a in acts]
    g = Rng(52).standard_normal(out.shape)
    g_bytes = g.tobytes()
    net.backward(acts, g)
    assert g.tobytes() == g_bytes
    assert [a.tobytes() for a in acts] == acts_bytes
    assert [a.shape for a in acts] == [np.shape(z)] + [
        np.shape(z)[:-1] + (n,) for n in widths[1:]]


def test_network_backward_matches_finite_differences():
    net = TinyNetwork([3, 5, 4, 2], Rng(4))
    net.params[:] = 0.5 * Rng(5).standard_normal(net.n_params)
    z = Rng(6).standard_normal(3)
    g = Rng(7).standard_normal(2)
    out, acts = net.forward_cached(z)
    grad = net.backward(acts, g)
    h = 1e-6
    idx = Rng(8).integers(0, net.n_params, 12)
    for i in idx:
        keep = net.params[i]
        net.params[i] = keep + h
        up = g @ net.forward_cached(z)[0]
        net.params[i] = keep - h
        dn = g @ net.forward_cached(z)[0]
        net.params[i] = keep
        fd = (up - dn) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_predict_noise_wrapper_algebra():
    p = _pixel_process(3)
    widths = [4, 6, 3]
    net = TinyNetwork(widths, Rng(9))
    den = PreconditionedDenoiser(net, p, "predict-noise")
    x = np.array([[0.4, -1.1, 2.0], [-0.3, 0.8, 0.05]])
    for t in (8.0, 77.0):
        sig = p.schedule.sigma(t)
        out = den.denoise(x, t)
        assert out.shape == x.shape
        for row, got in zip(x, out):
            z = np.concatenate([row / np.sqrt(1 + sig * sig), [t / 100.0]])
            f = _manual_forward(net.params, widths, z)
            expect = row / 1.0 - sig * f  # s == 1 for this schedule
            assert np.allclose(got, expect, rtol=1e-13)
        assert den.out_gain(sig) == -sig


def test_predict_noise_is_identity_at_time_zero():
    p = _pixel_process(2)
    den = PreconditionedDenoiser(TinyNetwork([3, 4, 2], Rng(10)), p,
                                 "predict-noise")
    x = np.array([[0.3, -0.7]])
    assert np.array_equal(den.denoise(x, 0.0), x)


def test_predict_x0_wrapper_passes_network_through():
    p = _pixel_process(2)
    net = TinyNetwork([3, 5, 2], Rng(11))
    net.params[:] = 0.0
    net.params[-2:] = [0.25, -0.5]  # output bias only: F is constant
    den = PreconditionedDenoiser(net, p, "predict-x0")
    rng = Rng(12)
    for t in (0.5, 60.0):
        x = rng.standard_normal((3, 2))
        assert np.array_equal(den.denoise(x, t), [[0.25, -0.5]] * 3)
        assert den.out_gain(p.schedule.sigma(t)) == 1.0


def test_wrapper_validation():
    p = _pixel_process(3)
    with pytest.raises(ValueError):
        PreconditionedDenoiser(TinyNetwork([3, 3], Rng(0)), p, "predict-noise")
    with pytest.raises(ValueError):
        PreconditionedDenoiser(TinyNetwork([4, 2], Rng(0)), p, "predict-noise")
    with pytest.raises(ValueError):
        PreconditionedDenoiser(TinyNetwork([4, 3], Rng(0)), p, "something-else")


def test_wrapped_network_smoke():
    p = _pixel_process(4)
    den = PreconditionedDenoiser(TinyNetwork([5, 8, 8, 4], Rng(13)), p,
                                 "predict-noise")
    rng = Rng(14)
    for _ in range(100):
        t = float(rng.standard_normal(()) ** 2 * 10 + 1.0)
        t = min(t, 100.0)
        out = den.denoise(rng.standard_normal((1, 4)), t)
        assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# analytic posterior-mean denoiser


def test_analytic_single_point_returns_it_everywhere():
    p = _pixel_process(2)
    y = Field([0.9, -0.1])
    den = DiracMixtureDenoiser(DiracDataset([y]), p)
    rng = Rng(15)
    for t in (0.01, 50.0, 100.0):
        x = rng.standard_normal((4, 2))
        assert np.array_equal(den.denoise(x, t), [y.values] * 4)


def test_analytic_midpoint_between_equidistant_points():
    p = _pixel_process(2)
    ds = DiracDataset([Field([1.0, 0.0]), Field([-1.0, 0.0])])
    den = DiracMixtureDenoiser(ds, p)
    out = den.denoise(np.array([[0.0, 0.7]]), 40.0)
    assert np.allclose(out, [[0.0, 0.0]], atol=1e-15)


def test_analytic_collapses_to_nearest_point_at_small_noise():
    p = _pixel_process(2)
    pts = [Field([0.0, 0.0]), Field([2.0, 0.0]), Field([0.0, -2.0])]
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    rng = Rng(16)
    stacked = np.stack([y.values for y in pts])
    for _ in range(20):
        x = rng.standard_normal(2)
        nearest = stacked[np.argmin(np.sum((stacked - x) ** 2, axis=1))]
        out = den.denoise(x[None, :], 0.1)  # sigma ~ 3e-3: posterior collapses
        assert np.allclose(out[0], nearest, atol=1e-12)


def test_analytic_matches_naive_weights_at_moderate_noise():
    # exponents stay O(1) here, so the direct (unstabilized) posterior is a
    # valid oracle for the log-domain implementation
    rng = Rng(17)
    rows = rng.standard_normal((4, 3)) + 0.1
    p = DiffusionProcess(make_vp_schedule(), BasisSet((3,), elements=rows), 2.0)
    pts = [Field(rng.standard_normal(3) * 0.2) for _ in range(4)]
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    t = 50.0
    s, sig = p.schedule.s(t), p.schedule.sigma(t)
    shift = (p.eta * s * sig / (p.eta + 1.0)) * rows.sum(axis=0)
    cov_scale = (s * sig / (p.eta + 1.0)) ** 2
    sigma_inv = np.linalg.inv(rows.T @ rows)
    for k in range(5):
        x = s * pts[k % 4].values + shift + 0.1 * rng.standard_normal(3)
        w = np.empty(4)
        for i, y in enumerate(pts):
            r = x - s * y.values - shift
            w[i] = np.exp(-0.5 * (r @ sigma_inv @ r) / cov_scale)
        assert w.sum() > 0  # regime check: no underflow in the oracle
        w /= w.sum()
        expect = w @ np.stack([y.values for y in pts])
        assert np.allclose(den.denoise(x[None, :], t)[0], expect, atol=1e-10)


def test_analytic_batch_matches_loop():
    p = _pixel_process(3, eta=4.0)
    rng = Rng(18)
    pts = [Field(rng.standard_normal(3)) for _ in range(5)]
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    states = rng.standard_normal((12, 3))
    t = 30.0
    batch = den.denoise(states, t)
    for i in range(12):
        single = den.denoise(states[i:i + 1], t)
        assert np.allclose(batch[i], single[0], rtol=1e-12, atol=1e-14)
    lo = np.min([y.values for y in pts], axis=0)
    hi = np.max([y.values for y in pts], axis=0)
    assert np.all(batch >= lo - 1e-12) and np.all(batch <= hi + 1e-12)


# non-orthogonal d = 3 basis with M = 4 elements; cond(Sigma) ~ 13
SKEW_ROWS = np.array([[1.0, 0.4, 0.0], [0.3, 1.0, 0.5], [0.0, 0.6, 1.0],
                      [0.5, 0.0, 0.2]])


def _skew_process(eta=2.0):
    return DiffusionProcess(make_vp_schedule(),
                            BasisSet((3,), elements=SKEW_ROWS), eta)


@pytest.mark.parametrize("t", [50.0, 0.1])  # sigma ~ 0.47 and ~ 3.3e-3
def test_whitened_weights_match_dense_inverse_oracle(t):
    p = _skew_process()
    s, sig = p.schedule.s(t), p.schedule.sigma(t)
    rng = Rng(21)
    # points and states within about one kernel width of each other, so the
    # weights stay far from one-hot at both noise levels
    width = sig / (p.eta + 1.0)
    pts = rng.standard_normal(3) + 0.5 * width * rng.standard_normal((4, 3))
    ds = DiracDataset([Field(y) for y in pts])
    shift = (p.eta * s * sig / (p.eta + 1.0)) * SKEW_ROWS.sum(axis=0)
    cov_scale = (s * width) ** 2
    states = s * pts[[0, 1, 2, 3, 0, 1]] + shift \
        + 0.5 * s * width * rng.standard_normal((6, 3))
    sigma_inv = np.linalg.inv(SKEW_ROWS.T @ SKEW_ROWS)
    expect = np.empty((6, 4))
    for n, x in enumerate(states):
        quad = [(x - s * y - shift) @ sigma_inv @ (x - s * y - shift)
                for y in pts]
        logw = -0.5 * np.array(quad) / cov_scale
        w = np.exp(logw - logw.max())
        expect[n] = w / w.sum()
    assert np.all(np.sort(expect, axis=1)[:, -2] > 1e-3)  # regime check
    den = DiracMixtureDenoiser(ds, p)
    got = den.weights_at(p.knot_table(t), 0, states)
    # exponents are O(10) here, so roundoff in them stays near
    # 10 * cond(Sigma) * eps ~ 1e-13 relative in the weights
    np.testing.assert_allclose(got, expect, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(den.denoise(states, t), expect @ pts,
                               rtol=1e-10, atol=1e-14)


def test_marginal_score_and_denoiser_share_weights(monkeypatch):
    p = _skew_process()
    rng = Rng(22)
    ds = DiracDataset([Field(rng.standard_normal(3)) for _ in range(5)])
    den = DiracMixtureDenoiser(ds, p)
    seen = []
    weights = DiracMixtureDenoiser.weights_at

    def record(mix, table, k, states):
        w = weights(mix, table, k, states)
        seen.append(w)
        return w

    # the one weight routine both reach, each through a one-knot table
    monkeypatch.setattr(DiracMixtureDenoiser, "weights_at", record)
    for t in (0.5, 20.0, 80.0):
        x = rng.standard_normal((1, 3))
        score = p.marginal_score_dirac(den, t, x)[0]
        mean = den.denoise(x, t)[0]
        assert len(seen) == 2
        np.testing.assert_allclose(seen[0], seen[1], rtol=1e-12, atol=0.0)
        # the score is gain * Sigma^{-1} (s D + shift - x) with the same D
        s, sig = p.schedule.s(t), p.schedule.sigma(t)
        shift = (p.eta * s * sig / (p.eta + 1.0)) * SKEW_ROWS.sum(axis=0)
        gain = ((p.eta + 1.0) / (s * sig)) ** 2
        implied = (SKEW_ROWS.T @ SKEW_ROWS @ score / gain
                   - shift + x[0]) / s
        np.testing.assert_allclose(implied, mean, rtol=1e-9, atol=1e-9)
        seen.clear()


def test_fixed_basis_process_builds_one_covariance_op(monkeypatch):
    builds = []
    init = bases.CovarianceOp.__init__

    def counting_init(op, *args, **kwargs):
        builds.append(1)
        init(op, *args, **kwargs)

    whitened = []
    whiten = bases.CovarianceOp.whiten

    def counting_whiten(op, v):
        whitened.append(v)
        return whiten(op, v)

    monkeypatch.setattr(bases.CovarianceOp, "__init__", counting_init)
    monkeypatch.setattr(bases.CovarianceOp, "whiten", counting_whiten)
    p = _skew_process()
    rng = Rng(23)
    ds = DiracDataset([Field(rng.standard_normal(3)) for _ in range(4)])
    den = DiracMixtureDenoiser(ds, p)
    # making the denoiser whitens the points once (and the basis sum once)
    assert sum(v is ds.stacked() for v in whitened) == 1
    whitened.clear()
    states = [rng.standard_normal((1, 3)) for _ in range(100)]
    for k, x in enumerate(states):
        den.denoise(x, 1.0 + k)
    # N denoise calls make N whiten calls, each on its states only
    assert len(whitened) == len(states)
    assert all(v is x for v, x in zip(whitened, states))
    den.denoise(rng.standard_normal((7, 3)), 30.0)
    p.pfode_rhs_marginal(den, 30.0, rng.standard_normal((1, 3)))
    p.pfode_rhs_conditional(ds.stacked()[0], 30.0, rng.standard_normal((1, 3)))
    assert len(builds) == 1


def test_rank_deficient_weights_match_dense_limit():
    # M = 2 < d = 3: Sigma is singular, and the weights are the delta -> 0
    # limit of those for Sigma + delta I, here solved densely
    rows = SKEW_ROWS[:2]
    p = DiffusionProcess(make_vp_schedule(), BasisSet((3,), elements=rows), 2.0)
    t = 50.0
    s, sig = p.schedule.s(t), p.schedule.sigma(t)
    width = sig / (p.eta + 1.0)
    shift = (p.eta * s * sig / (p.eta + 1.0)) * rows.sum(axis=0)
    normal = np.cross(rows[0], rows[1])
    normal /= np.linalg.norm(normal)

    def oracle(pts, states, delta):
        sigma = rows.T @ rows + delta * np.eye(3)
        out = []
        for x in states:
            r = x - s * pts - shift
            quad = np.einsum("ij,ij->i", r, np.linalg.solve(sigma, r.T).T)
            logw = -0.5 * quad / (s * width) ** 2
            w = np.exp(logw - logw.max())
            out.append(w / w.sum())
        return np.array(out)

    def check(pts, states):
        den = DiracMixtureDenoiser(DiracDataset([Field(y) for y in pts]), p)
        got = den.weights_at(p.knot_table(t), 0, states)
        errs = [np.abs(oracle(pts, states, delta) - got).max()
                for delta in (1e-2, 1e-4, 1e-6)]
        assert errs == sorted(errs, reverse=True) and errs[-1] < 1e-6
        return got, den.denoise(states, t)

    rng = Rng(31)
    base = rng.standard_normal(3)
    # the points differ out of range: the state is nearer the second point in
    # range but nearer the first out of range, and the first takes it all
    pts = np.array([base, base + 0.3 * normal + width * rows[0]])
    states = s * (base + 0.1 * normal + width * rows[0]) + shift
    got, _ = check(pts, np.array([states, states + 0.01 * s * rows[1]]))
    np.testing.assert_array_equal(got, [[1.0, 0.0], [1.0, 0.0]])
    # the points differ only in range: the in-range residuals weigh them
    pts = np.array([base, base + width * (0.5 * rows[0] - 0.3 * rows[1])])
    states = s * pts[[0, 1, 0]] + shift \
        + 0.5 * s * width * rng.standard_normal((3, 3))
    got, _ = check(pts, states)
    assert np.all(got > 0.3)  # regime check: far from one-hot
    # one point: weight 1, so the posterior mean is the point itself
    got, mean = check(pts[:1], states)
    np.testing.assert_array_equal(mean, pts[[0, 0, 0]])


@pytest.mark.parametrize("factor, expect", [(1e3, [1.0, 0.0]),
                                            (1e-3, [0.5, 0.5])],
                         ids=["far", "near"])
def test_out_of_range_tolerance_sets_the_cut(factor, expect):
    # basis e1, e2 in d = 3, so e3 is out of range.  The two points share
    # their in-range part; the second's e3 offset delta puts its out-of-range
    # distance (s delta)^2 at factor x the cut (|x| + s max|y_i|)^2 / COND_LIMIT,
    # the share the rank cutoff drops (OUT_OF_RANGE_RTOL).  Far above the cut
    # it gets weight 0; far below, the points tie.
    p = DiffusionProcess(make_vp_schedule(),
                         BasisSet((3,), elements=np.eye(3)[:2]), 0.0)
    table = p.knot_table(50.0)
    s = table.s[0]
    y = np.array([0.4, -0.7, 0.0])
    x = np.array([[0.3, -0.2, 0.0]])
    delta = (np.sqrt(factor / COND_LIMIT)
             * (np.linalg.norm(x) + s * np.linalg.norm(y)) / s)
    den = DiracMixtureDenoiser(DiracDataset([y, y + [0.0, 0.0, delta]]), p)
    np.testing.assert_allclose(den.weights_at(table, 0, x), [expect],
                               rtol=0.0, atol=1e-12)


def _lse_weights(rows, pts, states, s, shift, cov_scale):
    """Weights from a log-sum-exp over r^T Sigma^+ r / cov_scale."""
    sigma_pinv = np.linalg.pinv(rows.T @ rows)
    out = []
    for x in np.atleast_2d(states):
        r = x - s * pts - shift
        logw = -0.5 * np.einsum("ij,jk,ik->i", r, sigma_pinv, r) / cov_scale
        top = logw.max()
        out.append(np.exp(logw - (top + np.log(np.exp(logw - top).sum()))))
    return np.array(out)


@pytest.mark.parametrize("rows", [SKEW_ROWS, SKEW_ROWS[:2]],
                         ids=["full-rank", "rank-deficient"])
@pytest.mark.parametrize("t", [0.1, 60.0])  # the terminal knot T/1000, mid
def test_weights_match_a_log_sum_exp_reference(rows, t):
    p = DiffusionProcess(make_vp_schedule(), BasisSet((3,), elements=rows), 2.0)
    s, sig = p.schedule.s(t), p.schedule.sigma(t)
    width = sig / (p.eta + 1.0)
    shift = (p.eta * s * sig / (p.eta + 1.0)) * rows.sum(axis=0)
    rng = Rng(32)
    base = rng.standard_normal(3)
    # points and states apart in range only, so at rank 2 the out-of-range
    # distances tie and the weights are the pseudo-inverse form's
    pts = base + width * rng.standard_normal((4, len(rows))) @ rows
    ds = DiracDataset([Field(y) for y in pts])
    states = s * pts[[0, 1, 2, 3, 1]] + shift \
        + 0.5 * s * width * rng.standard_normal((5, len(rows))) @ rows
    expect = _lse_weights(rows, pts, states, s, shift, (s * width) ** 2)
    assert np.all(np.sort(expect, axis=1)[:, -2] > 1e-3)  # far from one-hot
    den = DiracMixtureDenoiser(ds, p)
    table = p.knot_table(t)
    got = den.weights_at(table, 0, states)
    np.testing.assert_array_equal(den.rows, pts)
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=0.0)
    one = den.weights_at(table, 0, states[3])
    assert one.shape == (1, 4)
    np.testing.assert_allclose(one[0], expect[3], rtol=1e-9, atol=0.0)


def test_analytic_validation():
    clean = Field([0.0, 0.0])
    p = _pixel_process(2)
    with pytest.raises(ValueError):
        DiracMixtureDenoiser(DiracDataset([Field([1.0])]), p)
    den = DiracMixtureDenoiser(DiracDataset([clean]), p)
    with pytest.raises(ValueError):
        den.denoise(np.zeros((1, 2)), 0.0)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    net = TinyNetwork([4, 7, 3], Rng(19))
    net.params[:] = Rng(20).standard_normal(net.n_params)
    path = tmp_path / "net.bin"
    save_network(net, path)
    back = load_network(path)
    assert back.widths == net.widths
    assert np.array_equal(back.params, net.params)


def test_load_rejects_mismatched_payload(tmp_path):
    net = TinyNetwork([4, 7, 3], Rng(21))
    path = tmp_path / "net.bin"
    save_network(net, path)
    buf = path.read_bytes()
    (tmp_path / "short.bin").write_bytes(buf[:-16])
    with pytest.raises(ValueError):
        load_network(tmp_path / "short.bin")


def _checkpoint(tmp_path, blob):
    path = tmp_path / "net.bin"
    path.write_bytes(blob)
    return path


def _frame(head: bytes, payload: bytes, version=2, n_head=None) -> bytes:
    """A format-2 checkpoint around head and payload, with a valid digest."""
    body = (b"BDNET" + struct.pack("<IQ", version, len(head) if n_head is None
                                   else n_head) + head + payload)
    return body + hashlib.sha256(body).digest()


def test_load_rejects_malformed_headers(tmp_path):
    net = TinyNetwork([4, 7, 3], Rng(22))
    save_network(net, tmp_path / "good.bin")
    good = (tmp_path / "good.bin").read_bytes()
    payload = field_to_bytes(Field(net.params))
    head = json.dumps({"widths": [4, 7, 3]}).encode()
    bad = [b"\x01",                                   # no magic
           good[:-1] + bytes([good[-1] ^ 1]),          # digest does not match
           good[:40],                                  # cut short
           _frame(head, payload, version=3),           # unknown version
           _frame(head, payload, n_head=2 ** 63),      # header overruns
           _frame(b"{not json", payload),
           _frame(b"[" * 100_000, payload),            # nests too deeply
           _frame(b"[4, 7, 3]", payload),              # header not an object
           _frame(b'{"widths": [4, true, 3]}', payload),
           _frame(b'{"widths": [4]}', payload),
           _frame(json.dumps({"widths": [2 ** 40] * 3}).encode(), payload)]
    for blob in bad:
        with pytest.raises(ValueError):
            load_network(_checkpoint(tmp_path, blob))


def test_load_reads_header_widths_by_the_network_rule(tmp_path):
    # a header width is read as TinyNetwork reads it: 4.0 is the integer 4,
    # while 0, 2.5 and true are refused as a bad file, not a bad config
    net = TinyNetwork([4, 7, 3], Rng(22))
    payload = field_to_bytes(Field(net.params))
    back = load_network(_checkpoint(tmp_path, _frame(
        b'{"widths": [4.0, 7, 3]}', payload)))
    assert back.widths == [4, 7, 3]
    assert all(type(w) is int for w in back.widths)
    assert np.array_equal(back.params, net.params)
    for widths in (b"[4, 0, 3]", b"[4, 2.5, 3]", b"[4, true, 3]", b"[4]",
                   b'"4, 7, 3"'):
        blob = _frame(b'{"widths": ' + widths + b"}", payload)
        with pytest.raises(ValueError, match="^checkpoint header has no "
                                             "valid widths") as err:
            load_network(_checkpoint(tmp_path, blob))
        assert not isinstance(err.value, ConfigError)


def test_v1_checkpoint_is_refused_with_a_retrain_message(tmp_path):
    net = TinyNetwork([4, 7, 3], Rng(23))
    v1 = (struct.pack("<Q", 3) + struct.pack("<3Q", 4, 7, 3)
          + field_to_bytes(Field(net.params)))
    with pytest.raises(ValueError, match="re-train"):
        load_network(_checkpoint(tmp_path, v1))


def test_checkpoint_header_round_trips_and_names_a_mismatch(tmp_path):
    net = TinyNetwork([4, 7, 3], Rng(24))
    header = {"training.objective": "noise-pred", "schedule.T": 100.0}
    path = tmp_path / "net.bin"
    save_network(net, path, header)
    blob = path.read_bytes()
    assert blob.startswith(b"BDNET")
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
    back = load_network(path, expect={**header, "widths": [4, 7, 3]})
    assert np.array_equal(back.params, net.params)
    with pytest.raises(CheckpointMismatch, match="training.objective"):
        load_network(path, expect={**header, "training.objective": "x0-pred"})
    with pytest.raises(CheckpointMismatch, match="process.eta"):
        load_network(path, expect={"process.eta": 0.0})


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=96),
    # a format-2 frame with a valid digest around an arbitrary header
    st.builds(lambda head, payload: _frame(head, payload),
              st.binary(max_size=64), st.binary(max_size=96)),
    # ... around a JSON header with arbitrary widths
    st.builds(lambda widths, extra, payload: _frame(json.dumps(
        {"widths": widths, "extra": extra}).encode(), payload),
        json_like, json_like, st.binary(max_size=96)),
    # ... or around a plausible architecture and a field payload
    st.builds(lambda widths, values: _frame(json.dumps(
        {"widths": widths}).encode(), field_to_bytes(Field(values))),
        st.lists(st.integers(-1, 4), max_size=4),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))))
def test_load_network_fuzz(tmp_path_factory, blob):
    path = _checkpoint(tmp_path_factory.mktemp("fuzz"), blob)
    try:
        net = load_network(path)
    except ValueError:
        return
    assert isinstance(net, TinyNetwork)
    assert net.params.size == net.n_params
