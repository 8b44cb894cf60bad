import numpy as np
import pytest

from basisdiff.denoisers import (ConstantDenoiser, DiracDataset,
                                 DiracMixtureDenoiser, PreconditionedDenoiser,
                                 TinyNetwork)
from basisdiff.fields import Field, Rng
from basisdiff.process import DiffusionProcess
from basisdiff.schedules import Schedule, make_vp_schedule
from basisdiff.bases import BasisSet, pixel_basis, residual_basis
from basisdiff.training import (Adam, TrainConfig, _batch_loss,
                                _check_objective, _draw_batch, _row_weights,
                                compute_loss, train, weight_from_mask,
                                wrapper_for, write_loss_trace)


def _pixel_process(d=2, eta=0.0):
    return DiffusionProcess(make_vp_schedule(), pixel_basis((d,)), eta)


def test_weight_from_mask_frozen_example():
    w = weight_from_mask(Field([1.0, 0.0]), Field([2.0, 0.5]))
    assert np.array_equal(w, [1.0, 5.0])


def test_weight_from_mask_division_guard():
    w = weight_from_mask(Field([1.0, 0.0]), Field([2.0, 0.0]))
    assert np.array_equal(w, [1.0, 1.0])


def test_weight_from_mask_reads_fields_or_arrays():
    m = np.array([[1.0, 0.0], [0.0, 1.0]])
    n = np.array([[2.0, 0.5], [-0.25, 1.0]])
    w = weight_from_mask(m, n)
    # 1 + (1 - m) max|m N| / max|(1 - m) N| = 1 + (1 - m) 2 / 0.5
    np.testing.assert_array_equal(w, [[1.0, 5.0], [5.0, 1.0]])
    np.testing.assert_array_equal(weight_from_mask(Field(m), Field(n)), w)
    np.testing.assert_array_equal(weight_from_mask(m, Field(n)), w)
    with pytest.raises(ValueError, match=r"mask shape \(2, 2\) does not "
                                         r"match \(4,\)"):
        weight_from_mask(m, n.reshape(-1))


def test_a_flat_mask_serves_a_shaped_process():
    # the mask takes the clean point's rule: (d,) or the process's shape
    p = DiffusionProcess(make_vp_schedule(), pixel_basis((2, 2)), 0.0)
    den = PreconditionedDenoiser(TinyNetwork([5, 6, 4], Rng(8)), p,
                                 "predict-noise")
    flat = np.array([1.0, 0.0, 0.0, 1.0])
    loss = compute_loss("weighted-noise-pred", den, p, np.zeros(4), 30.0,
                        Rng(5), mask=flat)
    shaped = compute_loss("weighted-noise-pred", den, p, np.zeros(4), 30.0,
                          Rng(5), mask=flat.reshape(2, 2))
    assert loss[0] == shaped[0] and np.array_equal(loss[1], shaped[1])
    noise = np.array([[2.0, 0.5], [-0.25, 1.0]])
    w = weight_from_mask(flat, noise)
    assert w.shape == (2, 2)
    np.testing.assert_array_equal(w, weight_from_mask(flat.reshape(2, 2), noise))
    with pytest.raises(ValueError, match="0 or 1"):
        weight_from_mask(np.array([1.0, 0.5, 0.0, 1.0]), noise)
    with pytest.raises(ValueError, match=r"mask shape \(3,\)"):
        weight_from_mask(np.ones(3), noise)


def test_weight_from_mask_validation():
    with pytest.raises(ValueError):
        weight_from_mask(Field([0.5, 0.0]), Field([1.0, 1.0]))
    with pytest.raises(ValueError):
        weight_from_mask(Field([1.0]), Field([1.0, 1.0]))


def test_config_validation():
    TrainConfig(steps=1, lr=0.0)  # zero rate is legal
    with pytest.raises(ValueError):
        TrainConfig(steps=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, batch=0)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, lr=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, objective="nope")
    for name in ("lbfgs", "sgd"):
        with pytest.raises(ValueError, match="^optimizer "):
            TrainConfig(steps=1, optimizer=name)
    # zero moments, zero decay and a decay rate above one are legal
    TrainConfig(steps=1, beta1=0.0, beta2=0.0, ema_decay=0.0, lr_decay=2.0)
    for key, value in [("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0),
                       ("beta2", -1.0), ("eps", 0.0), ("eps", -1.0),
                       ("ema_decay", 1.0), ("ema_decay", 1.5),
                       ("ema_decay", -0.5), ("lr_decay", 0.0),
                       ("lr_decay", -1.0), ("beta2", float("nan")),
                       ("eps", float("nan")), ("lr", float("nan")),
                       ("seed", -1), ("lr_decay_every", -3),
                       # times are drawn on (0, T] only
                       ("time_dist", "discrete"), ("time_dist", "sometimes")]:
        with pytest.raises(ValueError, match=f"^{key} "):
            TrainConfig(steps=1, **{key: value})


def test_config_refuses_what_the_table_refuses():
    # a fractional count, a bool and an infinite rate are no values of a key
    for key, value in [("steps", 2.5), ("batch", True),
                       ("lr", float("inf"))]:
        with pytest.raises(ValueError, match=f"^{key} "):
            TrainConfig(**{"steps": 1, key: value})
    # an integral float count is cast to the int, as the CLI casts 3.0
    batch = TrainConfig(steps=1, batch=2.0).batch
    assert batch == 2 and type(batch) is int


def test_config_takes_numpy_scalars():
    cfg = TrainConfig(steps=np.int64(5), lr=np.float64(1e-3))
    assert cfg.steps == 5 and cfg.lr == 1e-3


def test_adam_single_step():
    params = np.array([1.0, -2.0])
    grad = np.array([0.5, 0.25])
    opt = Adam(0.1, eps=1e-8)
    opt.step(params, grad)
    # first step with bias correction: update = lr * g / (|g| + eps)
    expect = np.array([1.0, -2.0]) - 0.1 * grad / (np.abs(grad) + 1e-8)
    assert np.allclose(params, expect, rtol=1e-12)


def test_adam_matches_textbook_update_in_place():
    rng = Rng(30)
    params = rng.standard_normal(7)
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    opt = Adam(lr, b1, b2, eps)
    ref = params.copy()
    m = np.zeros(7)
    v = np.zeros(7)
    for k in range(1, 6):
        grad = rng.standard_normal(7) * k
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad ** 2
        m_hat = m / (1.0 - b1 ** k)
        v_hat = v / (1.0 - b2 ** k)
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        before = params.copy()
        update = opt.step(params, grad)
        np.testing.assert_allclose(params, ref, rtol=1e-12, atol=0.0)
        # the moments are kept scaled by 1 / (1 - beta)
        np.testing.assert_allclose((1.0 - b1) * opt._m, m, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose((1.0 - b2) * opt._v, v, rtol=1e-12, atol=0.0)
        # step returns the update it subtracted
        np.testing.assert_array_equal(params, before - update)
    # the update lands in the caller's memory, here a view of a larger array
    big = np.ones(9)
    Adam(lr).step(big[2:7], np.full(5, 0.5))
    assert np.array_equal(big[[0, 1, 7, 8]], np.ones(4))
    assert np.all(big[2:7] < 1.0)


def test_adam_matches_textbook_update_over_3000_steps():
    rng = Rng(37)
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-6
    params = rng.standard_normal(40)
    ref = params.copy()
    m = np.zeros(40)
    v = np.zeros(40)
    opt = Adam(lr, b1, b2, eps)
    # gradients of mixed scale, a few of them tiny so eps matters
    scale = 10.0 ** rng.uniform(-7.0, 1.0, shape=(40,))
    for k in range(1, 3001):
        grad = rng.standard_normal(40) * scale
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad ** 2
        m_hat = m / (1.0 - b1 ** k)
        v_hat = v / (1.0 - b2 ** k)
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step(params, grad)
    np.testing.assert_allclose(params, ref, rtol=1e-10, atol=0.0)


def test_adam_zero_rate_leaves_params_bit_identical():
    rng = Rng(31)
    params = rng.standard_normal(6)
    before = params.tobytes()
    opt = Adam(0.0)
    for _ in range(5):
        opt.step(params, rng.standard_normal(6))
    assert params.tobytes() == before


def _equivalence_case(basis_kind, objective):
    ds = DiracDataset([Field([0.4, -0.6, 0.2]), Field([-0.1, 0.3, 0.8])])
    if basis_kind == "pixel":
        p = DiffusionProcess(make_vp_schedule(), pixel_basis((3,)), 0.0)
    else:
        # one fixed residual row (M = 1 < d = 3) over both points
        basis = residual_basis(Field(ds.stacked()[0]), Field([0.9, -0.2, 0.1]))
        p = DiffusionProcess(make_vp_schedule(), basis, 0.5)
    wrap = "predict-x0" if objective == "x0-pred" else "predict-noise"
    net = TinyNetwork([4, 6, 3], Rng(32))
    net.params[:] = 0.7 * Rng(33).standard_normal(net.n_params)
    mask = Field([1.0, 0.0, 0.0]) if objective == "weighted-noise-pred" else None
    return p, ds, PreconditionedDenoiser(net, p, wrap), mask


@pytest.mark.parametrize("basis_kind", ["pixel", "residual"])
@pytest.mark.parametrize("objective", ["mse-x0", "noise-pred",
                                       "weighted-noise-pred", "x0-pred"])
def test_batched_step_matches_sequential_compute_loss(basis_kind, objective):
    p, ds, den, mask = _equivalence_case(basis_kind, objective)
    cfg = TrainConfig(steps=1, batch=3, objective=objective, seed=34)
    m = _check_objective(objective, den, mask, p.shape)

    batch_rng = Rng(cfg.seed, 1)
    x0, t, noise = _draw_batch(batch_rng, cfg, p, ds.stacked())
    losses, grad = _batch_loss(objective, den, p, x0, t, noise, m)

    seq_rng = Rng(cfg.seed, 1)
    seq_losses = []
    seq_grad = np.zeros_like(den.net.params)
    for k in range(cfg.batch):
        i = seq_rng.integers(0, len(ds))
        tk = p.schedule.T * (1.0 - seq_rng.uniform())
        loss, g = compute_loss(objective, den, p, ds.stacked()[i], tk, seq_rng,
                               mask=mask)
        assert tk == t[k] and np.array_equal(ds.stacked()[i], x0[k])
        seq_losses.append(loss)
        seq_grad += g

    np.testing.assert_allclose(losses, seq_losses, rtol=1e-12, atol=0.0)
    seq_grad /= cfg.batch
    np.testing.assert_allclose(grad, seq_grad, rtol=1e-12,
                               atol=1e-15 * np.abs(seq_grad).max())
    # both paths leave the training stream at the same state
    assert batch_rng.standard_normal() == seq_rng.standard_normal()


def _reference_train(net, p, ds, cfg):
    """train() written out: each batch element draws its index, time and
    weights and takes its own loss and gradient, then the summed batch
    gradient / B, textbook Adam with its lr decay, and the
    textbook EMA d ema + (1 - d) params."""
    wrap = "predict-x0" if cfg.objective == "x0-pred" else "predict-noise"
    den = PreconditionedDenoiser(net, p, wrap)
    m_obj = _check_objective(cfg.objective, den, None, p.shape)
    rng = Rng(cfg.seed, 1)
    m = np.zeros(net.n_params)
    v = np.zeros(net.n_params)
    ema = net.params.copy()
    lr = cfg.lr
    trace = []
    for k in range(1, cfg.steps + 1):
        # one row per call: each row's own loss and gradient
        rows = []
        for _ in range(cfg.batch):
            i = rng.integers(0, len(ds))
            t = p.schedule.T * (1.0 - rng.uniform())
            eps = rng.standard_normal((1, p.basis.M))
            rows.append(_batch_loss(cfg.objective, den, p,
                                    ds.stacked()[i][None, :],
                                    np.array([t]), p.noise_from_normals(eps),
                                    m_obj))
        trace.append(sum(float(loss[0]) for loss, _ in rows) / cfg.batch)
        grad = sum(g for _, g in rows) / cfg.batch
        if cfg.lr_decay_every and k > 1 and (k - 1) % cfg.lr_decay_every == 0:
            lr *= cfg.lr_decay
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad ** 2
        m_hat = m / (1.0 - cfg.beta1 ** k)
        v_hat = v / (1.0 - cfg.beta2 ** k)
        net.params[:] = net.params - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        ema = cfg.ema_decay * ema + (1.0 - cfg.ema_decay) * net.params
    return ema, trace


@pytest.mark.parametrize("objective, batch, basis_kind", [
    ("mse-x0", 3, "pixel"), ("mse-x0", 8, "pixel"), ("x0-pred", 3, "pixel"),
    ("x0-pred", 8, "pixel"), ("x0-pred", 4, "residual")],
    ids=["mse-x0-3", "mse-x0-8", "x0-pred-3", "x0-pred-8", "x0-pred-4-residual"])
def test_train_matches_a_reference_loop(objective, batch, basis_kind):
    p, ds, _, _ = _equivalence_case(basis_kind, objective)
    cfg = TrainConfig(steps=20, batch=batch, lr=3e-2,
                      objective=objective, seed=39, lr_decay=0.5,
                      lr_decay_every=7, ema_decay=0.8)

    def fresh():
        return TinyNetwork([4, 6, 3], Rng(40))

    net, trace = train(fresh(), p, ds, cfg)
    ref_params, ref_trace = _reference_train(fresh(), p, ds, cfg)
    np.testing.assert_allclose(trace, ref_trace, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(net.params, ref_params, rtol=1e-10, atol=0.0)


def test_train_ema_matches_the_textbook_ema_over_2000_steps():
    """The EMA kept as an offset from the weights drifts no further from
    d ema + (1 - d) params than rounding, over a long slow average."""
    p, ds, _, _ = _equivalence_case("pixel", "x0-pred")
    cfg = TrainConfig(steps=2000, batch=1, lr=1e-3, objective="x0-pred",
                      seed=43, ema_decay=0.999)

    def fresh():
        return TinyNetwork([4, 6, 3], Rng(44))

    net, trace = train(fresh(), p, ds, cfg)
    ref_params, ref_trace = _reference_train(fresh(), p, ds, cfg)
    np.testing.assert_allclose(trace, ref_trace, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(net.params, ref_params, rtol=1e-10, atol=0.0)


def _plain_train(net, p, ds, cfg, mask=None):
    """train() as plain array expressions, each op a fresh array: per-row
    draws, the schedule rows as np.array of tuples, a @ w.T + b then tanh,
    (delta @ w) * (1 - a**2), and the seed * w * resid backward seed.
    Adam and the EMA are train()'s own."""
    den = PreconditionedDenoiser(net, p, wrapper_for(cfg.objective))
    m = _check_objective(cfg.objective, den, mask, p.shape)
    opt = Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    rng = Rng(cfg.seed, 1)
    points = ds.stacked()
    layers = list(net._layers())
    ema_off = np.zeros_like(net.params) if cfg.ema_decay > 0.0 else None
    trace = []
    for step in range(cfg.steps):
        idx = np.empty(cfg.batch, dtype=np.intp)
        t = np.empty(cfg.batch)
        eps = np.empty((cfg.batch, p.basis.M))
        for k in range(cfg.batch):
            idx[k] = rng.integers(0, len(points))
            t[k] = p.schedule.T * (1.0 - rng.uniform())
            eps[k] = rng.standard_normal(p.basis.M)
        x0, noise = points[idx], p.noise_from_normals(eps)

        coef = np.array([p.schedule.evaluate(v) for v in t.tolist()])
        s, sig = coef[:, :1], coef[:, 2:3]
        x_t = s * x0 + (s * sig) * noise
        a = den._net_input(x_t, t[:, None], sig)
        acts = [a]
        for i, (w, b) in enumerate(layers):
            pre = a @ w.T + b
            a = pre if i == len(layers) - 1 else np.tanh(pre)
            acts.append(a)

        seed = 2.0 / cfg.batch
        if cfg.objective == "mse-x0":
            resid = den.assemble(x_t, a, s, sig) - x0
            losses = np.einsum("ij,ij->i", resid, resid)
            delta = seed * den.out_gain(sig) * resid
        else:
            resid = a - (x0 if cfg.objective == "x0-pred" else noise)
            w = (_row_weights(m, noise)
                 if cfg.objective == "weighted-noise-pred" else 1.0)
            losses = np.einsum("ij,ij->i", resid, w * resid)
            delta = seed * w * resid
        grad = np.empty_like(net.params)
        for i in range(len(layers) - 1, -1, -1):
            off, fan_out, fan_in = net._layout[i]
            np.matmul(delta.T, acts[i], out=grad[
                off:off + fan_out * fan_in].reshape(fan_out, fan_in))
            np.sum(delta, axis=0, out=grad[
                off + fan_out * fan_in:off + fan_out * (fan_in + 1)])
            if i > 0:
                delta = (delta @ layers[i][0]) * (1.0 - acts[i] ** 2)

        mean_loss = float(losses.sum()) / cfg.batch
        if cfg.lr_decay_every > 0 and step > 0 and step % cfg.lr_decay_every == 0:
            opt.lr *= cfg.lr_decay
        update = opt.step(net.params, grad)
        if ema_off is not None:
            ema_off += update
            ema_off *= cfg.ema_decay
        trace.append(mean_loss)
    if ema_off is not None:
        net.params += ema_off
    return net, trace


@pytest.mark.parametrize("basis_kind", ["pixel", "rows"])
@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("objective", ["mse-x0", "noise-pred",
                                       "weighted-noise-pred", "x0-pred"])
def test_train_is_bitwise_the_plain_step(objective, batch, basis_kind):
    """train() writes its arrays in place, yet every weight and every loss
    is bitwise the one the plain expressions give.  At batch 3 the seed
    2/B is no power of two, so the order of its products shows."""
    if basis_kind == "pixel":
        p = DiffusionProcess(make_vp_schedule(), pixel_basis((2, 3)), 0.0)
    else:  # four dense rows over six pixels, shifted by eta
        rows = 0.5 + Rng(46).uniform(shape=(4, 6))
        p = DiffusionProcess(make_vp_schedule(), BasisSet((2, 3), rows), 0.7)
    ds = DiracDataset([Rng(47 + k).standard_normal(6) for k in range(3)])
    mask = (np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
            if objective == "weighted-noise-pred" else None)
    cfg = TrainConfig(steps=25, batch=batch, lr=2e-2, objective=objective,
                      seed=48, lr_decay=0.7, lr_decay_every=6, ema_decay=0.9)

    def fresh():
        return TinyNetwork([7, 9, 5, 6], Rng(49))

    net, trace = train(fresh(), p, ds, cfg, mask=mask)
    ref, ref_trace = _plain_train(fresh(), p, ds, cfg, mask=mask)
    assert trace == ref_trace
    assert np.array_equal(net.params, ref.params)


def test_batch_schedule_rows_match_the_per_float64_rows(monkeypatch):
    p, ds, den, _ = _equivalence_case("pixel", "x0-pred")
    cfg = TrainConfig(steps=1, batch=8, objective="x0-pred", seed=45)
    x0, t, noise = _draw_batch(Rng(cfg.seed, 1), cfg, p, ds.stacked())
    seen = []
    forward = den.net_forward

    def spy(x_t, times, sig):
        seen.append(sig)
        return forward(x_t, times, sig)

    monkeypatch.setattr(den, "net_forward", spy)
    _batch_loss(cfg.objective, den, p, x0, t, noise)
    old = np.array([p.schedule.evaluate(v) for v in t])  # np.float64 each
    assert seen[0].tobytes() == old[:, 2:3].tobytes()


def _count_schedule_calls(monkeypatch):
    """Patch every Schedule method to count its calls by name."""
    counts = {}

    def counting(name, fn):
        def wrapper(self, *args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(self, *args, **kwargs)
        return wrapper

    for name in ("s", "s_prime", "sigma", "sigma_prime", "dsigma2_dt",
                 "alpha_bar", "evaluate"):
        monkeypatch.setattr(Schedule, name,
                            counting(name, Schedule.__dict__[name]))
    return counts


@pytest.mark.parametrize("objective", ["mse-x0", "noise-pred", "x0-pred"])
def test_one_schedule_evaluation_per_batch_row(monkeypatch, objective):
    p, ds, den, _ = _equivalence_case("pixel", objective)
    counts = _count_schedule_calls(monkeypatch)
    train(TinyNetwork([4, 6, 3], Rng(41)), p, ds,
          TrainConfig(steps=5, batch=4, objective=objective, seed=42))
    assert counts == {"evaluate": 20}
    counts.clear()
    den.denoise(np.zeros((3, 3)), 40.0)
    den.denoise(np.zeros((1, 3)), 60.0)
    assert counts == {"evaluate": 2}


def test_mse_x0_on_parameterless_denoiser():
    p = _pixel_process()
    x0 = Field([0.5, -0.5])
    loss, grad = compute_loss("mse-x0", ConstantDenoiser(x0), p, x0, 40.0, Rng(1))
    assert loss == 0.0 and grad.size == 0


def test_objective_wrapper_pairing_enforced():
    p = _pixel_process()
    x0 = Field([0.0, 0.0])
    noise_den = PreconditionedDenoiser(TinyNetwork([3, 4, 2], Rng(2)), p, "predict-noise")
    x0_den = PreconditionedDenoiser(TinyNetwork([3, 4, 2], Rng(2)), p, "predict-x0")
    with pytest.raises(ValueError):
        compute_loss("x0-pred", noise_den, p, x0, 10.0, Rng(3))
    with pytest.raises(ValueError):
        compute_loss("noise-pred", x0_den, p, x0, 10.0, Rng(3))
    with pytest.raises(ValueError):
        compute_loss("weighted-noise-pred", noise_den, p, x0, 10.0, Rng(3))
    with pytest.raises(ValueError):
        compute_loss("noise-pred", ConstantDenoiser(x0), p, x0, 10.0, Rng(3))
    with pytest.raises(ValueError):
        compute_loss("banana", noise_den, p, x0, 10.0, Rng(3))


@pytest.mark.parametrize("objective", ["noise-pred", "weighted-noise-pred"])
def test_compute_loss_takes_a_field_or_an_array(objective):
    p = DiffusionProcess(make_vp_schedule(), pixel_basis((2, 2)), 0.0)
    den = PreconditionedDenoiser(TinyNetwork([5, 6, 4], Rng(4)), p,
                                 "predict-noise")
    v = np.array([[0.7, 0.1], [-0.4, 0.2]])
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])
    ref = compute_loss(objective, den, p, Field(v), 35.0, Rng(5),
                       mask=Field(mask))
    for x0 in (v.reshape(-1), v):
        loss, grad = compute_loss(objective, den, p, x0, 35.0, Rng(5),
                                  mask=mask)
        assert loss == ref[0] and np.array_equal(grad, ref[1])
    with pytest.raises(ValueError, match=r"got shape \(3,\)"):
        compute_loss(objective, den, p, np.zeros(3), 35.0, Rng(5), mask=mask)


def test_compute_loss_reproducible_from_seed():
    p = _pixel_process()
    den = PreconditionedDenoiser(TinyNetwork([3, 6, 2], Rng(4)), p, "predict-noise")
    x0 = Field([0.7, 0.1])
    a = compute_loss("noise-pred", den, p, x0, 35.0, Rng(5))
    b = compute_loss("noise-pred", den, p, x0, 35.0, Rng(5))
    assert a[0] == b[0] and np.array_equal(a[1], b[1])


def test_zero_mask_weight_reduces_to_plain_loss():
    p = _pixel_process()
    den = PreconditionedDenoiser(TinyNetwork([3, 6, 2], Rng(6)), p, "predict-noise")
    x0 = Field([0.3, -0.2])
    mask = Field([0.0, 0.0])
    plain = compute_loss("noise-pred", den, p, x0, 22.0, Rng(7))
    weighted = compute_loss("weighted-noise-pred", den, p, x0, 22.0, Rng(7),
                            mask=mask)
    assert plain[0] == weighted[0]
    assert np.array_equal(plain[1], weighted[1])


@pytest.mark.parametrize("objective,wrap,masked", [
    ("mse-x0", "predict-noise", False),
    ("noise-pred", "predict-noise", False),
    ("weighted-noise-pred", "predict-noise", True),
    ("x0-pred", "predict-x0", False),
])
def test_loss_gradient_matches_finite_differences(objective, wrap, masked):
    p = _pixel_process(3)
    net = TinyNetwork([4, 5, 3], Rng(8))
    den = PreconditionedDenoiser(net, p, wrap)
    x0 = Field([0.4, -0.6, 0.2])
    mask = Field([1.0, 0.0, 0.0]) if masked else None
    t = 47.0

    def loss_at(seed=99):
        return compute_loss(objective, den, p, x0, t, Rng(seed), mask=mask)

    _, grad = loss_at()
    h = 1e-6
    idx = Rng(9).integers(0, net.n_params, 10)
    for i in idx:
        keep = net.params[i]
        net.params[i] = keep + h
        up = loss_at()[0]
        net.params[i] = keep - h
        dn = loss_at()[0]
        net.params[i] = keep
        fd = (up - dn) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_training_reduces_loss():
    p = _pixel_process(2)
    ds = DiracDataset([Field([0.6, -0.3])])
    net = TinyNetwork([3, 10, 2], Rng(10))
    cfg = TrainConfig(steps=800, batch=2, lr=5e-3, objective="noise-pred", seed=1)
    _, trace = train(net, p, ds, cfg)
    assert len(trace) == 800
    assert np.mean(trace[-100:]) < np.mean(trace[:100])


def test_zero_learning_rate_is_a_no_op():
    p = _pixel_process(2)
    ds = DiracDataset([Field([0.6, -0.3])])
    net = TinyNetwork([3, 6, 2], Rng(11))
    before = net.params.copy()
    train(net, p, ds, TrainConfig(steps=20, lr=0.0, seed=2))
    assert np.array_equal(net.params, before)


def test_training_reproducible_from_seed():
    p = _pixel_process(2)
    ds = DiracDataset([Field([0.1, 0.9]), Field([-0.4, 0.2])])

    def run():
        net = TinyNetwork([3, 8, 2], Rng(12))
        cfg = TrainConfig(steps=60, batch=3, lr=2e-3, objective="x0-pred", seed=5)
        return train(net, p, ds, cfg)

    (net_a, trace_a), (net_b, trace_b) = run(), run()
    assert trace_a == trace_b
    assert np.array_equal(net_a.params, net_b.params)


def test_training_options_smoke():
    # adam + decay + averaged snapshot all run end to end
    p = _pixel_process(2)
    ds = DiracDataset([Field([0.5, 0.5])])
    net = TinyNetwork([3, 6, 2], Rng(13))
    cfg = TrainConfig(steps=40, lr=1e-3, lr_decay=0.5, lr_decay_every=10,
                      ema_decay=0.9, seed=6)
    _, trace = train(net, p, ds, cfg)
    assert len(trace) == 40 and np.all(np.isfinite(trace))
    assert np.all(np.isfinite(net.params))


def test_masked_training_smoke():
    p = _pixel_process(2)
    ds = DiracDataset([Field([0.5, -0.5])])
    net = TinyNetwork([3, 6, 2], Rng(14))
    cfg = TrainConfig(steps=30, objective="weighted-noise-pred", seed=7)
    _, trace = train(net, p, ds, cfg, mask=Field([1.0, 0.0]))
    assert len(trace) == 30 and np.all(np.isfinite(trace))


def test_trained_network_cannot_beat_exact_posterior_mean():
    # the posterior-mean denoiser minimizes expected mse-x0; a trained net
    # must not fall below it beyond Monte Carlo resolution
    p = _pixel_process(2)
    pts = [Field([0.8, 0.0]), Field([-0.8, 0.4])]
    ds = DiracDataset(pts)
    net = TinyNetwork([3, 10, 2], Rng(15))
    train(net, p, ds, TrainConfig(steps=500, lr=3e-3, objective="noise-pred",
                                  seed=8))
    net_den = PreconditionedDenoiser(net, p, "predict-noise")
    exact_den = DiracMixtureDenoiser(ds, p)
    rng = Rng(16)
    diffs = []
    for k in range(3000):
        x0 = pts[k % 2]
        t = 100.0 * (1.0 - float(rng.uniform()))
        seed = 1000 + k
        l_net, _ = compute_loss("mse-x0", net_den, p, x0, t, Rng(seed))
        l_exact, _ = compute_loss("mse-x0", exact_den, p, x0, t, Rng(seed))
        diffs.append(l_net - l_exact)
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    assert diffs.mean() > -2.0 * se


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts():
    p = _pixel_process(2)
    ds = DiracDataset([Field([0.5, 0.5])])
    net = TinyNetwork([3, 6, 2], Rng(17))
    net.params[:] = 1e200  # forces overflow in the forward pass
    with pytest.raises(RuntimeError):
        train(net, p, ds, TrainConfig(steps=5, seed=9))


def test_write_loss_trace(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_trace([1.5, 0.25], path)
    lines = path.read_text().splitlines()
    assert lines == ["step,loss", "0,1.5", "1,0.25"]
    # numpy scalars print as plain numbers too
    write_loss_trace(np.array([0.5, 0.25]), path)
    assert path.read_text().splitlines() == ["step,loss", "0,0.5", "1,0.25"]
