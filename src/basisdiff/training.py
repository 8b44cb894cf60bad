"""Training loop and loss variants for the tiny denoising network.

One step follows the standard recipe: draw a data point, draw a time, draw
the structured noise, form x_t, evaluate the network through its
preconditioning wrapper, and descend on one of four objectives:

* mse-x0              ||D(x_t; t) - x0||^2 on any denoiser
* noise-pred          ||F(.) - N||^2 on the raw network output
* weighted-noise-pred noise-pred with a mask-derived pixel weight
* x0-pred             ||F(.) - x0||^2 on the raw network output

Losses are plain squared norms (sums, not means).  Gradients come from the
network's explicit backward pass; Adam implements its update rule inline
so every arithmetic step is visible to the gradient tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .denoisers import (Denoiser, DiracDataset, PreconditionedDenoiser,
                        TinyNetwork)
from .fields import _BELOW_ONE, _POSITIVE, SEED, Rng, cast, write_csv
from .process import DiffusionProcess

OBJECTIVES = ("mse-x0", "noise-pred", "weighted-noise-pred", "x0-pred")
# one (kind, least, most) row per TrainConfig field, read by its checks
TRAINING = {
    "steps": (int, 1, None), "batch": (int, 1, None), "lr": (float, 0, None),
    "optimizer": (("adam",), None, None),
    # Adam's folded bias correction needs 1 - beta2^k > 0, so beta2 < 1;
    # an EMA decay of 1 would never move off the initial weights
    "beta1": (float, 0, _BELOW_ONE), "beta2": (float, 0, _BELOW_ONE),
    "eps": (float, _POSITIVE, None), "objective": (OBJECTIVES, None, None),
    "time_dist": (("continuous",), None, None), "seed": SEED,
    "lr_decay": (float, _POSITIVE, None), "lr_decay_every": (int, 0, None),
    "ema_decay": (float, 0, _BELOW_ONE),
}


@dataclass
class TrainConfig:
    steps: int
    batch: int = 1
    lr: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    objective: str = "noise-pred"
    time_dist: str = "continuous"
    seed: int = 0
    lr_decay: float = 1.0
    lr_decay_every: int = 0
    ema_decay: float = 0.0

    def __post_init__(self):
        """Each field cast and checked against its row of TRAINING; a
        refusal is a ValueError whose message starts with the field."""
        for key, x in vars(self).items():
            setattr(self, key, cast(x, *TRAINING[key], key))


class Adam:
    """Adam with bias correction; updates params and its moments in place.

    m and v are the textbook moments scaled by 1/(1 - beta1) and
    1/(1 - beta2), so they update as m = beta1 m + g and v = beta2 v + g^2.
    Those scales and the bias corrections c1 = 1 - beta1^k, c2 = 1 - beta2^k
    fold into two scalars, with r = sqrt(c2 / (1 - beta2)),

        lr m_hat / (sqrt(v_hat) + eps) = (lr r (1 - beta1) / c1) m / (sqrt(v) + eps r),

    so a step makes ten passes over the parameters.  One scratch buffer of
    the parameter size is reused across steps; step returns it holding the
    update it subtracted, valid until the next step.
    """

    def __init__(self, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = self._v = self._buf = None
        self._k = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
            self._buf = np.empty_like(params)
        self._k += 1
        m, v, buf = self._m, self._v, self._buf
        m *= self.beta1
        m += grad
        np.square(grad, out=buf)
        v *= self.beta2
        v += buf
        r = math.sqrt((1.0 - self.beta2 ** self._k) / (1.0 - self.beta2))
        np.sqrt(v, out=buf)
        buf += self.eps * r
        np.divide(m, buf, out=buf)
        buf *= self.lr * r * (1.0 - self.beta1) / (1.0 - self.beta1 ** self._k)
        params -= buf
        return buf


def _validate_mask(mask, shape) -> np.ndarray:
    if np.shape(mask) not in (shape, (math.prod(shape),)):
        raise ValueError(f"mask shape {np.shape(mask)} does not match {shape}")
    m = np.ravel(mask)
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    return m


def _row_weights(m: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """weight_from_mask for each row of (n, d) noise under the flat mask m."""
    num = np.max(np.abs(m * noise), axis=1)
    den = np.max(np.abs((1.0 - m) * noise), axis=1)
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    return 1.0 + (1.0 - m) * ratio[:, None]


def weight_from_mask(mask, noise) -> np.ndarray:
    """Pixel weight 1 + (1-m) * max|m N| / max|(1-m) N| in the noise's shape.

    max is over pixels of the absolute value; when the non-mask noise
    maximum is zero the second term is defined as zero.
    """
    shape = np.shape(noise)
    m = _validate_mask(mask, shape)
    return _row_weights(m, np.reshape(noise, (1, -1)))[0].reshape(shape)


def wrapper_for(objective: str) -> str:
    """The preconditioning wrapper a network trains under for an objective:
    predict-x0 for x0-pred, predict-noise otherwise."""
    return "predict-x0" if objective == "x0-pred" else "predict-noise"


def _check_objective(objective: str, den: Denoiser, mask, shape):
    """Validate the objective/denoiser pairing; the flat mask or None."""
    cast(objective, *TRAINING["objective"], "objective")
    if objective == "weighted-noise-pred" and mask is None:
        raise ValueError("weighted-noise-pred requires a mask")
    if objective != "mse-x0":
        if not isinstance(den, PreconditionedDenoiser):
            raise ValueError(
                f"objective {objective!r} needs a preconditioned network")
        need = wrapper_for(objective)
        if den.objective != need:
            raise ValueError(f"{objective} training requires a {need} wrapper")
    if objective == "weighted-noise-pred":
        return _validate_mask(mask, shape)
    return None


def _batch_loss(objective: str, den: Denoiser, p: DiffusionProcess,
                x0: np.ndarray, t: np.ndarray, noise: np.ndarray, m=None):
    """Per-row losses and the batch-mean parameter gradient of one batch.

    x0 and noise hold one flat sample per row, t one time per row, and m is
    the validated flat mask of weighted-noise-pred.  The 1/B of the mean
    rides on the backward seed, so no pass over the parameters applies it;
    for one row the gradient is that row's own.  The schedule is evaluated
    once per row, and its s and sigma columns, with the times as a column,
    serve the network input, the wrapper and its output gain.  The network
    runs one forward and one backward pass over all rows, and the residual
    and the backward seed overwrite its output, which backward never reads.
    The gradient is zero-length for denoisers without trainable parameters.
    """
    times = t.tolist()  # floats take the schedule's fast path, np.float64 not
    coef = np.empty((len(times), 4))
    for k, v in enumerate(times):
        coef[k] = p.schedule.evaluate(v)
    s, sig = coef[:, :1], coef[:, 2:3]
    x_t = s * x0
    x_t += (s * sig) * noise

    if objective == "mse-x0" and not isinstance(den, PreconditionedDenoiser):
        # a generic denoiser takes one time per call: one row at a time
        resid = np.concatenate([den.denoise(x_t[k:k + 1], v)
                                for k, v in enumerate(times)]) - x0
        return np.einsum("ij,ij->i", resid, resid), np.zeros(0)

    seed = 2.0 / len(t)
    f_out, acts = den.net_forward(x_t, t[:, None], sig)
    if objective == "mse-x0":
        resid = den.assemble(x_t, f_out, s, sig)  # f_out itself for predict-x0
        resid -= x0
        w, gain = None, den.out_gain(sig)
    else:
        resid = f_out
        resid -= x0 if objective == "x0-pred" else noise
        w = _row_weights(m, noise) if objective == "weighted-noise-pred" else None
        gain = 1.0 if w is None else w
    losses = np.einsum("ij,ij->i", resid, resid if w is None else w * resid)
    resid *= seed * gain  # seed * gain first, the order the trained bits keep
    return losses, den.net.backward(acts, resid)


def compute_loss(objective: str, den: Denoiser, p: DiffusionProcess,
                 x0, t: float, rng: Rng, mask=None):
    """One-sample loss and parameter gradient at the clean point x0.

    Draws the noise internally from rng, so calling twice with identically
    seeded Rng objects reproduces the same (loss, gradient) pair.  Returns a
    zero-length gradient for denoisers without trainable parameters.
    """
    x0 = p.clean_point(x0)
    m = _check_objective(objective, den, mask, p.shape)
    noise = p.noise_from_normals(rng.standard_normal((1, p.basis.M)))
    losses, grad = _batch_loss(objective, den, p, x0[None, :],
                               np.array([float(t)]), noise, m)
    return float(losses[0]), grad


def _draw_batch(rng: Rng, cfg: TrainConfig, p: DiffusionProcess,
                points: np.ndarray):
    """(x0, t, noise) for one step, each with one row per batch element.

    Each element draws its data index, then its time (u in [0, 1) mapped
    to (0, T]), then its M noise weights, in the order compute_loss would
    draw them one call at a time; all the weights mix with the basis rows
    in one product.
    """
    T = p.schedule.T
    idx = np.empty(cfg.batch, dtype=np.intp)
    t = np.empty(cfg.batch)
    eps = np.empty((cfg.batch, p.basis.M))
    for k in range(cfg.batch):
        idx[k] = rng.integers(0, len(points))
        t[k] = T * (1.0 - rng.uniform())
        eps[k] = rng.standard_normal(p.basis.M)
    return points[idx], t, p.noise_from_normals(eps)


def train(net: TinyNetwork, p: DiffusionProcess, ds: DiracDataset,
          cfg: TrainConfig, mask=None):
    """Run the training loop; returns (net, per-step mean loss trace).

    The network is wrapped per the objective (wrapper_for).  All
    randomness comes from Rng(cfg.seed, 1), so a fixed config reproduces
    its trace exactly.  Each step evaluates its whole batch in one forward
    and one backward pass.
    """
    den = PreconditionedDenoiser(net, p, wrapper_for(cfg.objective))
    m = _check_objective(cfg.objective, den, mask, p.shape)
    opt = Adam(cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    rng = Rng(cfg.seed, 1)
    points = ds.stacked()
    # the EMA kept as its offset from the weights, ema - params
    ema_off = np.zeros_like(net.params) if cfg.ema_decay > 0.0 else None

    trace = []
    for step in range(cfg.steps):
        x0, t, noise = _draw_batch(rng, cfg, p, points)
        losses, grad = _batch_loss(cfg.objective, den, p, x0, t, noise, m)
        mean_loss = float(losses.sum()) / cfg.batch
        if not math.isfinite(mean_loss):
            raise RuntimeError(f"non-finite loss {mean_loss} at step {step}")
        if cfg.lr_decay_every > 0 and step > 0 and step % cfg.lr_decay_every == 0:
            opt.lr *= cfg.lr_decay
        update = opt.step(net.params, grad)
        if ema_off is not None:
            # params -= update moves ema - params by +update, then it decays
            ema_off += update
            ema_off *= cfg.ema_decay
        trace.append(mean_loss)
    if ema_off is not None:
        net.params += ema_off
    return net, trace


def write_loss_trace(trace, path) -> None:
    """CSV with header step,loss, one row per step."""
    write_csv(path, ["step", "loss"],
              ((i, float(v)) for i, v in enumerate(trace)))
