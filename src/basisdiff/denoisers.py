"""Denoisers D(x; t) -> x0 estimate, and the tiny trainable network behind them.

Three variants share one calling convention: ``denoise_at(x, table, k)``
takes flat (n, d) states at knot k of a process's KnotTable and returns
their (n, d) estimates.  Every denoiser defines it and every reverse walk
calls it, so a walk evaluates the schedule once for all its knots;
``denoise(x, t)`` is the same routine at one time t.

* constant-oracle: returns a fixed field (the conditional optimum when the
  data distribution is a single point).
* analytic-dirac: the exact posterior mean under a finite point dataset
  (DiracDataset), computed with log-stabilized mixture weights.  It whitens
  the points once, when it is made, and owns the one weight routine.
* preconditioned-network: wraps a small fully-connected network F through
  skip/scale coefficients so that either "F predicts the diffused noise" or
  "F predicts x0 directly" yields a denoiser.

The network is plain numpy with explicit backpropagation; no autodiff.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .bases import COND_LIMIT
from .fields import Field, Rng, field_from_bytes, field_to_bytes
from .process import DiffusionProcess, KnotTable
from .schedules import EndpointError

# Out-of-range squared distances closer than this share of (|x| + s max|y_i|)^2
# are equal (weights_at): the share below which the rank cutoff of
# CovarianceOp._factor drops a direction, ~1e5 times the projection round-off.
OUT_OF_RANGE_RTOL = 1.0 / COND_LIMIT


class DiracDataset:
    """Finite point dataset [y_1 .. y_Y] of Fields or arrays, held only as
    its read-only float64 (Y, d) rows and the point shape, so no copy made
    from them (a mixture denoiser's whitened rows) goes stale."""

    def __init__(self, points):
        if len(points) < 1:
            raise ValueError("dataset needs at least one point")
        shape = np.shape(points[0])
        for p in points:
            if np.shape(p) != shape:
                raise ValueError("all dataset points must share one shape")
        self.shape = shape
        self._rows = np.array([np.ravel(p) for p in points], dtype=np.float64)
        if not np.isfinite(self._rows).all():
            raise ValueError("dataset points must be finite")
        self._rows.setflags(write=False)

    def __len__(self):
        return self._rows.shape[0]

    def stacked(self) -> np.ndarray:
        """The (Y, d) point rows; read-only."""
        return self._rows


class Denoiser:
    def denoise(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def denoise_at(self, x: np.ndarray, table: KnotTable, k: int) -> np.ndarray:
        """The estimates at knot k of a process's KnotTable."""
        raise NotImplementedError


class ConstantDenoiser(Denoiser):
    """D(x; t) = y for every input; realizes the single-point optimum."""

    def __init__(self, y):
        self.y = np.array(y, dtype=np.float64).reshape(-1)  # a flat copy
        if not np.isfinite(self.y).all():
            raise ValueError("constant denoiser output must be finite")
        self._out = None  # read-only broadcast of y, kept while x's shape holds

    def denoise(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.denoise_at(x, None, 0)

    def denoise_at(self, x: np.ndarray, table: KnotTable, k: int) -> np.ndarray:
        out = self._out
        if out is None or out.shape != np.shape(x):
            if np.shape(x)[-1] != self.y.size:
                raise ValueError(f"state width {np.shape(x)[-1]} != {self.y.size}")
            out = self._out = np.broadcast_to(self.y, np.shape(x))
        return out


class DiracMixtureDenoiser(Denoiser):
    """Exact posterior mean sum_i w_i y_i under a finite point dataset.

    Made once: the point rows Y, W Y and W sum_m h_m for the whitener W of
    the process's Sigma, and at rank r < d the out-of-range part of Y.
    """

    def __init__(self, dataset: DiracDataset, process: DiffusionProcess):
        self.rows = dataset.stacked()
        # ValueError on a wrong shape
        process.clean_point(self.rows[0].reshape(dataset.shape))
        self.process = process
        op = process.cov_op
        self._white_rows = op.whiten(self.rows)
        self._white_shift = op.whiten(op.total)
        full_rank = self._white_rows.shape[1] == self.rows.shape[1]
        self._perp_rows = None if full_rank else op.out_of_range(self.rows)
        # the largest |y_i|, which scales the out-of-range tolerance
        self._max_norm = np.linalg.norm(self.rows, axis=1).max()

    def weights_at(self, table: KnotTable, k: int,
                   states: np.ndarray) -> np.ndarray:
        """Posterior weights of the mixture components at knot k of table.

        Returns (n, Y) weights for (n, d) states (a (d,) state is one row),
        each row summing to one.  w_i is proportional to
        N(x; s y_i + c sum_m h_m, cov_scale Sigma).  With the whitener W of
        Sigma the exponent is |z - s W y_i - c W sum_m h_m|^2 / cov_scale for
        z = W x, so with the points whitened once a call makes one product of
        the states with W.  The residual is formed before squaring: expanding
        the square as |z|^2 - 2 z.y + |y|^2 cancels catastrophically at small
        sigma.  Log densities with max subtraction keep exp from underflowing.

        At rank r < d the weights are the delta -> 0 limit for Sigma + delta I:
        a component whose out-of-range distance |(I - V_r V_r^T)(x - s y_i)|^2
        (the shift is in range) exceeds the least by more than round-off
        (OUT_OF_RANGE_RTOL) gets weight 0; the rest are weighed as above.
        This is exact for a one-point dataset.
        """
        s, cov_scale = table.s[k], table.cov_scale[k]
        if cov_scale == 0.0:
            raise EndpointError("mixture weights undefined at sigma = 0")
        op = self.process.cov_op
        if states.ndim == 1:
            states = states[None, :]
        # the (Y, r) component centres s W y_i + c W sum_m h_m, made first
        # so the (n, Y, r) residual is one subtraction
        centre = s * self._white_rows + table.shift_gain[k] * self._white_shift
        resid = op.whiten(states)[:, None, :] - centre
        np.square(resid, out=resid)
        # in place from here: n can be 1e5 states, where every (n, Y)
        # temporary adds to the peak memory; dividing by -2 cov_scale
        # rounds as dividing by cov_scale and halving does
        w = np.add.reduce(resid, axis=-1)
        w /= -2.0 * cov_scale
        if self._perp_rows is not None:
            far = op.out_of_range(states)[:, None, :] - s * self._perp_rows
            np.square(far, out=far)
            dist = far.sum(axis=-1)
            dist -= dist.min(axis=1, keepdims=True)
            scale = (np.linalg.norm(states, axis=1) + s * self._max_norm) ** 2
            w[dist > OUT_OF_RANGE_RTOL * scale[:, None]] = -np.inf
        w -= np.maximum.reduce(w, axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= np.add.reduce(w, axis=1, keepdims=True)
        return w

    def denoise(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.denoise_at(x, self.process.knot_table(t), 0)

    def denoise_at(self, x: np.ndarray, table: KnotTable, k: int) -> np.ndarray:
        return self.weights_at(table, k, x) @ self.rows

    # the benchmark tracer wraps this name on the class itself
    denoise_batch = denoise


class TinyNetwork:
    """Fully-connected tanh network on flat float64 vectors.

    Parameters live in one flat vector so optimizers, serialization and the
    finite-difference gradient check all treat the network as a plain array.
    Hidden layers use tanh; the output layer is linear.
    """

    def __init__(self, widths, rng: Rng):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or min(widths) < 1:
            raise ValueError("need at least input and output widths, all >= 1")
        self.widths = widths
        self._layout = []
        offset = 0
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self._layout.append((offset, fan_out, fan_in))
            offset += fan_out * fan_in + fan_out
        self.params = np.zeros(offset)
        for (off, fan_out, fan_in) in self._layout:
            w = rng.standard_normal((fan_out, fan_in)) * np.sqrt(1.0 / fan_in)
            self.params[off:off + fan_out * fan_in] = w.reshape(-1)

    @property
    def n_params(self) -> int:
        return self.params.size

    def _layers(self):
        for (off, fan_out, fan_in) in self._layout:
            w = self.params[off:off + fan_out * fan_in].reshape(fan_out, fan_in)
            b = self.params[off + fan_out * fan_in:off + fan_out * (fan_in + 1)]
            yield w, b

    def forward_cached(self, z: np.ndarray):
        """Forward pass keeping post-activation values for backward()."""
        acts = [np.asarray(z, dtype=np.float64)]
        layers = list(self._layers())
        a = acts[0]
        for i, (w, b) in enumerate(layers):
            pre = a @ w.T + b
            a = pre if i == len(layers) - 1 else np.tanh(pre)
            acts.append(a)
        return a, acts

    def backward(self, acts, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * output) w.r.t. the flat parameters.

        An (n, out) grad_out sums the per-row gradients inside the weight
        products; a 1-D grad_out (with 1-D activations) is one row.
        """
        grad = np.empty_like(self.params)
        layers = list(self._layers())
        delta = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            a_prev = np.atleast_2d(acts[i])
            off, fan_out, fan_in = self._layout[i]
            gw = grad[off:off + fan_out * fan_in].reshape(fan_out, fan_in)
            np.matmul(delta.T, a_prev, out=gw)
            np.sum(delta, axis=0,
                   out=grad[off + fan_out * fan_in:off + fan_out * (fan_in + 1)])
            if i > 0:
                delta = (delta @ w) * (1.0 - acts[i] ** 2)
        return grad


class PreconditionedDenoiser(Denoiser):
    """D(x;t) = c_skip x + c_out F(c_in x, c_noise) around a TinyNetwork.

    objective "predict-noise": c_skip = 1/s, c_out = -sigma, so a perfect
    noise estimate inverts the forward map exactly.  objective "predict-x0":
    c_skip = 0, c_out = 1.  In both cases c_in = 1/sqrt(1 + sigma^2) and
    c_noise = t/T; the time feature is appended as one extra input scalar.
    """

    objectives = ("predict-noise", "predict-x0")

    def __init__(self, net: TinyNetwork, process: DiffusionProcess,
                 objective: str):
        if objective not in self.objectives:
            raise ValueError(f"unknown objective {objective!r}")
        d = int(np.prod(process.shape))
        if net.widths[0] != d + 1 or net.widths[-1] != d:
            raise ValueError(
                f"network widths {net.widths} do not match data dim {d} "
                "(+1 time feature)")
        self.net = net
        self.process = process
        self.objective = objective

    def _net_input(self, x: np.ndarray, t, sig) -> np.ndarray:
        """Network input [c_in x, t/T] for flat states at one time t or at
        one time per row.

        t and sigma at t (sig), like s and sig in the helpers below, are
        floats for one time or (n, 1) columns for one time per row, so each
        value scales a whole row.
        """
        z = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
        np.multiply(1.0 / np.sqrt(1.0 + sig * sig), x, out=z[..., :-1])
        z[..., -1:] = t / self.process.schedule.T
        return z

    def net_forward(self, x: np.ndarray, t, sig):
        """(F output, activation cache) for flat states, as in _net_input."""
        return self.net.forward_cached(self._net_input(x, t, sig))

    def assemble(self, x: np.ndarray, f_out: np.ndarray, s, sig) -> np.ndarray:
        """D from the network output: x/s - sigma F for predict-noise, F for
        predict-x0."""
        if self.objective == "predict-x0":
            return f_out
        return x / s - sig * f_out

    def out_gain(self, sig):
        """dD/dF, the c_out coefficient of the wrapper: -sigma for
        predict-noise and 1 for predict-x0."""
        if self.objective == "predict-noise":
            return -sig
        return 1.0

    def denoise(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.denoise_at(x, self.process.knot_table(t), 0)

    def denoise_at(self, x: np.ndarray, table: KnotTable, k: int) -> np.ndarray:
        sig = table.sigma[k]
        f_out, _ = self.net_forward(x, table.t[k], sig)
        return self.assemble(x, f_out, table.s[k], sig)


class CheckpointMismatch(ValueError):
    """A well-formed checkpoint whose header disagrees with the run."""


_MAGIC = b"BDNET"
_VERSION = 2
_FIXED = len(_MAGIC) + 12  # magic, u32 version, u64 header length
_DIGEST = 32  # SHA-256


def save_network(net: TinyNetwork, path, header: dict = None) -> None:
    """Checkpoint format 2: magic, version, header length, the sorted-JSON
    header (the widths and the caller's fields), the flat parameters in
    field format, then the SHA-256 of every byte before it."""
    import hashlib  # loaded by the runs that read or write a checkpoint
    head = json.dumps({**(header or {}), "widths": net.widths},
                      sort_keys=True).encode()
    body = (_MAGIC + struct.pack("<IQ", _VERSION, len(head)) + head
            + field_to_bytes(Field(net.params)))
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


def load_network(path, expect: dict = None) -> TinyNetwork:
    """Inverse of save_network.  A malformed file, or one of an older
    format, raises ValueError; a well-formed one whose header differs from
    expect at some key raises CheckpointMismatch naming the first such key."""
    import hashlib
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(_MAGIC):
        raise ValueError(f"{path} is not a format-{_VERSION} checkpoint; an "
                         f"older one holds no run header: re-train it with "
                         f"`basisdiff train`")
    if (len(buf) < _FIXED + _DIGEST
            or hashlib.sha256(buf[:-_DIGEST]).digest() != buf[-_DIGEST:]):
        raise ValueError(f"checkpoint {path} is cut short or damaged "
                         f"(its SHA-256 does not match)")
    version, n_head = struct.unpack_from("<IQ", buf, len(_MAGIC))
    if version != _VERSION:
        raise ValueError(f"checkpoint format {version} is not {_VERSION}")
    if n_head > len(buf) - _FIXED - _DIGEST:
        raise ValueError(f"checkpoint header of {n_head} bytes overruns the "
                         f"file")
    try:
        header = json.loads(buf[_FIXED:_FIXED + n_head])
    except RecursionError:
        raise ValueError("checkpoint header nests too deeply") from None
    widths = header.get("widths") if isinstance(header, dict) else None
    if not (isinstance(widths, list) and len(widths) >= 2
            and all(type(w) is int and w >= 1 for w in widths)):
        raise ValueError(f"checkpoint header has no valid widths: {widths!r}")
    params = field_from_bytes(buf[_FIXED + n_head:-_DIGEST])
    # checked before TinyNetwork allocates anything from the header widths
    n_params = sum(o * i + o for i, o in zip(widths[:-1], widths[1:]))
    if params.size != n_params:
        raise ValueError("parameter payload does not match the architecture")
    for key in sorted(expect or {}):
        if header.get(key) != expect[key]:
            raise CheckpointMismatch(
                f"checkpoint {path} was trained with {key} = "
                f"{header.get(key)!r}, but this run has {expect[key]!r}; "
                f"restore it under its own config or re-train")
    net = TinyNetwork(widths, Rng(0))
    net.params[:] = params.flat()
    return net
