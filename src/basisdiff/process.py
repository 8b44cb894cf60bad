"""The diffusion process over a basis-structured noise model.

Couples one schedule, one basis set and one stochasticity mediator eta >= 0
into a forward process x_t = s(t) x_0 + s(t) sigma(t) N, where the diffused
noise N = sum_m ((eta + eps_m) / (eta + 1)) h_m mixes the basis elements with
independent standard normal weights.  eta = 0 is the maximally stochastic
setting; eta -> inf freezes N at sum_m h_m.

The same object exposes the reverse-time machinery built on that kernel:
conditional/marginal scores and the probability-flow ODE right-hand sides in
their raw (score) and simplified (denoiser) assemblies.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .bases import COND_LIMIT, BasisSet, CovarianceOp
from .fields import Field, Rng
from .schedules import EndpointError, Schedule, sde_coefficients

# Out-of-range squared distances closer than this share of (|x| + s max|y_i|)^2
# are equal (dirac_weights): the share below which the rank cutoff of
# CovarianceOp._factor drops a direction, ~1e5 times the projection round-off.
OUT_OF_RANGE_RTOL = 1.0 / COND_LIMIT


@dataclass(frozen=True)
class ConditionalMoments:
    """Gaussian kernel parameters: mean, scalar covariance factor, Sigma op."""

    mean: Field
    cov_scale: float
    cov_op: CovarianceOp


class DiracDataset:
    """Finite point dataset [y_1 .. y_Y], optionally with degraded partners.

    A process caches whitened copies of the points (see
    DiffusionProcess.dirac_weights), so the points are not to be changed
    once a process has used the dataset.
    """

    def __init__(self, points, degraded=None):
        if len(points) < 1:
            raise ValueError("dataset needs at least one point")
        shape = points[0].shape
        for p in points:
            if p.shape != shape:
                raise ValueError("all dataset points must share one shape")
        if degraded is not None:
            if len(degraded) != len(points):
                raise ValueError("degraded list must pair up with points")
            for d in degraded:
                if d.shape != shape:
                    raise ValueError("degraded fields must share the point shape")
        self.points = list(points)
        self.degraded = list(degraded) if degraded is not None else None
        self.shape = shape

    def __len__(self):
        return len(self.points)

    def stacked(self) -> np.ndarray:
        return np.stack([p.flat() for p in self.points])


class DiffusionProcess:
    """Forward diffusion with basis-structured noise and its reverse flows."""

    def __init__(self, schedule: Schedule, basis: BasisSet, eta: float):
        if eta < 0:
            raise ValueError("eta must be non-negative")
        self.schedule = schedule
        self.basis = basis
        self.eta = float(eta)
        self.shape = basis.shape
        self._d = int(np.prod(self.shape))
        self._fixed_op = None
        self._whitened_sets = weakref.WeakKeyDictionary()

    # -- forward direction ---------------------------------------------------

    def _cov_op(self, conditioning=None) -> CovarianceOp:
        """Sigma's operator: one per process for a fixed basis, so its
        factorization is made once; one per conditioning pair otherwise."""
        if self.basis.mode != "fixed":
            return CovarianceOp(self.basis, conditioning)
        if self._fixed_op is None:
            self._fixed_op = CovarianceOp(self.basis)
        return self._fixed_op

    def _kernel_scales(self, t: float):
        """(s, sigma, shift gain eta s sigma/(eta+1), cov_scale) at time t."""
        s, _, sig, _ = self.schedule.evaluate(t)
        return (s, sig, self.eta * s * sig / (self.eta + 1.0),
                (s * sig / (self.eta + 1.0)) ** 2)

    def _whitened(self, ds: DiracDataset):
        """(Y, W Y, W sum_m h_m, Y out of range or None at full rank) for a
        dataset, made on first use; Y stacks the points as rows.

        The cache holds arrays only, never the process, so a process and its
        factor are freed as soon as the last caller drops them.
        """
        sets = self._whitened_sets.get(ds)
        if sets is None:
            op = self._cov_op()
            pts = ds.stacked()
            bsum = self.basis.elements(None).sum(axis=0)
            white_pts = op.whiten(pts)
            perp = op.out_of_range(pts) if white_pts.shape[1] < self._d else None
            sets = self._whitened_sets[ds] = (
                pts, white_pts, op.whiten(bsum), perp)
        return sets

    def sample_noise(self, rng: Rng, conditioning=None) -> Field:
        """One draw of N = sum_m ((eta + eps_m)/(eta + 1)) h_m."""
        return Field(self._noise_batch(1, rng, conditioning)[0].reshape(self.shape))

    def _noise_batch(self, n: int, rng: Rng, conditioning=None) -> np.ndarray:
        """(n, d) matrix of independent noise draws; vectorized Monte Carlo path."""
        return self.noise_from_normals(
            rng.standard_normal((n, self.basis.M)), conditioning)

    def noise_from_normals(self, eps: np.ndarray, conditioning=None) -> np.ndarray:
        """(n, d) noise rows N for (n, M) standard normal weights eps.

        Each row of eps is one draw of (eps_1 .. eps_M); drawing the weights
        apart from mixing them lets a caller take draws one at a time from a
        stream and mix a whole batch in one product.
        """
        rows = self.basis.elements(conditioning)
        return ((self.eta + eps) / (self.eta + 1.0)) @ rows

    def forward_sample(self, x0: Field, t: float, rng: Rng,
                       conditioning=None) -> Field:
        """x_t = s(t) x_0 + s(t) sigma(t) N with a fresh noise draw."""
        return Field(
            self._forward_batch(x0, t, 1, rng, conditioning)[0].reshape(self.shape))

    def _forward_batch(self, x0: Field, t: float, n: int, rng: Rng,
                       conditioning=None) -> np.ndarray:
        s, _, sig, _ = self.schedule.evaluate(t)
        noise = self._noise_batch(n, rng, conditioning)
        return s * x0.flat()[None, :] + (s * sig) * noise

    def conditional_moments(self, x0: Field, t: float,
                            conditioning=None) -> ConditionalMoments:
        """Exact kernel parameters: mean, cov_scale = s^2 sigma^2/(eta+1)^2, Sigma."""
        if x0.shape != self.shape:
            raise ValueError(f"shape mismatch: {x0.shape} vs {self.shape}")
        s, _, shift_gain, cov_scale = self._kernel_scales(t)
        shift = shift_gain * self.basis.elements(conditioning).sum(axis=0)
        mean = Field((s * x0.flat() + shift).reshape(self.shape))
        return ConditionalMoments(mean=mean, cov_scale=cov_scale,
                                  cov_op=self._cov_op(conditioning))

    # -- SDE simulation -------------------------------------------------------

    def simulate_sde(self, x0: Field, n_steps: int, n_paths: int, rng: Rng,
                     conditioning=None) -> np.ndarray:
        """(n_paths, d) Euler-Maruyama endpoints over a uniform grid on (T/1000, T].

        Each path starts from an exact forward_sample at the grid start,
        which sidesteps the coefficient endpoint at t = 0.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        sched = self.schedule
        rows = self.basis.elements(conditioning)
        bsum = rows.sum(axis=0)
        times = np.linspace(sched.T / 1000.0, sched.T, n_steps + 1)
        x = self._forward_batch(x0, times[0], n_paths, rng, conditioning)
        for i in range(n_steps):
            t, dt = times[i], times[i + 1] - times[i]
            c = sde_coefficients(sched, self.eta, bsum, t)
            xi = rng.standard_normal((n_paths, rows.shape[0]))
            x = x + (c.f * x + c.phi) * dt \
                + (c.g * math.sqrt(dt)) * (xi @ rows)
        return x

    # -- scores and probability-flow ODE --------------------------------------

    def _score(self, t: float, post_mean: np.ndarray, x: np.ndarray,
               cov_op: CovarianceOp, conditioning=None) -> np.ndarray:
        """((eta+1)/(s sigma))^2 Sigma^{-1} (s D + shift - x) for (n, d) states.

        D = post_mean is the posterior mean of x_0: one (d,) point (x_0
        itself for the conditional score) or one row per state.  The solve
        takes the residuals as (d, n) columns.
        """
        s, sig, shift_gain, _ = self._kernel_scales(t)
        if sig == 0.0:
            raise EndpointError("score undefined at sigma = 0")
        if x.ndim != 2 or x.shape[1] != self._d:
            raise ValueError(f"states must be (n, {self._d}) rows, got {x.shape}")
        shift = shift_gain * self.basis.elements(conditioning).sum(axis=0)
        gain = ((self.eta + 1.0) / (s * sig)) ** 2
        resid = s * post_mean + shift - x
        return gain * cov_op.solve_flat(resid.T).T

    def conditional_score(self, x0: Field, t: float, x: np.ndarray,
                          conditioning=None) -> np.ndarray:
        """((eta+1)^2 / (s^2 sigma^2)) Sigma^{-1} (mean - x) for (n, d) states x."""
        if x0.shape != self.shape:
            raise ValueError(f"shape mismatch: {x0.shape} vs {self.shape}")
        return self._score(t, x0.flat(), x, self._cov_op(conditioning),
                           conditioning)

    def dirac_weights(self, ds: DiracDataset, t: float, states: np.ndarray):
        """Posterior weights of the mixture components, and the stacked points.

        Returns (n, Y) weights for (n, d) states (a (d,) state is one row),
        each row summing to one, and the (Y, d) points.  w_i is proportional
        to N(x; s y_i + c sum_m h_m, cov_scale Sigma).  With the whitener W
        of Sigma the exponent is |z - s W y_i - c W sum_m h_m|^2 / cov_scale
        for z = W x, so with the dataset whitened once (_whitened) a call
        makes one product of the states with W.  The residual is formed
        before squaring: expanding the square as |z|^2 - 2 z.y + |y|^2
        cancels catastrophically at small sigma.  Log densities with max
        subtraction keep exp from underflowing.

        At rank r < d the weights are the delta -> 0 limit for Sigma + delta I:
        a component whose out-of-range distance |(I - V_r V_r^T)(x - s y_i)|^2
        (the shift is in range) exceeds the least by more than round-off
        (OUT_OF_RANGE_RTOL) gets weight 0; the rest are weighed as above.
        This is exact for a one-point dataset.
        """
        s, _, shift_gain, cov_scale = self._kernel_scales(t)
        if cov_scale == 0.0:
            raise EndpointError("mixture weights undefined at sigma = 0")
        pts, white_pts, white_shift, perp_pts = self._whitened(ds)
        op = self._cov_op()
        states = np.atleast_2d(states)
        resid = op.whiten(states)[:, None, :] - s * white_pts
        resid -= shift_gain * white_shift
        np.square(resid, out=resid)
        # in place from here: n can be 1e5 states, where every (n, Y)
        # temporary adds to the peak memory
        w = resid.sum(axis=-1)
        w /= cov_scale
        w *= -0.5
        if perp_pts is not None:
            far = op.out_of_range(states)[:, None, :] - s * perp_pts
            np.square(far, out=far)
            dist = far.sum(axis=-1)
            dist -= dist.min(axis=1, keepdims=True)
            scale = (np.linalg.norm(states, axis=1)
                     + s * np.linalg.norm(pts, axis=1).max()) ** 2
            w[dist > OUT_OF_RANGE_RTOL * scale[:, None]] = -np.inf
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        return w, pts

    def marginal_score_dirac(self, ds: DiracDataset, t: float,
                             x: np.ndarray) -> np.ndarray:
        """Dirac-mixture marginal score for (n, d) states (fixed-mode basis only)."""
        if self.basis.mode != "fixed":
            raise ValueError("marginal score requires a fixed-mode basis")
        w, pts = self.dirac_weights(ds, t, x)
        return self._score(t, w @ pts, x, self._cov_op())

    def _score_flow(self, t: float, x: np.ndarray, score: np.ndarray,
                    cov_op: CovarianceOp, conditioning=None) -> np.ndarray:
        """Raw PFODE right-hand side f x + phi - (1/2) g^2 Sigma score, per row."""
        c = sde_coefficients(self.schedule, self.eta,
                             self.basis.elements(conditioning).sum(axis=0), t)
        return c.f * x + c.phi - 0.5 * c.g * c.g * cov_op.apply_flat(score.T).T

    def pfode_rhs_conditional(self, x0: Field, t: float, x: np.ndarray,
                              conditioning=None) -> np.ndarray:
        """Raw PFODE right-hand side with the conditional score, (n, d) states."""
        cov_op = self._cov_op(conditioning)
        score = self._score(t, x0.flat(), x, cov_op, conditioning)
        return self._score_flow(t, x, score, cov_op, conditioning)

    def pfode_rhs_marginal(self, ds: DiracDataset, t: float,
                           x: np.ndarray) -> np.ndarray:
        """Raw PFODE right-hand side with the Dirac-mixture score, (n, d) states."""
        score = self.marginal_score_dirac(ds, t, x)
        return self._score_flow(t, x, score, self._cov_op())

    def pfode_rhs(self, den, t: float, x: np.ndarray) -> np.ndarray:
        """Simplified PFODE right-hand side (s'/s + sigma'/sigma) x - (sigma' s/sigma) D.

        x holds (n, d) flat states at time t and the result has the same
        shape.  All basis terms cancel exactly in this form; only the
        denoiser output enters.
        """
        s, s_p, sig, sig_p = self.schedule.evaluate(t)
        if sig == 0.0:
            raise EndpointError("PFODE undefined at sigma = 0")
        return (s_p / s + sig_p / sig) * x - (sig_p * s / sig) * den.denoise(x, t)
