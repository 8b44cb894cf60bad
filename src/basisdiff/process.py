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
from dataclasses import dataclass

import numpy as np

from .bases import BasisSet, CovarianceOp
from .fields import Field, Rng
from .schedules import EndpointError, Schedule, sde_coefficients


@dataclass(frozen=True)
class ConditionalMoments:
    """Gaussian kernel parameters: mean, scalar covariance factor, Sigma op."""

    mean: Field
    cov_scale: float
    cov_op: CovarianceOp


class DiracDataset:
    """Finite point dataset [y_1 .. y_Y], optionally with degraded partners."""

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

    # -- forward direction ---------------------------------------------------

    def _elements(self, conditioning):
        return self.basis.elements(conditioning)

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
        rows = self._elements(conditioning)
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
        s, _, sig, _ = self.schedule.evaluate(t)
        rows = self._elements(conditioning)
        shift = (self.eta * s * sig / (self.eta + 1.0)) * rows.sum(axis=0)
        mean = Field((s * x0.flat() + shift).reshape(self.shape))
        cov_scale = (s * sig / (self.eta + 1.0)) ** 2
        return ConditionalMoments(mean=mean, cov_scale=cov_scale,
                                  cov_op=CovarianceOp(self.basis, conditioning))

    # -- SDE simulation -------------------------------------------------------

    def simulate_sde(self, x0: Field, n_steps: int, rng: Rng,
                     conditioning=None) -> Field:
        """Euler-Maruyama over a uniform grid on (T/1000, T].

        The trajectory starts from an exact forward_sample at the grid start,
        which sidesteps the coefficient endpoint at t = 0.
        """
        return Field(self._sde_batch(x0, n_steps, 1, rng,
                                     conditioning)[0].reshape(self.shape))

    def _sde_batch(self, x0: Field, n_steps: int, n_paths: int, rng: Rng,
                   conditioning=None) -> np.ndarray:
        if n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        sched = self.schedule
        rows = self._elements(conditioning)
        bsum = Field(rows.sum(axis=0).reshape(self.shape))
        times = np.linspace(sched.T / 1000.0, sched.T, n_steps + 1)
        x = self._forward_batch(x0, times[0], n_paths, rng, conditioning)
        for i in range(n_steps):
            t, dt = times[i], times[i + 1] - times[i]
            c = sde_coefficients(sched, self.eta, bsum, t)
            xi = rng.standard_normal((n_paths, rows.shape[0]))
            x = x + (c.f * x + c.phi.flat()[None, :]) * dt \
                + (c.g * math.sqrt(dt)) * (xi @ rows)
        return x

    # -- scores and probability-flow ODE --------------------------------------

    def conditional_score(self, x0: Field, t: float, x: Field,
                          conditioning=None) -> Field:
        """((eta+1)^2 / (s^2 sigma^2)) Sigma^{-1} (mean - x)."""
        mom = self.conditional_moments(x0, t, conditioning)
        s, _, sig, _ = self.schedule.evaluate(t)
        if sig == 0.0:
            raise EndpointError("score undefined at sigma = 0")
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {self.shape}")
        gain = ((self.eta + 1.0) / (s * sig)) ** 2
        resid = mom.mean.flat() - x.flat()
        return Field((gain * mom.cov_op.solve_flat(resid)).reshape(self.shape))

    def _dirac_log_weights(self, ds: DiracDataset, t: float,
                           x_flat: np.ndarray, cov_op: CovarianceOp):
        """Posterior log-weights of the mixture components at state x.

        w_i is proportional to N(x; s y_i + shift, cov_scale Sigma); computed
        through log densities with max subtraction so small sigma cannot
        underflow.  Returns (weights, points_matrix, shift).
        """
        s, _, sig, _ = self.schedule.evaluate(t)
        rows = self._elements(None)
        shift = (self.eta * s * sig / (self.eta + 1.0)) * rows.sum(axis=0)
        cov_scale = (s * sig / (self.eta + 1.0)) ** 2
        if cov_scale == 0.0:
            raise EndpointError("mixture weights undefined at sigma = 0")
        pts = ds.stacked()
        resid = x_flat[None, :] - s * pts - shift[None, :]
        # quadratic forms r^T Sigma^{-1} r / cov_scale, one per component
        solved = cov_op.solve_flat(resid.T)
        quad = np.sum(resid.T * solved, axis=0) / cov_scale
        logw = -0.5 * quad
        logw = logw - logw.max()
        w = np.exp(logw)
        w = w / w.sum()
        return w, pts, shift

    def marginal_score_dirac(self, ds: DiracDataset, t: float,
                             x: Field) -> Field:
        """Score of the Dirac-mixture marginal (fixed-mode basis only)."""
        if self.basis.mode != "fixed":
            raise ValueError("marginal score requires a fixed-mode basis")
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {self.shape}")
        s, _, sig, _ = self.schedule.evaluate(t)
        if sig == 0.0:
            raise EndpointError("score undefined at sigma = 0")
        cov_op = CovarianceOp(self.basis)
        w, pts, shift = self._dirac_log_weights(ds, t, x.flat(), cov_op)
        gain = ((self.eta + 1.0) / (s * sig)) ** 2
        resid = s * (w @ pts) + shift - x.flat()
        return Field((gain * cov_op.solve_flat(resid)).reshape(self.shape))

    def pfode_rhs_conditional(self, x0: Field, t: float, x: Field,
                              conditioning=None) -> Field:
        """Raw PFODE right-hand side: f x + phi - (1/2) g^2 Sigma score."""
        rows = self._elements(conditioning)
        bsum = Field(rows.sum(axis=0).reshape(self.shape))
        c = sde_coefficients(self.schedule, self.eta, bsum, t)
        score = self.conditional_score(x0, t, x, conditioning)
        cov_op = CovarianceOp(self.basis, conditioning)
        out = c.f * x.flat() + c.phi.flat() \
            - 0.5 * c.g * c.g * cov_op.apply_flat(score.flat())
        return Field(out.reshape(self.shape))

    def pfode_rhs_marginal(self, ds: DiracDataset, t: float,
                           x: Field) -> Field:
        """Marginal PFODE right-hand side with the Dirac-mixture score."""
        bsum = Field(self._elements(None).sum(axis=0).reshape(self.shape))
        c = sde_coefficients(self.schedule, self.eta, bsum, t)
        score = self.marginal_score_dirac(ds, t, x)
        cov_op = CovarianceOp(self.basis)
        out = c.f * x.flat() + c.phi.flat() \
            - 0.5 * c.g * c.g * cov_op.apply_flat(score.flat())
        return Field(out.reshape(self.shape))

    def pfode_rhs(self, den, t: float, x: Field) -> Field:
        """Simplified PFODE right-hand side (s'/s + sigma'/sigma) x - (sigma' s/sigma) D.

        All basis terms cancel exactly in this form; only the denoiser output
        enters.
        """
        s, s_p, sig, sig_p = self.schedule.evaluate(t)
        if sig == 0.0:
            raise EndpointError("PFODE undefined at sigma = 0")
        d = den.denoise(x, t)
        out = (s_p / s + sig_p / sig) * x.flat() - (sig_p * s / sig) * d.flat()
        return Field(out.reshape(self.shape))
