"""The diffusion process over a basis-structured noise model.

Couples one schedule, one basis set and one stochasticity mediator eta >= 0
into a forward process x_t = s(t) x_0 + s(t) sigma(t) N, where the diffused
noise N = sum_m ((eta + eps_m) / (eta + 1)) h_m mixes the basis elements with
independent standard normal weights.  eta = 0 is the maximally stochastic
setting; eta -> inf freezes N at sum_m h_m.

The same object exposes the reverse-time machinery built on that kernel:
conditional/marginal scores and the probability-flow ODE right-hand sides in
their raw (score) and simplified (denoiser) assemblies.  The simplified flow
and the mixture weights read their state-free coefficients from a KnotTable,
so a reverse walk evaluates the schedule once for all its knots.  A process
holds Sigma's operator and no data: the points of the analytic mixture, and
their whitened copies, live in its denoiser (denoisers.DiracMixtureDenoiser).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import BasisSet, CovarianceOp
from .fields import Rng
from .schedules import EndpointError, Schedule, sde_coefficients


@dataclass(frozen=True)
class ConditionalMoments:
    """Gaussian kernel N(mean, cov_scale Sigma); Sigma is the process's cov_op."""

    mean: np.ndarray
    cov_scale: float


@dataclass(frozen=True)
class KnotTable:
    """State-free coefficients at K knot times, each a (K,) float64 array.

    flow_x = s'/s + sigma'/sigma and flow_d = sigma' s/sigma are the gains
    of the simplified flow; s, shift_gain and cov_scale place the mixture
    components (DiracMixtureDenoiser.weights_at).  Knot k of a walk is
    row k of every array.
    """

    t: np.ndarray
    s: np.ndarray
    sigma: np.ndarray
    flow_x: np.ndarray
    flow_d: np.ndarray
    shift_gain: np.ndarray
    cov_scale: np.ndarray


class DiffusionProcess:
    """Forward diffusion with basis-structured noise and its reverse flows."""

    def __init__(self, schedule: Schedule, basis: BasisSet, eta: float):
        if not 0 <= eta < math.inf:
            raise ValueError(f"eta must be finite and non-negative, got {eta!r}")
        self.schedule = schedule
        self.basis = basis
        self.eta = float(eta)
        self.shape = basis.shape
        self._d = int(np.prod(self.shape))
        # Sigma's operator: made here, its factorization on first use
        self.cov_op = CovarianceOp(basis)

    # -- forward direction ---------------------------------------------------

    def _kernel_scales(self, s, sig):
        """(shift gain eta s sigma/(eta+1), cov_scale (s sigma/(eta+1))^2)
        for schedule values s and sigma, floats or arrays."""
        return (self.eta * s * sig / (self.eta + 1.0),
                (s * sig / (self.eta + 1.0)) ** 2)

    def knot_table(self, times) -> KnotTable:
        """The KnotTable at times, from one Schedule.evaluate call.

        times is a (K,) array of knots, or one float for a one-knot table,
        which takes the schedule's float path.  The gains are inf where
        sigma = 0 (t = 0); the flow and the weights raise EndpointError there.
        """
        s, s_p, sig, sig_p = (np.atleast_1d(np.asarray(v, dtype=np.float64))
                              for v in self.schedule.evaluate(times))
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        shift_gain, cov_scale = self._kernel_scales(s, sig)
        with np.errstate(divide="ignore", invalid="ignore"):
            return KnotTable(t, s, sig, s_p / s + sig_p / sig, sig_p * s / sig,
                             shift_gain, cov_scale)

    def check_rows(self, x: np.ndarray, what: str) -> None:
        """Raise ValueError naming what unless x holds finite (n, d) rows of
        this process's width."""
        if np.ndim(x) != 2 or np.shape(x)[1] != self._d:
            raise ValueError(f"{what} must be (n, {self._d}) rows, "
                             f"got shape {np.shape(x)}")
        if not np.isfinite(x).all():
            raise ValueError(f"{what} must be finite")

    def clean_point(self, x0) -> np.ndarray:
        """A Field, a (d,) array or an array of this process's shape as the
        flat (d,) float64 clean point; ValueError on any other shape or NaN/inf."""
        x = np.asarray(x0, dtype=np.float64)
        if x.shape not in ((self._d,), self.shape) or not np.isfinite(x).all():
            raise ValueError(f"clean point must be finite, of shape ({self._d},) "
                             f"or {self.shape}; got shape {x.shape}")
        return x.reshape(-1)

    def sample_noise(self, rng: Rng) -> np.ndarray:
        """One (d,) draw of N = sum_m ((eta + eps_m)/(eta + 1)) h_m."""
        return self.noise_from_normals(rng.standard_normal((1, self.basis.M)))[0]

    def noise_from_normals(self, eps: np.ndarray) -> np.ndarray:
        """(n, d) noise rows N for (n, M) standard normal weights eps.

        Each row of eps is one draw of (eps_1 .. eps_M); drawing the weights
        apart from mixing them lets a caller take draws one at a time from a
        stream and mix a whole batch in one product.
        """
        return ((self.eta + eps) / (self.eta + 1.0)) @ self.cov_op.rows

    def forward_sample(self, x0: np.ndarray, t: float, rng: Rng) -> np.ndarray:
        """(n, d) rows x_t = s(t) x_0 + s(t) sigma(t) N for (n, d) finite clean
        rows, each with its own N; the (n, M) weights are one rng draw."""
        x0 = np.asarray(x0)
        self.check_rows(x0, "clean states")
        s, _, sig, _ = self.schedule.evaluate(t)
        x = self.noise_from_normals(
            rng.standard_normal((x0.shape[0], self.basis.M)))
        # in place: at 1e5 rows each (n, d) temporary adds to the peak memory
        x *= s * sig
        x += s * x0
        return x

    def conditional_moments(self, x0, t: float) -> ConditionalMoments:
        """Exact kernel parameters: (d,) mean, cov_scale = s^2 sigma^2/(eta+1)^2."""
        x0 = self.clean_point(x0)
        s, _, sig, _ = self.schedule.evaluate(t)
        shift_gain, cov_scale = self._kernel_scales(s, sig)
        return ConditionalMoments(s * x0 + shift_gain * self.cov_op.total,
                                  cov_scale)

    # -- SDE simulation -------------------------------------------------------

    def simulate_sde(self, x0, n_steps: int, n_paths: int,
                     rng: Rng) -> np.ndarray:
        """(n_paths, d) Euler-Maruyama endpoints over a uniform grid on (T/1000, T].

        Each path starts from an exact forward sample at the grid start t_0,
        which sidesteps the coefficient endpoint at t = 0.  Step i is
        x <- a_i x + phi_i dt_i + k_i xi_i H with a_i = 1 + f_i dt_i, kick
        k_i = g_i sqrt(dt_i), (M,) standard normal weights xi_i and the
        (M, d) element rows H.  It is affine in x with coefficients free of
        the state, so with tail products P_i = a_i ... a_{n-1} (P_n = 1)
        the endpoint is

            x_n = P_0 s x0 + sum_i P_{i+1} phi_i dt_i
                  + (P_0 s sigma (eta + eps)/(eta + 1) + sum_i P_{i+1} k_i xi_i) H

        where eps are the start's noise weights.  All coefficients come from
        one array sde_coefficients call; the walk only sums the weighted
        (n_paths, M) normals and mixes them with H once at the end.  It
        draws the same normals in the same order as a step-by-step walk:
        eps, then one (n_paths, M) draw per step.
        """
        x0 = self.clean_point(x0)
        if n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        sched = self.schedule
        op = self.cov_op
        times = np.linspace(sched.T / 1000.0, sched.T, n_steps + 1)
        dt = np.diff(times)
        c = sde_coefficients(sched, self.eta, op.total, times[:-1])
        tail = np.append(np.cumprod((1.0 + c.f * dt)[::-1])[::-1], 1.0)
        kick = tail[1:] * c.g * np.sqrt(dt)
        s, _, sig, _ = sched.evaluate(times[0])
        acc = self.eta + rng.standard_normal((n_paths, self.basis.M))
        acc *= tail[0] * s * sig / (self.eta + 1.0)
        for k in kick.tolist():
            xi = rng.standard_normal(acc.shape)
            xi *= k
            acc += xi
        drift = (tail[0] * s) * x0 + (tail[1:] * dt) @ c.phi
        return drift + acc @ op.rows

    # -- scores and probability-flow ODE --------------------------------------

    def _score(self, t: float, post_mean: np.ndarray,
               x: np.ndarray) -> np.ndarray:
        """((eta+1)/(s sigma))^2 Sigma^{-1} (s D + shift - x) for (n, d) states.

        D = post_mean is the posterior mean of x_0: one (d,) point (x_0
        itself for the conditional score) or one row per state.  The solve
        takes the residuals as (d, n) columns.
        """
        s, _, sig, _ = self.schedule.evaluate(t)
        if sig == 0.0:
            raise EndpointError("score undefined at sigma = 0")
        self.check_rows(x, "states")
        shift_gain, _ = self._kernel_scales(s, sig)
        gain = ((self.eta + 1.0) / (s * sig)) ** 2
        resid = s * post_mean + shift_gain * self.cov_op.total - x
        return gain * self.cov_op.solve_flat(resid.T).T

    def conditional_score(self, x0, t: float, x: np.ndarray) -> np.ndarray:
        """((eta+1)^2 / (s^2 sigma^2)) Sigma^{-1} (mean - x) for (n, d) states x."""
        return self._score(t, self.clean_point(x0), x)

    def marginal_score_dirac(self, den, t: float,
                             x: np.ndarray) -> np.ndarray:
        """Dirac-mixture marginal score for (n, d) states: the score at the
        posterior mean of den, a DiracMixtureDenoiser over this process."""
        return self._score(t, den.denoise(x, t), x)

    def _score_flow(self, t: float, x: np.ndarray,
                    score: np.ndarray) -> np.ndarray:
        """Raw PFODE right-hand side f x + phi - (1/2) g^2 Sigma score, per row."""
        op = self.cov_op
        c = sde_coefficients(self.schedule, self.eta, op.total, t)
        return c.f * x + c.phi - 0.5 * c.g * c.g * op.apply_flat(score.T).T

    def pfode_rhs_conditional(self, x0, t: float, x: np.ndarray) -> np.ndarray:
        """Raw PFODE right-hand side with the conditional score, (n, d) states."""
        return self._score_flow(t, x, self._score(t, self.clean_point(x0), x))

    def pfode_rhs_marginal(self, den, t: float, x: np.ndarray) -> np.ndarray:
        """Raw PFODE right-hand side with the Dirac-mixture score of the
        mixture denoiser den, (n, d) states."""
        return self._score_flow(t, x, self.marginal_score_dirac(den, t, x))

    def pfode_rhs(self, den, t: float, x: np.ndarray) -> np.ndarray:
        """Simplified PFODE right-hand side at time t: pfode_rhs_at on a
        one-knot table.  A reverse walk tabulates its knots once and calls
        pfode_rhs_at itself."""
        return self.pfode_rhs_at(den, self.knot_table(t), 0, x)

    def pfode_rhs_at(self, den, table: KnotTable, k: int,
                     x: np.ndarray) -> np.ndarray:
        """Simplified PFODE right-hand side (s'/s + sigma'/sigma) x - (sigma' s/sigma) D
        at knot k of table.

        x holds (n, d) flat states and the result has the same shape.  All
        basis terms cancel exactly in this form; only the denoiser output
        enters, so the gains depend on the knot alone.
        """
        if table.sigma[k] == 0.0:
            raise EndpointError("PFODE undefined at sigma = 0")
        return table.flow_x[k] * x - table.flow_d[k] * den.denoise_at(x, table, k)
