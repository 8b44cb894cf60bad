"""Scale/noise-level schedules and the SDE coefficient map.

A schedule is the pair (s(t), sigma(t)) on a horizon [0, T] together with
analytic derivatives.  The variance-preserving family uses a linear beta ramp
``beta(t) = beta_min + (beta_max - beta_min) * t / T`` and the exact integral
``abar(t) = exp(-int_0^t beta)``, so derivatives never come from finite
differences.  A discrete abar table with the same ramp is kept for the
step-indexed equivalence tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field


class EndpointError(ValueError):
    """A schedule quantity was requested at an endpoint where it is undefined."""


class Schedule:
    """Signal scale s(t) and noise level sigma(t) with analytic derivatives.

    parts(t) returns (s, s', sigma, sigma', d sigma^2/dt) at one time in
    [0, T], so a family shares its common terms across all five in one
    call; every method below calls it once.  sigma' may be reported as +inf
    at t = 0 when the analytic formula diverges there (true for the
    variance-preserving family, where sigma ~ sqrt(t) near zero).
    """

    def __init__(self, T, parts, kind="custom", alpha_bar=None,
                 alpha_bar_table=None):
        if T <= 0:
            raise ValueError("horizon T must be positive")
        self.T = float(T)
        self.kind = kind
        self._parts = parts
        self._alpha_bar = alpha_bar
        if alpha_bar_table is not None:
            alpha_bar_table = np.asarray(alpha_bar_table, dtype=np.float64)
            alpha_bar_table.setflags(write=False)
        self.alpha_bar_table = alpha_bar_table

    def _check(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= self.T:
            raise ValueError(f"t={t} outside the schedule horizon [0, {self.T}]")
        return t

    def s(self, t: float) -> float:
        return self._parts(self._check(t))[0]

    def s_prime(self, t: float) -> float:
        return self._parts(self._check(t))[1]

    def sigma(self, t: float) -> float:
        return self._parts(self._check(t))[2]

    def sigma_prime(self, t: float) -> float:
        return self._parts(self._check(t))[3]

    def dsigma2_dt(self, t: float) -> float:
        """d(sigma^2)/dt; finite on [0, T] even where sigma' diverges."""
        return self._parts(self._check(t))[4]

    def alpha_bar(self, t: float) -> float:
        if self._alpha_bar is None:
            raise ValueError("this schedule has no alpha-bar form")
        return self._alpha_bar(self._check(t))

    def evaluate(self, t: float):
        """(s, s', sigma, sigma') at time t in [0, T]."""
        return self._parts(self._check(t))[:4]


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift gain f (1/time), diffusion gain g (per sqrt-time), drift offset phi."""

    f: float
    g: float
    phi: Field


def _vp_parts(beta_min: float, beta_max: float, T: float):
    """(beta, B, abar, discrete abar table) for the linear beta ramp.

    B(t) = int_0^t beta is the one integral both VP families build on, and
    abar = exp(-B).
    """
    if beta_min <= 0 or beta_max < beta_min:
        raise ValueError("need 0 < beta_min <= beta_max")
    if T <= 0:
        raise ValueError("horizon T must be positive")
    slope = (beta_max - beta_min) / T

    def beta(t):
        return beta_min + slope * t

    def b_int(t):
        return beta_min * t + 0.5 * slope * t * t

    def alpha_bar(t):
        return math.exp(-b_int(t))

    t_int = int(round(T))
    table = None
    if t_int >= 1:
        betas = np.linspace(beta_min, beta_max, t_int)
        table = np.cumprod(1.0 - betas)
    return beta, b_int, alpha_bar, table


def make_vp_schedule(beta_min: float = 1e-4, beta_max: float = 0.02,
                     T: float = 100.0) -> Schedule:
    """Variance-preserving schedule: s = 1, sigma = sqrt(1 - abar(t))."""
    beta, b_int, alpha_bar, table = _vp_parts(beta_min, beta_max, T)

    def parts(t):
        b = b_int(t)
        # 1 - exp(-B) via expm1 keeps precision near t = 0
        sig = math.sqrt(-math.expm1(-b))
        dsigma2 = beta(t) * math.exp(-b)
        sig_p = dsigma2 / (2.0 * sig) if sig != 0.0 else math.inf
        return 1.0, 0.0, sig, sig_p, dsigma2

    return Schedule(T, parts, kind="vp-continuous", alpha_bar=alpha_bar,
                    alpha_bar_table=table)


def make_ddpm_schedule(beta_min: float = 1e-4, beta_max: float = 0.02,
                       T: float = 100.0) -> Schedule:
    """Step-index correspondence form: s = sqrt(abar), sigma = sqrt(1/abar - 1).

    Satisfies s^2 * (1 + sigma^2) = 1 at every t (variance preservation).
    """
    beta, b_int, alpha_bar, table = _vp_parts(beta_min, beta_max, T)

    def parts(t):
        b = b_int(t)
        beta_t = beta(t)
        s = math.exp(-0.5 * b)
        # sigma^2 = 1/abar - 1 = expm1(B)
        sig = math.sqrt(math.expm1(b))
        dsigma2 = beta_t * math.exp(b)
        sig_p = dsigma2 / (2.0 * sig) if sig != 0.0 else math.inf
        return s, -0.5 * beta_t * s, sig, sig_p, dsigma2

    return Schedule(T, parts, kind="vp-ddpm", alpha_bar=alpha_bar,
                    alpha_bar_table=table)


def sde_coefficients(sched: Schedule, eta: float, basis_sum: Field,
                     t: float) -> SdeCoefficients:
    """Forward-SDE coefficients at time t.

    f = s'/s, g = (s/(eta+1)) * sqrt(d sigma^2/dt), and the drift offset
    phi = (eta * s * sigma' / (eta+1)) * sum_m h_m.
    """
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if t <= 0:
        raise EndpointError("SDE coefficients are undefined at t <= 0 "
                            "(sigma' diverges at the left endpoint)")
    s, s_p, _, sig_p = sched.evaluate(t)
    f = s_p / s
    g = (s / (eta + 1.0)) * math.sqrt(sched.dsigma2_dt(t))
    phi = (eta * s * sig_p / (eta + 1.0)) * basis_sum
    return SdeCoefficients(f=f, g=g, phi=phi)
