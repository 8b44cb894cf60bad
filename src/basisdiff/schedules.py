"""Scale/noise-level schedules and the SDE coefficient map.

A schedule is the pair (s(t), sigma(t)) on a horizon [0, T] together with
analytic derivatives.  The variance-preserving family uses a linear beta ramp
``beta(t) = beta_min + (beta_max - beta_min) * t / T`` and the exact integral
``abar(t) = exp(-int_0^t beta)``, so derivatives never come from finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _POSITIVE, cast

HORIZON = (float, _POSITIVE, None)  # T of a schedule and of a time grid
BETA = (float, _POSITIVE, None)  # each end of the VP beta ramp
ETA = (float, 0, None)  # the stochasticity mediator eta
# every walk stops at the terminal knot eps_t = T * this, short of t = 0,
# where sigma = 0 and the flow and the SDE coefficients are undefined
TERMINAL_FRACTION = 1e-3


class EndpointError(ValueError):
    """A schedule quantity was requested at an endpoint where it is undefined."""


class Schedule:
    """Signal scale s(t) and noise level sigma(t) with analytic derivatives.

    parts(t, xp=math) returns (s, s', sigma, d sigma^2/dt) at t in [0, T],
    so a family shares its common terms across all four in one call, and
    _eval derives sigma' = (d sigma^2/dt) / (2 sigma) from them; every
    method below calls _eval once.  Each method takes a float or a numpy
    array of times: a float runs parts on the math namespace and returns
    floats, an array runs it with xp = numpy and returns float64 arrays of
    the array's shape.  One formula per family serves both.
    sigma' is reported as +inf where sigma = 0, as at t = 0 in the
    variance-preserving family, where sigma ~ sqrt(t) near zero.
    """

    def __init__(self, T, parts, alpha_bar=None):
        self.T = cast(T, *HORIZON, "T")
        self._parts = parts
        self._alpha_bar = alpha_bar

    def _check(self, t):
        """t as a float in [0, T], or as a float64 array with every entry there."""
        if isinstance(t, np.ndarray):
            t = t.astype(np.float64)
            bad = ~((0.0 <= t) & (t <= self.T))
            if bad.any():
                raise ValueError(f"t={t[bad].flat[0]} outside the schedule "
                                 f"horizon [0, {self.T}]")
            return t
        t = float(t)
        if not 0.0 <= t <= self.T:
            raise ValueError(f"t={t} outside the schedule horizon [0, {self.T}]")
        return t

    def _eval(self, t):
        """parts at t: floats for a float, arrays of t's shape for an array."""
        # the common case, a float inside the horizon, costs one type check
        if type(t) is not float or not 0.0 <= t <= self.T:
            t = self._check(t)
            if type(t) is not float:
                # a float part (the VP s and s') is filled out to t's shape;
                # sigma' divides by sigma, and is +inf where sigma = 0
                s, s_p, sig, ds2 = (np.full(t.shape, v) if type(v) is float
                                    else v for v in self._parts(t, np))
                with np.errstate(divide="ignore"):
                    return s, s_p, sig, ds2 / (2.0 * sig), ds2
        s, s_p, sig, ds2 = self._parts(t)
        return s, s_p, sig, ds2 / (2.0 * sig) if sig else math.inf, ds2

    def s(self, t):
        return self._eval(t)[0]

    def s_prime(self, t):
        return self._eval(t)[1]

    def sigma(self, t):
        return self._eval(t)[2]

    def sigma_prime(self, t):
        return self._eval(t)[3]

    def dsigma2_dt(self, t):
        """d(sigma^2)/dt; finite on [0, T] even where sigma' diverges."""
        return self._eval(t)[4]

    def alpha_bar(self, t):
        if self._alpha_bar is None:
            raise ValueError("this schedule has no alpha-bar form")
        t = self._check(t)
        return self._alpha_bar(t, np if isinstance(t, np.ndarray) else math)

    def evaluate(self, t):
        """(s, s', sigma, sigma') at time t in [0, T]."""
        return self._eval(t)[:4]


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift gain f (1/time), diffusion gain g (per sqrt-time), drift offset phi.

    At one time f and g are floats and phi is a flat (d,) array; at n times
    f and g are (n,) arrays and phi is (n, d), one row per time.
    """

    f: float | np.ndarray
    g: float | np.ndarray
    phi: np.ndarray


def _vp_parts(beta_min: float, beta_max: float, T: float):
    """(beta, B, abar) for the linear beta ramp.

    B(t) = int_0^t beta is the one integral both VP families build on, and
    abar = exp(-B).
    """
    beta_min = cast(beta_min, *BETA, "beta_min")
    beta_max = cast(beta_max, float, beta_min, None, "beta_max")
    T = cast(T, *HORIZON, "T")
    slope = (beta_max - beta_min) / T

    def beta(t):
        return beta_min + slope * t

    def b_int(t):
        return beta_min * t + 0.5 * slope * t * t

    def alpha_bar(t, xp=math):
        return xp.exp(-b_int(t))

    return beta, b_int, alpha_bar


def make_vp_schedule(beta_min: float = 1e-4, beta_max: float = 0.02,
                     T: float = 100.0) -> Schedule:
    """Variance-preserving schedule: s = 1, sigma = sqrt(1 - abar(t))."""
    beta, b_int, alpha_bar = _vp_parts(beta_min, beta_max, T)

    def parts(t, xp=math):
        b = b_int(t)
        # 1 - exp(-B) via expm1 keeps precision near t = 0
        sig = xp.sqrt(-xp.expm1(-b))
        return 1.0, 0.0, sig, beta(t) * xp.exp(-b)

    return Schedule(T, parts, alpha_bar=alpha_bar)


def make_ddpm_schedule(beta_min: float = 1e-4, beta_max: float = 0.02,
                       T: float = 100.0) -> Schedule:
    """Step-index correspondence form: s = sqrt(abar), sigma = sqrt(1/abar - 1).

    Satisfies s^2 * (1 + sigma^2) = 1 at every t (variance preservation).
    """
    beta, b_int, alpha_bar = _vp_parts(beta_min, beta_max, T)

    def parts(t, xp=math):
        b = b_int(t)
        beta_t = beta(t)
        s = xp.exp(-0.5 * b)
        # sigma^2 = 1/abar - 1 = expm1(B)
        sig = xp.sqrt(xp.expm1(b))
        return s, -0.5 * beta_t * s, sig, beta_t * xp.exp(b)

    return Schedule(T, parts, alpha_bar=alpha_bar)


def sde_coefficients(sched: Schedule, eta: float, basis_sum: np.ndarray,
                     t) -> SdeCoefficients:
    """Forward-SDE coefficients at time t, a float or an (n,) array of times.

    f = s'/s, g = (s/(eta+1)) * sqrt(d sigma^2/dt), and the drift offset
    phi = (eta * s * sigma' / (eta+1)) * sum_m h_m for the flat (d,) sum
    basis_sum = sum_m h_m.  A float t gives floats f, g and a (d,) phi; an
    (n,) array gives (n,) arrays f, g and an (n, d) phi, each entry within
    a few ulp of the float path's.
    """
    eta = cast(eta, *ETA, "eta")
    if np.any(np.less_equal(t, 0.0)):
        raise EndpointError("SDE coefficients are undefined at t <= 0 "
                            "(sigma' diverges at the left endpoint)")
    s, s_p, _, sig_p, dsigma2 = sched._eval(t)
    g = (s / (eta + 1.0)) * np.sqrt(dsigma2)
    phi = np.multiply.outer(eta * s * sig_p / (eta + 1.0), basis_sum)
    return SdeCoefficients(f=s_p / s, g=g, phi=phi)
