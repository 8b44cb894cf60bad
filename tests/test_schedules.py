import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from basisdiff.schedules import (EndpointError, Schedule, make_ddpm_schedule,
                                 make_vp_schedule, sde_coefficients)

# Closed-form values at the default ramp (beta 1e-4 -> 0.02, T = 100),
# frozen from a high-precision evaluation of the defining integrals.
ABAR_T = 0.36604463480401535
SIGMA_T = 0.7962131405572158
SIGMA_50 = 0.4734070666568290
S_DDPM_T = 0.6050162268931432
SIGMA_DDPM_T = 1.3160194804127814


def test_vp_endpoints_and_closed_forms():
    sched = make_vp_schedule()
    assert sched.sigma(0.0) == 0.0
    assert sched.s(0.0) == 1.0
    assert sched.alpha_bar(100.0) == pytest.approx(ABAR_T, rel=1e-14)
    assert sched.sigma(100.0) == pytest.approx(SIGMA_T, rel=1e-14)
    assert sched.sigma(50.0) == pytest.approx(SIGMA_50, rel=1e-14)


def test_vp_s_is_identity_everywhere():
    sched = make_vp_schedule()
    for t in (0.0, 1.0, 37.5, 99.9, 100.0):
        assert sched.s(t) == 1.0 and sched.s_prime(t) == 0.0


def test_evaluate_at_zero():
    s, s_p, sig, sig_p = make_vp_schedule().evaluate(0.0)
    assert (s, s_p, sig) == (1.0, 0.0, 0.0)
    assert sig_p == math.inf  # sigma ~ sqrt(t) near zero


def test_sigma_prime_matches_finite_difference():
    sched = make_vp_schedule()
    h = 1e-5
    for t in (37.5, 12.0, 88.0):
        fd = (sched.sigma(t + h) - sched.sigma(t - h)) / (2 * h)
        assert sched.sigma_prime(t) == pytest.approx(fd, rel=1e-6)


def test_dsigma2_consistent_with_sigma_prime():
    sched = make_vp_schedule()
    for t in (5.0, 50.0, 100.0):
        assert sched.dsigma2_dt(t) == pytest.approx(
            2.0 * sched.sigma(t) * sched.sigma_prime(t), rel=1e-12)


def test_horizon_bounds_checked():
    sched = make_vp_schedule()
    with pytest.raises(ValueError):
        sched.sigma(-0.1)
    with pytest.raises(ValueError):
        sched.evaluate(100.1)


def test_constructor_rejects_bad_ramps():
    with pytest.raises(ValueError):
        make_vp_schedule(beta_min=0.0)
    with pytest.raises(ValueError):
        make_vp_schedule(beta_min=0.02, beta_max=0.01)
    with pytest.raises(ValueError):
        make_vp_schedule(T=0.0)


@pytest.mark.parametrize("make", [make_vp_schedule, make_ddpm_schedule])
@pytest.mark.parametrize("name", ["beta_min", "beta_max", "T"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ramp_refuses_non_finite_values(make, name, bad):
    with pytest.raises(ValueError,
                       match=f"^{name} = {bad} must be a finite number"):
        make(**{name: bad})
    # a finite value far from the defaults is still taken
    assert make(**{name: 1e300 if name != "beta_min" else 1e-300})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schedule_refuses_a_non_finite_horizon(bad):
    parts = make_vp_schedule()._parts
    with pytest.raises(ValueError, match=f"^T = {bad} must be a finite number"):
        Schedule(bad, parts)
    assert Schedule(1e300, parts).T == 1e300


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_sigma_strictly_increasing(t1, t2):
    sched = make_vp_schedule()
    lo, hi = min(t1, t2), max(t1, t2)
    if hi - lo > 1e-9:
        assert sched.sigma(lo) < sched.sigma(hi)


def test_ddpm_schedule_closed_forms():
    sched = make_ddpm_schedule()
    assert sched.s(100.0) == pytest.approx(S_DDPM_T, rel=1e-14)
    assert sched.sigma(100.0) == pytest.approx(SIGMA_DDPM_T, rel=1e-14)
    assert sched.sigma(0.0) == 0.0 and sched.s(0.0) == 1.0


def test_ddpm_variance_preservation_identity():
    sched = make_ddpm_schedule()
    for t in np.linspace(0.0, 100.0, 21):
        s, sig = sched.s(t), sched.sigma(t)
        assert s * s * (1.0 + sig * sig) == pytest.approx(1.0, rel=1e-12)


def test_ddpm_s_prime_matches_finite_difference():
    sched = make_ddpm_schedule()
    h = 1e-5
    for t in (10.0, 60.0):
        fd = (sched.s(t + h) - sched.s(t - h)) / (2 * h)
        assert sched.s_prime(t) == pytest.approx(fd, rel=1e-6)


def _per_function_parts(kind, bmin, bmax, T, t):
    """(s, s', sigma, sigma', dsigma2/dt, abar), one formula per quantity."""
    beta = bmin + (bmax - bmin) / T * t
    big_b = bmin * t + 0.5 * (bmax - bmin) / T * t * t
    abar = math.exp(-big_b)
    if kind == "vp":
        s, s_p = 1.0, 0.0
        sig = math.sqrt(-math.expm1(-big_b))
        ds2 = beta * abar
    else:
        s = math.exp(-0.5 * big_b)
        s_p = -0.5 * beta * s
        sig = math.sqrt(math.expm1(big_b))
        ds2 = beta * math.exp(big_b)
    sig_p = ds2 / (2.0 * sig) if sig > 0 else math.inf
    return s, s_p, sig, sig_p, ds2, abar


@pytest.mark.parametrize("kind,make", [("vp", make_vp_schedule),
                                       ("ddpm", make_ddpm_schedule)])
@pytest.mark.parametrize("ramp", [(1e-4, 0.02, 100.0), (1e-3, 0.05, 37.0)])
def test_fused_evaluation_matches_per_function_formulas(kind, make, ramp):
    sched = make(*ramp)
    T = ramp[2]
    for t in [0.0, 1e-9, 1e-3, 0.5, T / 3.0, T / 2.0, 0.9 * T, T]:
        got = (sched.s(t), sched.s_prime(t), sched.sigma(t),
               sched.sigma_prime(t), sched.dsigma2_dt(t), sched.alpha_bar(t))
        np.testing.assert_allclose(got, _per_function_parts(kind, *ramp, t),
                                   rtol=1e-15, atol=0.0)
        assert sched.evaluate(t) == got[:4]
    assert sched.sigma(0.0) == 0.0 and sched.sigma_prime(0.0) == math.inf


# every method, by name; evaluate is the first four parts
METHODS = ("s", "s_prime", "sigma", "sigma_prime", "dsigma2_dt", "alpha_bar")

# scalar values at the default ramp, frozen from the one-pass closures as
# they stood before the array path: (s, s', sigma, sigma', dsigma2/dt, abar)
FROZEN = {
    "vp": {
        0.0: (1.0, 0.0, 0.0, math.inf, 0.0001, 1.0),
        0.1: (1.0, 0.0, 0.00331586181183852, 0.01807956551124609,
              0.00011989868170674734, 0.9999890050604447),
        37.5: (1.0, 0.0, 0.36582521223259395, 0.008952943757439095,
               0.006550425100343269, 0.8661719140949776),
        100.0: (1.0, 0.0, 0.7962131405572158, 0.004597319689396804,
                0.007320892696080307, 0.36604463480401533),
    },
    "ddpm": {
        0.0: (1.0, -5e-05, 0.0, math.inf, 0.0001, 1.0),
        0.1: (0.9999945025151112, -5.994967042578093e-05,
              0.003315880040838937, 0.01807986369093914,
              0.00011990131830774739, 0.9999890050604447),
        37.5: (0.9306835735603038, -0.003519147262524899,
               0.3930715257315006, 0.011106052190920992,
               0.00873094575907798, 0.8661719140949776),
        100.0: (0.6050162268931432, -0.006050162268931431,
                1.3160194804127814, 0.020758866517454892,
                0.054638145456518544, 0.36604463480401533),
    },
}


def _scalar_parts(sched, t):
    return tuple(getattr(sched, m)(t) for m in METHODS)


@pytest.mark.parametrize("kind,make", [("vp", make_vp_schedule),
                                       ("ddpm", make_ddpm_schedule)])
def test_scalar_values_are_frozen(kind, make):
    sched = make()
    for t, want in FROZEN[kind].items():
        got = _scalar_parts(sched, t)
        assert got == want
        assert all(type(v) is float for v in got)
        assert _scalar_parts(sched, np.float64(t)) == want


@pytest.mark.parametrize("kind,make", [("vp", make_vp_schedule),
                                       ("ddpm", make_ddpm_schedule)])
@pytest.mark.parametrize("ramp", [(1e-4, 0.02, 100.0), (1e-3, 0.05, 37.0)])
def test_array_path_matches_scalar_path(kind, make, ramp):
    sched = make(*ramp)
    T = ramp[2]
    ts = np.concatenate([[0.0, 5e-324, T],
                         np.random.default_rng(5).uniform(0.0, T, 20_000)])
    scalar = np.array([_scalar_parts(sched, float(t)) for t in ts]).T
    # the scalar path is the per-function formulas, bit for bit
    for j in (0, 1, 2, len(ts) // 2, len(ts) - 1):
        assert tuple(scalar[:, j]) == _per_function_parts(kind, *ramp, ts[j])
    for name, want in zip(METHODS, scalar):
        got = getattr(sched, name)(ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        inf = np.isinf(want)
        assert np.array_equal(np.isinf(got), inf)
        assert np.all(got[inf] == want[inf])
        np.testing.assert_allclose(got[~inf], want[~inf], rtol=1e-15, atol=0.0)
    evaluated = sched.evaluate(ts)
    assert len(evaluated) == 4
    for got, name in zip(evaluated, METHODS):
        assert np.array_equal(got, getattr(sched, name)(ts))
    # sigma' is +inf exactly where sigma is 0: t = 0 and the subnormal time
    assert np.array_equal(np.isinf(sched.sigma_prime(ts)),
                          sched.sigma(ts) == 0.0)
    assert np.isinf(sched.sigma_prime(ts)).sum() == 2


@pytest.mark.parametrize("make", [make_vp_schedule, make_ddpm_schedule])
def test_array_path_keeps_the_shape(make):
    sched = make()
    for t in (np.array(50.0), np.array([0.0, 50.0]),
              np.array([[0.0, 10.0, 20.0], [30.0, 40.0, 100.0]])):
        for name in METHODS:
            got = getattr(sched, name)(t)
            assert np.shape(got) == t.shape, name
            np.testing.assert_allclose(
                np.ravel(got), [getattr(sched, name)(v) for v in t.flat],
                rtol=1e-15, atol=0.0)
        assert all(np.shape(v) == t.shape for v in sched.evaluate(t))
    # integer times are times too
    assert np.array_equal(sched.sigma(np.array([0, 50])),
                          sched.sigma(np.array([0.0, 50.0])))


@pytest.mark.parametrize("bad", [-1e-12, 100.0 + 1e-12, math.nan])
def test_array_with_one_time_outside_the_horizon_is_refused(bad):
    sched = make_vp_schedule()
    ts = np.linspace(0.0, 100.0, 7)
    ts[3] = bad
    for name in METHODS + ("evaluate",):
        with pytest.raises(ValueError, match="outside the schedule horizon"):
            getattr(sched, name)(ts)


# ---------------------------------------------------------------------------
# SDE coefficients


def test_coefficients_identity_scale_has_zero_drift_gain():
    sched = make_vp_schedule()
    bsum = np.array([1.0, 1.0])
    for t in (0.5, 50.0, 100.0):
        assert sde_coefficients(sched, 3.0, bsum, t).f == 0.0


def test_coefficients_eta_zero_has_zero_offset():
    c = sde_coefficients(make_vp_schedule(), 0.0, np.array([2.0, -1.0]), 40.0)
    assert np.all(c.phi == 0.0)


def test_coefficients_eta_scales_diffusion_exactly():
    sched = make_vp_schedule()
    bsum = np.array([1.0])
    for t in (1.0, 100.0):
        g0 = sde_coefficients(sched, 0.0, bsum, t).g
        g10 = sde_coefficients(sched, 10.0, bsum, t).g
        assert g10 == pytest.approx(g0 / 11.0, rel=1e-15)


def test_coefficients_offset_formula():
    sched = make_vp_schedule()
    bsum = np.array([3.0, -2.0])
    eta, t = 10.0, 25.0
    c = sde_coefficients(sched, eta, bsum, t)
    expect = (eta / (eta + 1.0)) * sched.sigma_prime(t) * bsum
    assert np.allclose(c.phi, expect, rtol=1e-15)


def test_coefficients_endpoint_and_eta_errors():
    sched = make_vp_schedule()
    with pytest.raises(EndpointError):
        sde_coefficients(sched, 0.0, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        sde_coefficients(sched, -1.0, np.array([1.0]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_coefficients_refuse_a_non_finite_eta(bad):
    sched = make_vp_schedule()
    with pytest.raises(ValueError,
                       match=f"^eta = {bad} must be a finite number"):
        sde_coefficients(sched, bad, np.array([1.0]), 1.0)
    assert sde_coefficients(sched, 1e300, np.array([1.0]), 1.0).g >= 0.0


@pytest.mark.parametrize("make", [make_vp_schedule, make_ddpm_schedule])
@pytest.mark.parametrize("eta", [0.0, 10.0])
def test_coefficients_on_a_time_array_match_the_float_path(make, eta):
    sched = make()
    bsum = np.array([1.5, -0.5, 2.0])
    ts = np.linspace(0.1, 100.0, 257)
    c = sde_coefficients(sched, eta, bsum, ts)
    assert c.f.shape == c.g.shape == (257,) and c.phi.shape == (257, 3)
    for i, t in enumerate(ts.tolist()):
        one = sde_coefficients(sched, eta, bsum, t)
        np.testing.assert_array_max_ulp(c.f[i], one.f, maxulp=4)
        np.testing.assert_array_max_ulp(c.g[i], one.g, maxulp=4)
        np.testing.assert_array_max_ulp(c.phi[i], one.phi, maxulp=4)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_coefficients_on_a_time_array_refuse_any_time_at_or_below_zero(bad):
    ts = np.linspace(1.0, 100.0, 5)
    ts[2] = bad
    with pytest.raises(EndpointError):
        sde_coefficients(make_vp_schedule(), 0.0, np.array([1.0]), ts)
