import numpy as np
import pytest

from basisdiff.bases import (BasisSet, SingularCovarianceError,
                             legendre_trig_basis, pixel_basis, residual_basis)
from basisdiff.denoisers import ConstantDenoiser
from basisdiff.fields import Field, Rng
from basisdiff.process import DiffusionProcess, DiracDataset
from basisdiff.schedules import EndpointError, make_vp_schedule


def _toy_process(eta=0.0, seed=9, m=4, d=3):
    rng = Rng(seed)
    rows = rng.standard_normal((m, d)) + 0.2
    basis = BasisSet((d,), elements=rows)
    return DiffusionProcess(make_vp_schedule(), basis, eta), rows


def test_negative_eta_rejected():
    with pytest.raises(ValueError):
        DiffusionProcess(make_vp_schedule(), pixel_basis((2,)), -0.5)


def test_extreme_eta_noise_freezes_at_element_sum():
    p, _ = _toy_process(eta=1e9)
    target = p.basis.elements().sum(axis=0)
    rng = Rng(0)
    for _ in range(5):
        n = p.sample_noise(rng).values
        assert np.allclose(n, target, rtol=1e-4)


def test_pixel_noise_is_standard_normal():
    basis = pixel_basis((4,))
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    draws = p._noise_batch(100_000, Rng(1))
    n = draws.shape[0]
    assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(n))
    cov = np.cov(draws.T)
    assert np.all(np.abs(np.diag(cov) - 1.0) < 4.0 * np.sqrt(2.0 / n))
    off = cov[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 4.0 / np.sqrt(n))


def test_residual_noise_coefficient_moments():
    clean = Field([0.0, 1.0, 0.5])
    degraded = Field([1.0, 0.0, 0.5])
    basis = residual_basis(clean, degraded)
    p = DiffusionProcess(make_vp_schedule(), basis, 10.0)
    pair = (clean, degraded)
    h1 = (degraded.values - clean.values).reshape(-1)
    draws = p._noise_batch(20_000, Rng(2), pair)
    # every draw is c * h1 with c = (eta + eps)/(eta + 1)
    coef = draws @ h1 / (h1 @ h1)
    assert np.allclose(draws, coef[:, None] * h1[None, :], atol=1e-12)
    se = (1.0 / 11.0) / np.sqrt(draws.shape[0])
    assert abs(coef.mean() - 10.0 / 11.0) < 4 * se
    assert abs(coef.var() - 1.0 / 121.0) < 8 * se / 11.0


def test_forward_at_time_zero_is_exact():
    p, _ = _toy_process()
    x0 = Field([0.3, -1.2, 2.0])
    out = p.forward_sample(x0, 0.0, Rng(3))
    assert np.array_equal(out.values, x0.values)


def test_conditional_moments_closed_form():
    sched = make_vp_schedule()
    clean = Field([0.0, 1.0])
    degraded = Field([2.0, 0.5])
    basis = residual_basis(clean, degraded)
    eta = 10.0
    p = DiffusionProcess(sched, basis, eta)
    pair = (clean, degraded)
    h1 = degraded.values - clean.values
    for t in (7.0, 50.0, 100.0):
        s, sig = sched.s(t), sched.sigma(t)
        mom = p.conditional_moments(clean, t, pair)
        expect_mean = s * clean.values + (eta * sig * s / (eta + 1.0)) * h1
        assert np.allclose(mom.mean.values, expect_mean, rtol=1e-13)
        assert mom.cov_scale == pytest.approx(
            (s * sig / (eta + 1.0)) ** 2, rel=1e-13)


def test_conditional_moments_special_points():
    p, _ = _toy_process(eta=0.0)
    x0 = Field([1.0, -1.0, 0.25])
    mom = p.conditional_moments(x0, 60.0)
    assert np.allclose(mom.mean.values, x0.values, rtol=1e-15)  # eta=0: no shift
    at0 = p.conditional_moments(x0, 0.0)
    assert np.array_equal(at0.mean.values, x0.values)
    assert at0.cov_scale == 0.0
    with pytest.raises(ValueError):
        p.conditional_moments(Field([1.0, 2.0]), 1.0)


def test_moments_invariant_under_element_order():
    p, rows = _toy_process(eta=3.0)
    perm = BasisSet((3,), elements=rows[::-1])
    q = DiffusionProcess(p.schedule, perm, 3.0)
    x0 = Field([0.5, 0.5, -0.5])
    a = p.conditional_moments(x0, 42.0)
    b = q.conditional_moments(x0, 42.0)
    assert np.allclose(a.mean.values, b.mean.values, rtol=1e-15)
    assert a.cov_scale == b.cov_scale
    rows_a, rows_b = a.cov_op.basis.elements(), b.cov_op.basis.elements()
    assert np.allclose(rows_a.T @ rows_a, rows_b.T @ rows_b, rtol=1e-15)


def test_sde_terminal_tracks_deterministic_limit():
    # eta so large the diffusion term vanishes: the chain must land on the
    # closed-form mean up to Euler discretization error
    sched = make_vp_schedule()
    basis = BasisSet((2,), elements=[[1.0, 0.0], [0.5, -0.5]])
    p = DiffusionProcess(sched, basis, 1e9)
    x0 = Field([0.2, -0.4])
    out = p.simulate_sde(x0, 2000, 3, Rng(4))
    mean = p.conditional_moments(x0, sched.T).mean
    assert out.shape == (3, 2)
    assert np.allclose(out, mean.values, atol=1e-3)
    with pytest.raises(ValueError):
        p.simulate_sde(x0, 0, 3, Rng(4))


def test_conditional_score_pixel_closed_form():
    basis = pixel_basis((3,))
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    x0 = Field([1.0, 0.0, -2.0])
    rng = Rng(5)
    for t in (10.0, 90.0):
        mom = p.conditional_moments(x0, t)
        x = rng.standard_normal((1, 3))
        score = p.conditional_score(x0, t, x)
        expect = (mom.mean.values - x) / mom.cov_scale  # Sigma = I
        assert np.allclose(score, expect, rtol=1e-11)
    mean = p.conditional_moments(x0, 30.0).mean.flat()
    at_mean = p.conditional_score(x0, 30.0, mean[None, :])
    assert np.allclose(at_mean, 0.0, atol=1e-12)


def test_conditional_score_failure_modes():
    p, _ = _toy_process()
    x0 = Field([0.0, 0.0, 0.0])
    with pytest.raises(EndpointError):
        p.conditional_score(x0, 0.0, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="rows"):
        p.conditional_score(x0, 5.0, np.zeros(3))
    thin = DiffusionProcess(make_vp_schedule(),
                            BasisSet((2,), elements=[[1.0, 2.0]]), 0.0)
    with pytest.raises(SingularCovarianceError):
        thin.conditional_score(Field([0.0, 0.0]), 5.0, np.ones((1, 2)))


def test_marginal_score_single_point_equals_conditional():
    # three stacked states: each row is its own one-row call
    for eta in (0.0, 10.0):
        p, _ = _toy_process(eta=eta, seed=11)
        y = Field([0.7, -0.3, 0.1])
        ds = DiracDataset([y])
        rng = Rng(6)
        for t in (5.0, 55.0, 100.0):
            x = rng.standard_normal((3, 3))
            a = p.marginal_score_dirac(ds, t, x)
            b = p.conditional_score(y, t, x)
            assert a.shape == b.shape == (3, 3)
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)
            for i in range(3):
                row = x[i:i + 1]
                np.testing.assert_allclose(
                    a[i], p.marginal_score_dirac(ds, t, row)[0], rtol=1e-12)
                np.testing.assert_allclose(
                    b[i], p.conditional_score(y, t, row)[0], rtol=1e-12)


def test_marginal_score_vanishes_by_symmetry():
    basis = pixel_basis((2,))
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    y = Field([1.0, -0.5])
    ds = DiracDataset([y, Field(-y.values)])
    score = p.marginal_score_dirac(ds, 40.0, np.zeros((1, 2)))
    assert np.allclose(score, 0.0, atol=1e-14)


def test_marginal_score_requires_fixed_basis():
    clean, degraded = Field([0.0, 0.0]), Field([1.0, 2.0])
    p = DiffusionProcess(make_vp_schedule(), residual_basis(clean, degraded), 0.0)
    with pytest.raises(ValueError):
        p.marginal_score_dirac(DiracDataset([clean]), 5.0, np.zeros((1, 2)))


def test_pfode_assemblies_agree():
    # the raw score form and the denoiser form must coincide: the basis terms
    # cancel exactly in the simplified assembly
    for eta in (0.0, 10.0):
        p, _ = _toy_process(eta=eta, seed=13, m=5, d=3)
        y = Field([0.4, 0.0, -0.9])
        den = ConstantDenoiser(y)  # exact posterior mean for one data point
        ds = DiracDataset([y])
        rng = Rng(7)
        for t in (2.0, 48.0, 100.0):
            # three stacked states: each row is its own one-row call
            x = rng.standard_normal((3, 3))
            raw_c = p.pfode_rhs_conditional(y, t, x)
            raw_m = p.pfode_rhs_marginal(ds, t, x)
            simp = p.pfode_rhs(den, t, x)
            assert raw_c.shape == raw_m.shape == (3, 3)
            assert np.allclose(raw_c, simp, atol=1e-10)
            assert np.allclose(raw_m, simp, atol=1e-10)
            for i in range(3):
                row = x[i:i + 1]
                np.testing.assert_allclose(
                    raw_c[i], p.pfode_rhs_conditional(y, t, row)[0], rtol=1e-12)
                np.testing.assert_allclose(
                    raw_m[i], p.pfode_rhs_marginal(ds, t, row)[0], rtol=1e-12)


def test_pfode_constant_denoiser_closed_form():
    p, _ = _toy_process(eta=0.0)
    sched = p.schedule
    y = Field([0.1, 0.2, 0.3])
    x = np.array([[1.0, -1.0, 0.5], [0.0, 2.0, -3.0]])
    t = 33.0
    rhs = p.pfode_rhs(ConstantDenoiser(y), t, x)
    ratio = sched.sigma_prime(t) / sched.sigma(t)  # s == 1 here
    assert rhs.shape == x.shape
    assert np.allclose(rhs, ratio * (x - y.values), rtol=1e-13)
    with pytest.raises(EndpointError):
        p.pfode_rhs(ConstantDenoiser(y), 0.0, x)


def test_dataset_validation():
    with pytest.raises(ValueError):
        DiracDataset([])
    with pytest.raises(ValueError):
        DiracDataset([Field([1.0]), Field([1.0, 2.0])])
    with pytest.raises(ValueError):
        DiracDataset([Field([1.0])], degraded=[])
    with pytest.raises(ValueError):
        DiracDataset([Field([1.0])], degraded=[Field([1.0, 2.0])])
    ds = DiracDataset([Field([1.0, 2.0]), Field([3.0, 4.0])])
    assert ds.stacked().shape == (2, 2) and len(ds) == 2
