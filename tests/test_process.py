import math
from pathlib import Path

import numpy as np
import pytest

from basisdiff.bases import (BasisSet, SingularCovarianceError,
                             pixel_basis, residual_basis)
from basisdiff.denoisers import (ConstantDenoiser, DiracDataset,
                                 DiracMixtureDenoiser)
from basisdiff.fields import Field, Rng
from basisdiff.process import DiffusionProcess
from basisdiff.config import build_process, build_task, load_config
from basisdiff.schedules import (EndpointError, make_ddpm_schedule,
                                 make_vp_schedule, sde_coefficients)
from basisdiff.tasks import _transform

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _toy_process(eta=0.0, seed=9, m=4, d=3):
    rng = Rng(seed)
    rows = rng.standard_normal((m, d)) + 0.2
    basis = BasisSet((d,), elements=rows)
    return DiffusionProcess(make_vp_schedule(), basis, eta), rows


def test_negative_eta_rejected():
    with pytest.raises(ValueError):
        DiffusionProcess(make_vp_schedule(), pixel_basis((2,)), -0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_eta_rejected(bad):
    with pytest.raises(ValueError, match="eta must be finite"):
        DiffusionProcess(make_vp_schedule(), pixel_basis((2,)), bad)


def test_extreme_eta_noise_freezes_at_element_sum():
    p, _ = _toy_process(eta=1e9)
    target = p.basis.elements().sum(axis=0)
    rng = Rng(0)
    for _ in range(5):
        n = p.sample_noise(rng)
        assert np.allclose(n, target, rtol=1e-4)


def test_pixel_noise_is_standard_normal():
    basis = pixel_basis((4,))
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    draws = p.noise_from_normals(Rng(1).standard_normal((100_000, 4)))
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
    h1 = (degraded.values - clean.values).reshape(-1)
    draws = p.noise_from_normals(Rng(2).standard_normal((20_000, 1)))
    # every draw is c * h1 with c = (eta + eps)/(eta + 1)
    coef = draws @ h1 / (h1 @ h1)
    assert np.allclose(draws, coef[:, None] * h1[None, :], atol=1e-12)
    se = (1.0 / 11.0) / np.sqrt(draws.shape[0])
    assert abs(coef.mean() - 10.0 / 11.0) < 4 * se
    assert abs(coef.var() - 1.0 / 121.0) < 8 * se / 11.0


def test_forward_at_time_zero_is_exact():
    p, _ = _toy_process()
    x0 = np.array([[0.3, -1.2, 2.0], [1.0, 0.0, -0.5]])
    out = p.forward_sample(x0, 0.0, Rng(3))
    assert np.array_equal(out, x0)
    # clean rows only: neither a (d,) vector nor rows of another width
    with pytest.raises(ValueError, match=r"\(3,\)"):
        p.forward_sample(x0[0], 0.0, Rng(3))
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        p.forward_sample(x0[:, :2], 0.0, Rng(3))


# one clean point in the three forms every clean-point call takes
SQUARE = np.array([[0.5, -1.0], [2.0, 0.25]])
CLEAN_FORMS = {"field": Field(SQUARE), "flat": SQUARE.reshape(-1),
               "shaped": SQUARE}


def _square_process(eta=3.0):
    return DiffusionProcess(make_vp_schedule(), pixel_basis((2, 2)), eta)


@pytest.mark.parametrize("call", ["conditional_moments", "simulate_sde",
                                  "conditional_score", "pfode_rhs_conditional"])
def test_clean_point_is_a_field_or_an_array(call):
    p = _square_process()
    x = np.array([[0.1, 0.2, -0.3, 0.4]])
    run = {
        "conditional_moments": lambda x0: p.conditional_moments(x0, 30.0).mean,
        "simulate_sde": lambda x0: p.simulate_sde(x0, 8, 3, Rng(2)),
        "conditional_score": lambda x0: p.conditional_score(x0, 30.0, x),
        "pfode_rhs_conditional":
            lambda x0: p.pfode_rhs_conditional(x0, 30.0, x),
    }[call]
    outs = {form: run(x0) for form, x0 in CLEAN_FORMS.items()}
    assert outs["field"].shape[-1] == 4
    for form in ("flat", "shaped"):
        np.testing.assert_array_equal(outs[form], outs["field"])
    # any other shape is refused by name, never a raw TypeError
    with pytest.raises(ValueError, match=r"got shape \(3,\)"):
        run(np.zeros(3))
    with pytest.raises(ValueError, match=r"got shape \(4, 1\)"):
        run(Field(np.zeros((4, 1))))
    # an array gets the finite check a Field makes when it is built
    with pytest.raises(ValueError, match="must be finite"):
        run(np.array([0.0, np.nan, 1.0, 2.0]))


def test_clean_point_is_flat_float64():
    p = _square_process()
    for x0 in CLEAN_FORMS.values():
        flat = p.clean_point(x0)
        assert flat.shape == (4,) and flat.dtype == np.float64
        np.testing.assert_array_equal(flat, SQUARE.reshape(-1))
    assert p.clean_point(np.array([1, 2, 3, 4])).dtype == np.float64
    assert p.conditional_moments(SQUARE, 30.0).mean.shape == (4,)
    assert p.sample_noise(Rng(1)).shape == (4,)


def test_forward_sample_reads_a_field_of_rows():
    p = _square_process()
    rows = SQUARE.reshape(1, -1)
    np.testing.assert_array_equal(p.forward_sample(Field(rows), 30.0, Rng(4)),
                                  p.forward_sample(rows, 30.0, Rng(4)))
    # a Field of one clean point is not (n, d) rows
    with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
        p.forward_sample(CLEAN_FORMS["field"], 30.0, Rng(4))


def test_forward_sample_rejects_non_finite_rows():
    p = _square_process()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            p.forward_sample(np.array([[bad, 0.0, 1.0, 2.0]]), 30.0, Rng(1))


def test_raw_score_refuses_non_finite_states():
    p = _square_process()
    x = np.array([[0.1, 0.2, -0.3, 0.4], [np.nan, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="states must be finite"):
        p.conditional_score(SQUARE, 30.0, x)
    with pytest.raises(ValueError, match="states must be finite"):
        p.pfode_rhs_conditional(SQUARE, 30.0, x)


def test_conditional_moments_closed_form():
    sched = make_vp_schedule()
    clean = Field([0.0, 1.0])
    degraded = Field([2.0, 0.5])
    basis = residual_basis(clean, degraded)
    eta = 10.0
    p = DiffusionProcess(sched, basis, eta)
    h1 = degraded.values - clean.values
    for t in (7.0, 50.0, 100.0):
        s, sig = sched.s(t), sched.sigma(t)
        mom = p.conditional_moments(clean, t)
        expect_mean = s * clean.values + (eta * sig * s / (eta + 1.0)) * h1
        assert np.allclose(mom.mean, expect_mean, rtol=1e-13)
        assert mom.cov_scale == pytest.approx(
            (s * sig / (eta + 1.0)) ** 2, rel=1e-13)


def test_conditional_moments_special_points():
    p, _ = _toy_process(eta=0.0)
    x0 = Field([1.0, -1.0, 0.25])
    mom = p.conditional_moments(x0, 60.0)
    assert np.allclose(mom.mean, x0.values, rtol=1e-15)  # eta=0: no shift
    at0 = p.conditional_moments(x0, 0.0)
    assert np.array_equal(at0.mean, x0.values)
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
    assert np.allclose(a.mean, b.mean, rtol=1e-15)
    assert a.cov_scale == b.cov_scale
    rows_a, rows_b = p.cov_op.rows, q.cov_op.rows
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
    assert np.allclose(out, mean, atol=1e-3)
    with pytest.raises(ValueError):
        p.simulate_sde(x0, 0, 3, Rng(4))


@pytest.mark.parametrize("n_paths", [0, -1])
def test_sde_refuses_fewer_than_one_path(n_paths):
    p, _ = _toy_process()
    with pytest.raises(ValueError, match="n_paths"):
        p.simulate_sde(Field([0.1, 0.2, 0.3]), 4, n_paths, Rng(4))


def _stepwise_sde(p, x0, n_steps, n_paths, rng):
    """Plain Euler-Maruyama: x <- x + (f x + phi) dt + g sqrt(dt) xi H, one
    step at a time from a forward sample at T/1000, drawing as the library
    walk does."""
    sched = p.schedule
    rows = p.basis.elements()
    times = np.linspace(sched.T / 1000.0, sched.T, n_steps + 1)
    s, _, sig, _ = sched.evaluate(times[0])
    eps = rng.standard_normal((n_paths, rows.shape[0]))
    x = s * x0.flat() + (s * sig) * (((p.eta + eps) / (p.eta + 1.0)) @ rows)
    for i in range(n_steps):
        t, dt = times[i], times[i + 1] - times[i]
        c = sde_coefficients(sched, p.eta, rows.sum(axis=0), t)
        xi = rng.standard_normal((n_paths, rows.shape[0]))
        x = x + (c.f * x + c.phi) * dt + (c.g * math.sqrt(dt)) * (xi @ rows)
    return x


def _assert_same_cloud(got, expect):
    # relative 1e-12 of the cloud's size: an endpoint that lands near zero
    # keeps the absolute round-off of the sums that made it
    np.testing.assert_allclose(got, expect, rtol=1e-12,
                               atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("make_schedule", [make_vp_schedule, make_ddpm_schedule])
@pytest.mark.parametrize("eta", [0.0, 10.0])
@pytest.mark.parametrize("m,d", [(5, 3), (2, 4)])
def test_sde_scan_matches_a_stepwise_walk(make_schedule, eta, m, d):
    rng = Rng(12)
    rows = rng.standard_normal((m, d))
    p = DiffusionProcess(make_schedule(), BasisSet((d,), elements=rows), eta)
    x0 = Field(rng.standard_normal(d))
    got = p.simulate_sde(x0, 300, 40, Rng(13, 1))
    expect = _stepwise_sde(p, x0, 300, 40, Rng(13, 1))
    _assert_same_cloud(got, expect)


def test_sde_scan_matches_a_stepwise_walk_on_a_task_basis():
    # basisdiff simulate on a residual task: the basis is the one row
    # degraded - clean of the task's pair
    cfg = load_config(CONFIGS / "streaks.json")
    task, basis = build_task(cfg)
    assert basis.M == 1
    assert np.array_equal(basis.elements()[0],
                          task.degraded.flat() - task.clean.flat())
    x0 = _transform(task, task.clean)
    p = build_process(cfg, basis)
    assert p.eta == 10.0
    got = p.simulate_sde(x0, 64, 20, Rng(14, 3))
    expect = _stepwise_sde(p, x0, 64, 20, Rng(14, 3))
    _assert_same_cloud(got, expect)


def test_conditional_score_pixel_closed_form():
    basis = pixel_basis((3,))
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    x0 = Field([1.0, 0.0, -2.0])
    rng = Rng(5)
    for t in (10.0, 90.0):
        mom = p.conditional_moments(x0, t)
        x = rng.standard_normal((1, 3))
        score = p.conditional_score(x0, t, x)
        expect = (mom.mean - x) / mom.cov_scale  # Sigma = I
        assert np.allclose(score, expect, rtol=1e-11)
    mean = p.conditional_moments(x0, 30.0).mean
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
        den = DiracMixtureDenoiser(DiracDataset([y]), p)
        rng = Rng(6)
        for t in (5.0, 55.0, 100.0):
            x = rng.standard_normal((3, 3))
            a = p.marginal_score_dirac(den, t, x)
            b = p.conditional_score(y, t, x)
            assert a.shape == b.shape == (3, 3)
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)
            for i in range(3):
                row = x[i:i + 1]
                np.testing.assert_allclose(
                    a[i], p.marginal_score_dirac(den, t, row)[0], rtol=1e-12)
                np.testing.assert_allclose(
                    b[i], p.conditional_score(y, t, row)[0], rtol=1e-12)


def test_marginal_score_vanishes_by_symmetry():
    basis = pixel_basis((2,))
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    y = Field([1.0, -0.5])
    den = DiracMixtureDenoiser(DiracDataset([y, Field(-y.values)]), p)
    score = p.marginal_score_dirac(den, 40.0, np.zeros((1, 2)))
    assert np.allclose(score, 0.0, atol=1e-14)


def test_pfode_assemblies_agree():
    # the raw score form and the denoiser form must coincide: the basis terms
    # cancel exactly in the simplified assembly
    for eta in (0.0, 10.0):
        p, _ = _toy_process(eta=eta, seed=13, m=5, d=3)
        y = Field([0.4, 0.0, -0.9])
        den = ConstantDenoiser(y)  # exact posterior mean for one data point
        mix = DiracMixtureDenoiser(DiracDataset([y]), p)
        rng = Rng(7)
        for t in (2.0, 48.0, 100.0):
            # three stacked states: each row is its own one-row call
            x = rng.standard_normal((3, 3))
            raw_c = p.pfode_rhs_conditional(y, t, x)
            raw_m = p.pfode_rhs_marginal(mix, t, x)
            simp = p.pfode_rhs(den, t, x)
            assert raw_c.shape == raw_m.shape == (3, 3)
            assert np.allclose(raw_c, simp, atol=1e-10)
            assert np.allclose(raw_m, simp, atol=1e-10)
            for i in range(3):
                row = x[i:i + 1]
                np.testing.assert_allclose(
                    raw_c[i], p.pfode_rhs_conditional(y, t, row)[0], rtol=1e-12)
                np.testing.assert_allclose(
                    raw_m[i], p.pfode_rhs_marginal(mix, t, row)[0], rtol=1e-12)


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


@pytest.mark.parametrize("make_schedule", [make_vp_schedule, make_ddpm_schedule])
def test_flow_and_weights_refuse_sigma_zero_on_a_knot_table(make_schedule):
    # sigma = 0 only at t = 0: a table with that knot holds inf gains there,
    # and the flow and the weights read at it raise instead of using them
    _, rows = _toy_process()
    p = DiffusionProcess(make_schedule(), BasisSet((3,), elements=rows), 0.0)
    ds = DiracDataset([Field([0.1, 0.2, 0.3]), Field([-1.0, 0.5, 0.0])])
    x = np.array([[1.0, -1.0, 0.5]])
    table = p.knot_table(np.array([0.0, 40.0]))
    for den in (ConstantDenoiser(Field([0.1, 0.2, 0.3])),
                DiracMixtureDenoiser(ds, p)):
        with pytest.raises(EndpointError):
            p.pfode_rhs(den, 0.0, x)
        with pytest.raises(EndpointError):
            p.pfode_rhs_at(den, table, 0, x)
        assert np.isfinite(p.pfode_rhs_at(den, table, 1, x)).all()
    mix = DiracMixtureDenoiser(ds, p)
    with pytest.raises(EndpointError):
        mix.weights_at(p.knot_table(0.0), 0, x)
    with pytest.raises(EndpointError):
        mix.weights_at(table, 0, x)
    with pytest.raises(EndpointError):
        mix.denoise(x, 0.0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        DiracDataset([])
    with pytest.raises(ValueError):
        DiracDataset([Field([1.0]), Field([1.0, 2.0])])
    ds = DiracDataset([Field([1.0, 2.0]), Field([3.0, 4.0])])
    assert ds.stacked().shape == (2, 2) and len(ds) == 2


def test_dataset_rows_are_stacked_once_and_read_only():
    # a mixture denoiser whitens the rows when it is made, so the dataset
    # must not change under it
    ds = DiracDataset([Field([1.0, 2.0]), Field([3.0, 4.0])])
    # a dataset is its rows: nothing else it holds could drift from them
    assert set(vars(ds)) == {"_rows", "shape"} and ds.shape == (2,)
    with pytest.raises(ValueError):
        ds.stacked()[0, 0] = 9.0
    assert ds.stacked() is ds.stacked()
    np.testing.assert_array_equal(ds.stacked(), [[1.0, 2.0], [3.0, 4.0]])


def test_dataset_ignores_writes_to_the_callers_arrays():
    # the rows are a copy: a write to an array the caller passed in reaches
    # nothing the dataset exposes, so the rows a mixture denoiser whitened
    # and the rows train draws from stay the dataset's
    a = np.array([1.0, 2.0])
    ds = DiracDataset([a, np.array([3.0, 4.0])])
    a[0] = 99.0
    np.testing.assert_array_equal(ds.stacked(), [[1.0, 2.0], [3.0, 4.0]])
    assert not any(np.any(np.asarray(v) == 99.0) for v in vars(ds).values())
