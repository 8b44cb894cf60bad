from pathlib import Path

import numpy as np
import pytest

import basisdiff.tasks as tasks_mod
from basisdiff import bases
from basisdiff.bases import legendre_trig_basis, pixel_basis
from basisdiff.config import build_process, build_task, load_config
from basisdiff.denoisers import (ConstantDenoiser, PreconditionedDenoiser,
                                 TinyNetwork)
from basisdiff.fields import Field, Rng
from basisdiff.process import DiffusionProcess
from basisdiff.schedules import make_vp_schedule
from basisdiff.tasks import (TaskInstance, case3_discrete_demo,
                             centered_poisson_sampler, gen_residual_task,
                             gen_smooth_field_task, run_restoration,
                             task_residual_basis, tv_distance, _region_metrics,
                             _transform, _untransform)
from basisdiff.training import weight_from_mask


def _smooth_task(size=12, seed=0):
    basis = legendre_trig_basis(2, 3, (size, size))
    task = gen_smooth_field_task((size, size), basis, Rng(seed))
    return task, basis


def test_smooth_field_bias_spans_declared_range():
    task, _ = _smooth_task()
    assert task.transform == "log" and task.mask is None
    clean, degraded = task.clean.values, task.degraded.values
    assert np.all(clean > 0.0) and np.all(clean <= 1.0)
    bias = degraded / clean
    assert bias.min() == pytest.approx(0.8, abs=1e-12)
    assert bias.max() == pytest.approx(1.25, abs=1e-12)


def test_log_domain_makes_bias_additive():
    task, _ = _smooth_task(seed=3)
    bias = task.degraded.values / task.clean.values
    lhs = _transform(task, task.degraded).values
    rhs = _transform(task, task.clean).values + np.log(bias)
    assert np.allclose(lhs, rhs, atol=1e-12)
    back = _untransform(task, _transform(task, task.degraded))
    assert np.allclose(back.values, task.degraded.values, rtol=1e-14)


def test_log_transform_requires_positive_images():
    task, _ = _smooth_task()
    with pytest.raises(ValueError):
        _transform(task, Field(np.zeros(task.clean.shape)))


def test_task_generation_validation():
    basis = legendre_trig_basis(1, 2, (8, 8))
    with pytest.raises(ValueError):
        gen_smooth_field_task((8,), basis, Rng(0))
    with pytest.raises(ValueError):
        gen_smooth_field_task((9, 9), basis, Rng(0))
    clean, deg = Field([1.0, 1.0]), Field([2.0, 2.0])
    moving = task_residual_basis(
        TaskInstance("streaks", clean, deg, None, "identity"))
    with pytest.raises(ValueError):
        gen_smooth_field_task((8, 8), moving, Rng(0))
    with pytest.raises(ValueError):
        gen_residual_task((8,), "streaks", Rng(0))
    with pytest.raises(ValueError):
        gen_residual_task((8, 8), "zebra", Rng(0))


def test_task_instance_validation():
    a, b = Field([[1.0]]), Field([[1.0, 2.0]])
    with pytest.raises(ValueError):
        TaskInstance("x", a, b, None, "identity")
    with pytest.raises(ValueError):
        TaskInstance("x", a, a, b, "identity")
    with pytest.raises(ValueError):
        TaskInstance("x", a, a, None, "sqrt")


def test_streaks_structure():
    task = gen_residual_task((16, 16), "streaks", Rng(1))
    m = task.mask.values
    assert set(np.unique(m)) <= {0.0, 1.0}
    assert m.sum() >= 1
    resid = task.degraded.values - task.clean.values
    basis = task_residual_basis(task)
    rows = basis.elements((task.clean, task.degraded))
    assert np.array_equal(rows, resid.reshape(1, -1))
    # mask interior carries the dominant corruption, so the derived pixel
    # weight exceeds 1 exactly on the background
    w = weight_from_mask(task.mask, Field(resid)).values
    assert np.all(w[m == 1.0] == 1.0)
    assert np.all(w[m == 0.0] > 1.0)


def test_shadow_box_structure():
    task = gen_residual_task((16, 16), "shadow-box", Rng(2))
    m = task.mask.values
    out = m == 0.0
    assert np.array_equal(task.degraded.values[out], task.clean.values[out])
    inside = m == 1.0
    factor = task.degraded.values[inside] / task.clean.values[inside]
    assert np.allclose(factor, factor.flat[0], rtol=1e-12)
    assert 0.35 <= factor.flat[0] <= 0.55


def test_oracle_restoration_contracts_hard():
    task, basis = _smooth_task(size=16, seed=5)
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    den = ConstantDenoiser(_transform(task, task.clean))
    res = run_restoration(task, p, den, steps=100)
    assert res.psnr_out > 60.0
    assert res.psnr_out > res.psnr_in
    assert res.rmse_out < res.rmse_in


def test_restoration_identity_run():
    task, basis = _smooth_task(size=10, seed=6)
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    den = ConstantDenoiser(_transform(task, task.clean))
    res = run_restoration(task, p, den, steps=0)
    assert res.restored is task.degraded
    assert res.psnr_out == res.psnr_in and res.rmse_out == res.rmse_in


def test_restoration_starts_from_degraded_bit_for_bit(monkeypatch):
    task, basis = _smooth_task(size=10, seed=7)
    p = DiffusionProcess(make_vp_schedule(), basis, 0.0)
    den = ConstantDenoiser(_transform(task, task.clean))
    seen = {}
    real = tasks_mod.sample_euler

    def spy(proc, d, x_init, grid, **kw):
        seen["x_init"] = x_init
        return real(proc, d, x_init, grid, **kw)

    monkeypatch.setattr(tasks_mod, "sample_euler", spy)
    res = run_restoration(task, p, den, steps=3)
    expect = np.log(task.degraded.values)
    assert np.array_equal(seen["x_init"].values, expect)
    assert np.array_equal(res.x_init.values, expect)


def test_restoration_shape_mismatch():
    task, _ = _smooth_task(size=10)
    p = DiffusionProcess(make_vp_schedule(), pixel_basis((4, 4)), 0.0)
    with pytest.raises(ValueError):
        run_restoration(task, p, ConstantDenoiser(task.clean), steps=1)


def test_region_metrics_partition():
    rng = Rng(8)
    a = Field(rng.standard_normal((6, 6)))
    b = Field(rng.standard_normal((6, 6)))
    mask = Field((rng.standard_normal((6, 6)) > 0).astype(np.float64))
    got = _region_metrics(a, b, mask, 1.0)
    n_m = int(mask.values.sum())
    n_b = mask.values.size - n_m
    total = n_m * got["rmse_mask"] ** 2 + n_b * got["rmse_background"] ** 2
    mse_all = float(np.mean((a.values - b.values) ** 2))
    assert total / mask.values.size == pytest.approx(mse_all, rel=1e-12)


def test_metrics_dict_region_keys():
    task = gen_residual_task((12, 12), "streaks", Rng(9))
    basis = task_residual_basis(task)
    p = DiffusionProcess(make_vp_schedule(), basis, 10.0)
    res = run_restoration(task, p, ConstantDenoiser(task.clean), steps=0)
    rec = res.metrics_dict()
    for key in ("task", "steps", "psnr_in", "psnr_out", "rmse_in", "rmse_out",
                "rmse_mask_in", "psnr_mask_in", "rmse_background_out",
                "psnr_background_out"):
        assert key in rec


def test_tv_distance_values():
    a = np.array([0.0, 0.0, 0.0, 1.0])
    b = np.array([1.0, 1.0, 1.0, 0.0])
    assert tv_distance(a, b, bins=2) == 0.5
    assert tv_distance(a, a) == 0.0
    assert tv_distance(np.full(5, 2.0), np.full(5, 2.0)) == 0.0


def test_centered_poisson_sampler_moments():
    draws = centered_poisson_sampler(4.0)(50_000, Rng(10))
    n = draws.size
    assert abs(draws.mean()) < 4.0 * np.sqrt(4.0 / n)
    assert abs(draws.var() - 4.0) < 0.2


def test_poisson_lam_max_is_numpys_limit():
    # the config refuses a case3.poisson_lambda above POISSON_LAM_MAX, so it
    # must be the largest rate the draw itself accepts
    draws = centered_poisson_sampler(tasks_mod.POISSON_LAM_MAX)(2, Rng(13))
    assert np.all(np.isfinite(draws))
    above = np.nextafter(tasks_mod.POISSON_LAM_MAX, np.inf)
    with pytest.raises(ValueError, match="lam value too large"):
        centered_poisson_sampler(above)(2, Rng(13))


def test_discrete_demo_distance_falls_with_eta():
    table = case3_discrete_demo(centered_poisson_sampler(4.0),
                                [0.0, 1e9], 20_000, Rng(11))
    assert [eta for eta, _ in table] == [0.0, 1e9]
    d0, dinf = table[0][1], table[1][1]
    assert dinf < d0
    with pytest.raises(ValueError):
        case3_discrete_demo(centered_poisson_sampler(), [0.0], 100, Rng(12))
    with pytest.raises(ValueError):
        case3_discrete_demo(centered_poisson_sampler(), [-1.0], 2000, Rng(12))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["smooth_field", "shadow_box", "streaks"])
@pytest.mark.parametrize("kind", ["oracle-clean", "network"])
def test_restoration_touches_no_basis(name, kind, monkeypatch):
    # the paper's claim that richer noise patterns cost nothing at
    # restoration time, as a count: the reverse walk builds no covariance
    # operator and reads no basis element
    cfg = load_config(CONFIGS / f"{name}.json")
    task, basis = build_task(cfg)
    p = build_process(cfg, basis)
    d = task.clean.size
    if kind == "oracle-clean":
        den = ConstantDenoiser(_transform(task, task.clean))
    else:
        net = TinyNetwork([d + 1] + cfg["network"]["hidden"] + [d], Rng(0))
        den = PreconditionedDenoiser(net, p, "predict-x0")
    calls = []

    def counted(cls, attr):
        fn = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, attr, wrapper)

    counted(bases.CovarianceOp, "__init__")
    counted(bases.BasisSet, "elements")
    result = run_restoration(task, p, den, cfg["sampling"]["steps"],
                             scheme=cfg["sampling"]["scheme"])
    assert result.steps > 0 and np.isfinite(result.psnr_out)
    assert calls == []
