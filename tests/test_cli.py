import json
import struct
from pathlib import Path

import numpy as np
import pytest

from basisdiff import bases, cli, tasks
from basisdiff.cli import main
from basisdiff.config import (build_fixed_basis, build_schedule, load_config,
                              resolved_eta)
from basisdiff.denoisers import DiracDataset, DiracMixtureDenoiser, load_network
from basisdiff.fields import Field, Rng, field_to_bytes
from basisdiff.process import DiffusionProcess
from basisdiff.samplers import euler_trajectory, make_time_grid
from basisdiff.schedules import Schedule

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_TRAIN = [
    "--set", "task.size=8",
    "--set", "network.hidden=[6]",
    "--set", "training.steps=8",
]


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_help_exits_cleanly():
    assert main(["--help"]) == 0
    assert main(["restore", "--help"]) == 0


def test_missing_config_file(tmp_path):
    code = main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_malformed_override(tmp_path):
    code = main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "training.steps", "--out", str(tmp_path)])
    assert code == 2


def test_unknown_config_key_exits_2_before_training(tmp_path, capsys):
    code = main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "training.stpes=3", "--out", str(tmp_path)])
    assert code == 2
    assert "did you mean 'training.steps'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override,key", [("training.steps=abc", "steps"),
                                          ("training.batch=0", "batch"),
                                          ("training.steps=2.9", "steps"),
                                          ("training.batch=1e400", "batch"),
                                          ("training.lr=NaN", "training.lr"),
                                          ("training.beta1=inf",
                                           "training.beta1"),
                                          ("training.beta1=1.0",
                                           "training.beta1"),
                                          ("training.beta2=-1",
                                           "training.beta2"),
                                          ("training.eps=-1", "training.eps"),
                                          ("training.ema_decay=1.5",
                                           "training.ema_decay"),
                                          ("training.ema_decay=1.0",
                                           "training.ema_decay"),
                                          ("training.lr_decay=-1",
                                           "training.lr_decay"),
                                          ("training.lr_decay_every=-3",
                                           "training.lr_decay_every"),
                                          ("training.seed=-1",
                                           "training.seed")])
def test_bad_training_value_is_config_error(tmp_path, capsys, override, key):
    code = main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "task.size=8", "--set", override,
                 "--out", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("hidden", ["[6.7]", "6"])
def test_bad_hidden_width_is_config_error(tmp_path, capsys, hidden):
    code = main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 *SMALL_TRAIN, "--set", f"network.hidden={hidden}",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "network.hidden" in capsys.readouterr().err


def test_unknown_task_kind(tmp_path):
    code = main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "task.kind=zebra", "--out", str(tmp_path)])
    assert code == 2


def test_unknown_restore_denoiser(tmp_path):
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "restore.denoiser=maximal", "--out", str(tmp_path)])
    assert code == 2


def test_checkpoint_restore_requires_a_path(tmp_path):
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "restore.denoiser=checkpoint",
                 "--out", str(tmp_path)])
    assert code == 2


def test_train_writes_checkpoint_and_trace(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 *SMALL_TRAIN, "--out", str(out)])
    assert code == 0
    net = load_network(out / "checkpoint.bin")
    assert net.widths == [8 * 8 + 1, 6, 8 * 8]
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss" and len(lines) == 9
    assert all(float(line.split(",")[1]) >= 0.0 for line in lines[1:])


def test_integral_float_count_trains(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 *SMALL_TRAIN, "--set", "training.steps=3.0",
                 "--out", str(out)])
    assert code == 0
    assert len((out / "loss.csv").read_text().splitlines()) == 4


def test_restore_from_checkpoint(tmp_path):
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 *SMALL_TRAIN, "--out", str(train_out)]) == 0
    out = tmp_path / "restore"
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 *SMALL_TRAIN,
                 "--set", "restore.denoiser=checkpoint",
                 "--checkpoint", str(train_out / "checkpoint.bin"),
                 "--steps", "2", "--out", str(out)])
    assert code == 0
    assert (out / "metrics.json").is_file()


def test_restore_oracle_outputs(tmp_path):
    out = tmp_path / "restore"
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "task.size=8",
                 "--set", "restore.denoiser=oracle-clean",
                 "--steps", "2", "--out", str(out)])
    assert code == 0
    rec = json.loads((out / "metrics.json").read_text())
    assert {"task", "steps", "psnr_in", "psnr_out",
            "rmse_in", "rmse_out"} <= set(rec)
    assert rec["steps"] == 2
    for name in ("clean.pgm", "degraded.pgm", "restored.pgm", "restored.bin"):
        assert (out / name).is_file()
    assert (out / "clean.pgm").read_bytes().startswith(b"P5\n")


@pytest.mark.parametrize("config", ["streaks.json", "shadow_box.json"])
def test_analytic_restore_runs_on_residual_tasks(tmp_path, config):
    # the process is over the basis resolved on the task's own pair, so the
    # analytic denoiser runs; its one point is the clean field, so it
    # restores exactly what the clean oracle does
    restored = {}
    for kind in ("analytic", "oracle-clean"):
        out = tmp_path / kind
        assert main(["restore", "--config", str(CONFIGS / config),
                     "--set", f"restore.denoiser={kind}",
                     "--out", str(out)]) == 0
        restored[kind] = (out / "restored.bin").read_bytes()
    assert restored["analytic"] == restored["oracle-clean"]


# The paper's claim that richer noise costs nothing at restoration time, as
# counts: restore's reverse walk evaluates the schedule once for all its
# knots, with every denoiser, and never reads Sigma's factors or the basis.
@pytest.mark.parametrize("config, denoiser", [
    (config, denoiser) for config in ("smooth_field", "streaks", "shadow_box")
    for denoiser in ("oracle-clean", "analytic", "train")
] + [("smooth_field", "checkpoint")])
def test_restore_walk_makes_one_schedule_call(tmp_path, monkeypatch, config,
                                              denoiser):
    args = ["--config", str(CONFIGS / f"{config}.json"),
            "--set", "training.steps=20"]
    if denoiser == "checkpoint":
        assert main(["train", *args, "--out", str(tmp_path / "train")]) == 0
        args += ["--checkpoint", str(tmp_path / "train" / "checkpoint.bin")]
    counts = {"walk": 0, "evaluate": 0, "_factor": 0, "elements": 0}
    walking = []

    def counted(name, fn):
        def wrapper(*a, **kw):
            counts[name] += len(walking)
            return fn(*a, **kw)
        return wrapper

    for cls, name in ((Schedule, "evaluate"), (bases.CovarianceOp, "_factor"),
                      (bases.BasisSet, "elements")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    walk = tasks.euler_trajectory

    def counted_walk(*a, **kw):
        counts["walk"] += 1
        walking.append(True)
        try:
            return walk(*a, **kw)
        finally:
            walking.pop()

    monkeypatch.setattr(tasks, "euler_trajectory", counted_walk)
    assert main(["restore", *args, "--set", f"restore.denoiser={denoiser}",
                 "--out", str(tmp_path / "restore")]) == 0
    assert counts == {"walk": 1, "evaluate": 1, "_factor": 0, "elements": 0}


def test_restore_zero_steps_is_identity(tmp_path):
    out = tmp_path / "restore0"
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "task.size=8",
                 "--set", "restore.denoiser=oracle-clean",
                 "--steps", "0", "--out", str(out)])
    assert code == 0
    rec = json.loads((out / "metrics.json").read_text())
    assert rec["psnr_out"] == rec["psnr_in"]
    assert rec["rmse_out"] == rec["rmse_in"]


def test_sample_writes_trajectories(tmp_path):
    out = tmp_path / "samples"
    code = main(["sample", "--config", str(CONFIGS / "toy_sample.json"),
                 "--set", "sampling.n_samples=2",
                 "--set", "sampling.steps=4", "--out", str(out)])
    assert code == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("sample,")
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")[1:]]  # parseable floats
        assert all(np.isfinite(values))
    for i in range(2):
        tlines = (out / f"trajectory_{i:03d}.csv").read_text().splitlines()
        assert len(tlines) == 6  # header + 5 knots


def _check_against_one_trajectory_runs(out, n, final_denoise):
    """Every samples.csv row, and each trajectory's ends, equal a
    one-trajectory run from that sample's own Rng(seed, 100 + i) start."""
    cfg = load_config(CONFIGS / "toy_sample.json")
    pts = [Field(np.asarray(r, dtype=np.float64)) for r in cfg["points"]]
    p = DiffusionProcess(build_schedule(cfg),
                         build_fixed_basis(cfg, (2,), default_kind="pixel"),
                         resolved_eta(cfg))
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    grid = make_time_grid(p.schedule.T, cfg["sampling"]["steps"],
                          cfg["sampling"]["scheme"])
    rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    assert rows.shape == (n, 3)
    for i in range(n):
        rng = Rng(cfg["seed"], 100 + i)
        y = pts[rng.integers(0, len(pts))]
        x_top = p.forward_sample(y.flat()[None, :], p.schedule.T, rng)
        end = euler_trajectory(p, den, x_top, grid)[-1]
        traj = np.loadtxt(out / f"trajectory_{i:03d}.csv",
                          delimiter=",", skiprows=1)
        np.testing.assert_allclose(traj[0, 1:], x_top[0], rtol=1e-12)
        np.testing.assert_allclose(traj[-1, 1:], end[0], rtol=1e-12)
        if final_denoise == "true":
            end = den.denoise(end, float(grid[-1]))
        assert rows[i, 0] == i
        np.testing.assert_allclose(rows[i, 1:], end[0], rtol=1e-12)


@pytest.mark.parametrize("final_denoise", ["false", "true"])
def test_sample_batch_matches_one_trajectory_runs(tmp_path, monkeypatch,
                                                  final_denoise):
    # samples walk stacked Euler passes, one per block; each row must still
    # be the one-trajectory run from its own Rng(seed, 100 + i) start
    args = ["sample", "--config", str(CONFIGS / "toy_sample.json"),
            "--set", f"sampling.final_denoise={final_denoise}"]
    n = load_config(CONFIGS / "toy_sample.json")["sampling"]["n_samples"]
    assert n <= cli._SAMPLE_BLOCK  # all samples in one block
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    _check_against_one_trajectory_runs(tmp_path / "one", n, final_denoise)
    # blocks of 2, the last one short
    monkeypatch.setattr(cli, "_SAMPLE_BLOCK", 2)
    assert main(args + ["--set", "sampling.n_samples=5",
                        "--out", str(tmp_path / "blocks")]) == 0
    _check_against_one_trajectory_runs(tmp_path / "blocks", 5, final_denoise)


def test_sample_rejects_negative_count(tmp_path):
    code = main(["sample", "--config", str(CONFIGS / "toy_sample.json"),
                 "--set", "sampling.n_samples=-2", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("override,key", [
    ("sampling.n_samples=2.9", "sampling.n_samples"),
    ("sampling.steps=3.7", "sampling.steps"),
    ("sampling.steps=0", "sampling.steps"),
    ("seed=1.5", "seed"),
    ("seed=-1", "seed"),
    ("sampling.final_denoise=no", "sampling.final_denoise"),
    ("sampling.final_denoise=1", "sampling.final_denoise")])
def test_sample_rejects_bad_counts(tmp_path, capsys, override, key):
    code = main(["sample", "--config", str(CONFIGS / "toy_sample.json"),
                 "--set", override, "--out", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "samples.csv").exists()


def test_sample_takes_integral_float_counts(tmp_path):
    code = main(["sample", "--config", str(CONFIGS / "toy_sample.json"),
                 "--set", "sampling.n_samples=2.0",
                 "--set", "sampling.steps=3.0", "--out", str(tmp_path)])
    assert code == 0
    assert len((tmp_path / "samples.csv").read_text().splitlines()) == 3
    lines = (tmp_path / "trajectory_001.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 knots


def test_restore_rejects_fractional_steps(tmp_path, capsys):
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "task.size=8",
                 "--set", "restore.denoiser=oracle-clean",
                 "--set", "sampling.steps=2.5", "--out", str(tmp_path)])
    assert code == 2
    assert "sampling.steps" in capsys.readouterr().err
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "restore.denoiser=oracle-clean",
                 "--steps", "2.5", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("override,key", [
    ("schedule.T=abc", "schedule.T"),
    ("schedule.T=-5", "schedule.T"),
    ("schedule.beta_max=0", "schedule.beta_max"),
    ("schedule.beta_max=0.00001", "schedule.beta_max"),
    ("process.eta=abc", "process.eta"),
    ("sampling.scheme=foo", "sampling.scheme"),
    ("task.size=0", "task.size"),
    ("task.size=2.5", "task.size"),
    ("basis.n1=2.5", "basis.n1"),
    ("basis.n1=-1", "basis.n1"),
    ("basis.n2=2.5", "basis.n2"),
    ("basis.n2=1", "basis.n2")])
def test_restore_rejects_bad_config_values(tmp_path, capsys, override, key):
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 "--set", "restore.denoiser=oracle-clean",
                 "--set", override, "--out", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "metrics.json").exists()


def test_bad_scheme_is_refused_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the scheme was checked")

    monkeypatch.setattr(cli, "train", no_training)
    code = main(["restore", "--config", str(CONFIGS / "smooth_field.json"),
                 *SMALL_TRAIN, "--set", "sampling.scheme=cubic",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "sampling.scheme" in capsys.readouterr().err


@pytest.mark.parametrize("override,key", [
    ("simulate.n_paths=10.5", "simulate.n_paths"),
    ("simulate.n_steps=3.2", "simulate.n_steps"),
    ("simulate.n_paths=0", "simulate.n_paths")])
def test_simulate_rejects_bad_counts(tmp_path, capsys, override, key):
    code = main(["simulate", "--config", str(CONFIGS / "toy_sample.json"),
                 "--set", override, "--out", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "sde_stats.csv").exists()


def test_sample_factors_sigma_once(tmp_path, monkeypatch):
    calls = []
    factor = bases.CovarianceOp._factor

    def counting(op):
        calls.append(1)
        return factor(op)

    monkeypatch.setattr(bases.CovarianceOp, "_factor", counting)
    code = main(["sample", "--config", str(CONFIGS / "toy_sample.json"),
                 "--set", "sampling.n_samples=3",
                 "--set", "sampling.steps=20", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1


def test_simulate_is_reproducible(tmp_path):
    args = ["simulate", "--config", str(CONFIGS / "toy_sample.json"),
            "--set", "simulate.n_paths=200", "--set", "simulate.n_steps=16"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    blob = (out_a / "sde_stats.csv").read_bytes()
    assert blob == (out_b / "sde_stats.csv").read_bytes()
    lines = blob.decode().splitlines()
    assert lines[0] == "index,empirical_mean,closed_mean,empirical_var,closed_var"
    for line in lines[1:]:
        assert all(np.isfinite(float(v)) for v in line.split(",")[1:])


def test_verify_subcommand_writes_report(tmp_path):
    report = tmp_path / "report.json"
    code = main(["verify", "--suite", "cancellation", "--seed", "7",
                 "--out", str(report)])
    assert code == 0
    rec = json.loads(report.read_text())
    assert rec["suite"] == "cancellation" and rec["passed"] is True
    assert rec["n_checks"] == len(rec["checks"]) > 0


def test_verify_rejects_unknown_suite():
    assert main(["verify", "--suite", "vibes"]) == 2


@pytest.mark.parametrize("seed,bound", [(-1, "at least 0"),
                                        (2 ** 64, f"at most {2 ** 64 - 1}")])
def test_verify_refuses_a_seed_out_of_range(seed, bound, capsys):
    assert main(["verify", "--suite", "cancellation", "--seed", str(seed)]) == 2
    err = capsys.readouterr().err
    assert f"seed = {seed}" in err and bound in err


def test_verify_takes_the_largest_seed(tmp_path):
    code = main(["verify", "--suite", "cancellation",
                 "--seed", str(2 ** 64 - 1), "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_demo_case3_table(tmp_path):
    out = tmp_path / "case3"
    code = main(["demo-case3", "--config", str(CONFIGS / "case3.json"),
                 "--set", "case3.n_draws=2000",
                 "--set", "case3.eta_grid=[0.0,1000000000.0]",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "case3.csv").read_text().splitlines()
    assert lines[0] == "eta,tv_distance" and len(lines) == 3
    d0 = float(lines[1].split(",")[1])
    dinf = float(lines[2].split(",")[1])
    assert dinf < d0


@pytest.mark.parametrize("override,key", [
    ("case3.poisson_lambda=abc", "case3.poisson_lambda"),
    ("case3.poisson_lambda=-2", "case3.poisson_lambda"),
    ("case3.poisson_lambda=1e30", "case3.poisson_lambda"),
    ("case3.n_draws=999", "case3.n_draws"),
    ("case3.eta_grid=[-1]", "case3.eta_grid.0"),
    ("case3.eta_grid=[0,NaN]", "case3.eta_grid.1"),
    ("case3.eta_grid=5", "case3.eta_grid")])
def test_demo_case3_rejects_bad_values(tmp_path, capsys, override, key):
    code = main(["demo-case3", "--config", str(CONFIGS / "case3.json"),
                 "--set", override, "--out", str(tmp_path)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_demo_case3_rejects_fractional_draws(tmp_path, capsys):
    code = main(["demo-case3", "--config", str(CONFIGS / "case3.json"),
                 "--set", "case3.n_draws=2000.5", "--out", str(tmp_path)])
    assert code == 2
    assert "case3.n_draws" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,overrides,keys", [
    # JSON true is no number
    ("sample", "toy_sample.json", ["sampling.steps=true"], ["sampling.steps"]),
    ("sample", "toy_sample.json", ["process.eta=true"], ["process.eta"]),
    ("sample", "toy_sample.json", ["seed=true"], ["seed"]),
    ("train", "smooth_field.json", ["training.batch=true"], ["training.batch"]),
    ("simulate", "toy_sample.json", ["simulate.n_paths=true"],
     ["simulate.n_paths"]),
    ("demo-case3", "case3.json", ["case3.eta_grid=[true]"],
     ["case3.eta_grid.0"]),
    # a number is no file name
    ("restore", "smooth_field.json",
     ["restore.denoiser=checkpoint", "restore.checkpoint=5"],
     ["restore.checkpoint"]),
    # points must be a rectangular list of finite numbers
    ("sample", "toy_sample.json", ['points=[[1,"a"]]'], ["points.0.1"]),
    ("sample", "toy_sample.json", ["points=[[1,2],[3]]"], ["points"]),
    ("sample", "toy_sample.json", ["points=[[1,NaN]]"], ["points.0.1"]),
    ("sample", "toy_sample.json", ["points=5"], ["points"]),
    ("sample", "toy_sample.json", ["points=[[]]"], ["points"]),
    ("simulate", "toy_sample.json", ["points=[[]]"], ["points"]),
    ("sample", "toy_sample.json", ["schedule.kind=[1]"], ["schedule.kind"]),
    ("train", "smooth_field.json", ["network.hidden=[0]"],
     ["network.hidden.0"]),
    # a seed is half of a 128-bit Philox key
    ("train", "smooth_field.json", ["training.seed=1e30"], ["training.seed"]),
    ("sample", "toy_sample.json", ["seed=1e30"], ["seed"]),
    # cross-key refusals name both keys
    ("train", "smooth_field.json",
     ["training.time_dist=discrete", "schedule.T=0.4"],
     ["training.time_dist", "schedule.T"]),
    ("train", "smooth_field.json",
     ["training.time_dist=discrete", "schedule.T=1e19"],
     ["training.time_dist", "schedule.T"]),
    ("sample", "toy_sample.json", ["basis.kind=legendre-trig"],
     ["basis.kind", "points"]),
    # a residual task's noise is its own basis
    ("train", "streaks.json", ["basis.kind=pixel"],
     ["basis.kind", "task.kind"])])
def test_bad_values_exit_2_naming_their_key(tmp_path, capsys, command, config,
                                            overrides, keys):
    args = [command, "--config", str(CONFIGS / config), *SMALL_TRAIN]
    for item in overrides:
        args += ["--set", item]
    assert main(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys)
    assert not any(tmp_path.iterdir())


def test_checkpoint_restore_refuses_another_run(tmp_path, capsys):
    # trained under noise-pred; smooth_field.json restores under x0-pred
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(CONFIGS / "smooth_field.json"),
                 *SMALL_TRAIN, "--set", "training.objective=noise-pred",
                 "--out", str(train_out)]) == 0
    restore = ["restore", "--config", str(CONFIGS / "smooth_field.json"),
               *SMALL_TRAIN, "--set", "restore.denoiser=checkpoint",
               "--out", str(tmp_path / "restore")]
    capsys.readouterr()
    code = main(restore + ["--checkpoint", str(train_out / "checkpoint.bin")])
    assert code == 2
    assert "training.objective" in capsys.readouterr().err
    # a file written before format 2 holds no header: re-train it
    net = load_network(train_out / "checkpoint.bin")
    v1 = tmp_path / "v1.bin"
    v1.write_bytes(struct.pack("<Q", 3) + struct.pack("<3Q", *net.widths)
                   + field_to_bytes(Field(net.params)))
    assert main(restore + ["--checkpoint", str(v1)]) == 1
    assert "re-train" in capsys.readouterr().err
    assert not (tmp_path / "restore").exists()
