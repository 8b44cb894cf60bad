"""Command-line front end.

Subcommands: train, sample, restore, simulate, verify, demo-case3.  Every
run is a pure function of (config file, --set overrides, seed), so repeated
invocations produce byte-identical CSV/JSON/PGM artifacts.

Exit codes: 0 on success, 1 on runtime failure (including a failed verify
suite), 2 on argument or config errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import (ConfigError, _config_bool, _config_count, _config_float,
                     _count, _finite, apply_overrides, build_fixed_basis,
                     build_process, build_schedule, build_task, load_config,
                     resolved_eta, resolved_objective, resolved_scheme)
from .denoisers import (ConstantDenoiser, DiracMixtureDenoiser,
                        PreconditionedDenoiser, TinyNetwork, load_network,
                        save_network)
from .fields import Field, Rng, write_field, write_pgm
from .process import DiffusionProcess, DiracDataset
from .samplers import euler_trajectory, make_time_grid, write_trajectory_csv
from .tasks import (CASE3_MIN_DRAWS, POISSON_LAM_MAX, _transform,
                    case3_discrete_demo, centered_poisson_sampler,
                    run_restoration)
from .training import TrainConfig, train, write_loss_trace
from .verify import SUITE_NAMES, run_suite


# samples walked together by `basisdiff sample`; bounds its peak memory
_SAMPLE_BLOCK = 16


def _load(args) -> dict:
    cfg = apply_overrides(load_config(args.config), args.set)
    cfg["seed"] = _config_count(cfg, "seed")
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _wrap_variant(objective: str) -> str:
    return "predict-x0" if objective == "x0-pred" else "predict-noise"


def _training_setup(cfg: dict):
    """(task, process, dataset, mask, widths) shared by train and restore."""
    task, basis = build_task(cfg)
    p = build_process(cfg, basis)
    x0 = _transform(task, task.clean)
    deg = _transform(task, task.degraded)
    ds = DiracDataset([x0], degraded=[deg])
    d = task.clean.size
    hidden = cfg["network"]["hidden"]
    try:
        widths = [d + 1] + [_count(w) for w in hidden] + [d]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"network.hidden = {hidden!r}: {exc}") from exc
    return task, p, ds, task.mask, widths


_TRAINING_CASTS = {"steps": _count, "batch": _count, "lr": _finite,
                   "beta1": _finite, "beta2": _finite, "eps": _finite,
                   "seed": _count, "lr_decay": _finite,
                   "lr_decay_every": _count, "ema_decay": _finite}


def _train_config(cfg: dict) -> TrainConfig:
    """TrainConfig from the training section; a bad value is a ConfigError."""
    tr = cfg["training"]
    values = {}
    for key, cast in _TRAINING_CASTS.items():
        try:
            values[key] = cast(tr[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"training.{key} = {tr[key]!r}: {exc}") from exc
    try:
        return TrainConfig(**values, optimizer=tr["optimizer"],
                           objective=resolved_objective(cfg),
                           time_dist=tr["time_dist"])
    except ValueError as exc:
        # TrainConfig names the key first in each of its refusals
        raise ConfigError(f"training.{exc}") from exc


def _train_network(cfg: dict):
    task, p, ds, mask, widths = _training_setup(cfg)
    tc = _train_config(cfg)
    net = TinyNetwork(widths, Rng(cfg["seed"], 2))
    net, trace = train(net, p, ds, tc, mask=mask)
    return task, p, net, trace


def cmd_train(args) -> int:
    cfg = _load(args)
    task, p, net, trace = _train_network(cfg)
    out = _out_dir(args)
    save_network(net, out / "checkpoint.bin")
    write_loss_trace(trace, out / "loss.csv")
    print(f"trained {len(trace)} steps on task {task.name}; "
          f"final loss {trace[-1]!r}")
    return 0


def _build_restore_denoiser(cfg: dict, kind: str):
    if kind == "train":
        task, p, net, _ = _train_network(cfg)
        return task, p, PreconditionedDenoiser(
            net, p, _wrap_variant(resolved_objective(cfg)))
    task, p, _, _, _ = _training_setup(cfg)
    if kind == "checkpoint":
        path = cfg["restore"].get("checkpoint")
        if not path:
            raise ConfigError("restore.denoiser = 'checkpoint' needs "
                              "restore.checkpoint (or --checkpoint)")
        net = load_network(path)
        return task, p, PreconditionedDenoiser(
            net, p, _wrap_variant(resolved_objective(cfg)))
    if kind == "oracle-clean":
        return task, p, ConstantDenoiser(_transform(task, task.clean))
    if kind == "analytic":
        ds = DiracDataset([_transform(task, task.clean)])
        return task, p, DiracMixtureDenoiser(ds, p)
    raise ConfigError(f"unknown restore denoiser {kind!r}")


def cmd_restore(args) -> int:
    cfg = _load(args)
    if args.steps is not None:
        cfg["sampling"]["steps"] = args.steps
    if args.checkpoint is not None:
        cfg["restore"]["checkpoint"] = args.checkpoint
    steps = _config_count(cfg, "sampling.steps")
    scheme = resolved_scheme(cfg)
    task, p, den = _build_restore_denoiser(cfg, cfg["restore"]["denoiser"])
    result = run_restoration(task, p, den, steps, scheme=scheme)
    out = _out_dir(args)
    with open(out / "metrics.json", "w") as fh:
        fh.write(json.dumps(result.metrics_dict(), indent=2) + "\n")
    write_pgm(task.clean, out / "clean.pgm")
    write_pgm(task.degraded, out / "degraded.pgm")
    write_pgm(result.restored, out / "restored.pgm")
    write_field(result.restored, out / "restored.bin")
    print(f"task {task.name}, {steps} steps: psnr_in={result.psnr_in:.3f} "
          f"psnr_out={result.psnr_out:.3f}")
    return 0


def cmd_sample(args) -> int:
    cfg = _load(args)
    rows = cfg.get("points")
    if not rows:
        raise ConfigError("sample needs a non-empty 'points' list in the config")
    final_denoise = _config_bool(cfg, "sampling.final_denoise")
    pts = [Field(np.asarray(r, dtype=np.float64)) for r in rows]
    basis = build_fixed_basis(cfg, pts[0].shape, default_kind="pixel")
    p = DiffusionProcess(build_schedule(cfg), basis, resolved_eta(cfg))
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    grid = make_time_grid(p.schedule.T, _config_count(cfg, "sampling.steps", 1),
                          resolved_scheme(cfg))
    n = _config_count(cfg, "sampling.n_samples")
    out = _out_dir(args)
    with open(out / "samples.csv", "w") as samples:
        samples.write("sample," + ",".join(f"x{i}" for i in range(pts[0].size))
                      + "\n")
        # blocks of samples walk together; each block is written and freed
        # before the next, so the peak memory does not grow with n
        for lo in range(0, n, _SAMPLE_BLOCK):
            block = range(lo, min(lo + _SAMPLE_BLOCK, n))
            x_top = np.empty((len(block), pts[0].size))
            for k, i in enumerate(block):
                # one stream per sample: the index draw, then the forward noise
                rng = Rng(cfg["seed"], 100 + i)
                y = pts[rng.integers(0, len(pts))]
                x_top[k] = p.forward_sample(y, p.schedule.T, rng).flat()
            states = euler_trajectory(p, den, x_top, grid)
            finals = states[-1]
            if final_denoise:
                finals = den.denoise(finals, float(grid[-1]))
            for k, i in enumerate(block):
                write_trajectory_csv(grid, states[:, k],
                                     out / f"trajectory_{i:03d}.csv")
                if pts[0].ndim == 2:
                    write_pgm(Field(finals[k], shape=pts[0].shape),
                              out / f"sample_{i:03d}.pgm")
                samples.write(f"{i}," + ",".join(map(repr, finals[k].tolist()))
                              + "\n")
    print(f"wrote {n} samples over a {grid.size - 1}-step grid")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    rows = cfg.get("points")
    if rows:
        pts = [Field(np.asarray(r, dtype=np.float64)) for r in rows]
        x0 = pts[0]
        basis = build_fixed_basis(cfg, x0.shape, default_kind="pixel")
        p = DiffusionProcess(build_schedule(cfg), basis, resolved_eta(cfg))
        conditioning = None
    else:
        task, basis = build_task(cfg)
        p = build_process(cfg, basis)
        x0 = _transform(task, task.clean)
        conditioning = None
        if basis.mode == "sample-dependent":
            conditioning = (x0, _transform(task, task.degraded))
    n_paths = _config_count(cfg, "simulate.n_paths", 1)
    n_steps = _config_count(cfg, "simulate.n_steps", 1)
    paths = p.simulate_sde(x0, n_steps, n_paths, Rng(cfg["seed"], 3),
                           conditioning)
    mom = p.conditional_moments(x0, p.schedule.T, conditioning)
    elements = p.basis.elements(conditioning)
    closed_var = mom.cov_scale * (elements ** 2).sum(axis=0)
    emp_mean = paths.mean(axis=0)
    emp_var = paths.var(axis=0)
    lines = ["index,empirical_mean,closed_mean,empirical_var,closed_var"]
    for i in range(x0.size):
        lines.append(",".join([str(i), repr(float(emp_mean[i])),
                               repr(float(mom.mean.flat()[i])),
                               repr(float(emp_var[i])),
                               repr(float(closed_var[i]))]))
    out = _out_dir(args)
    with open(out / "sde_stats.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"simulated {n_paths} forward paths over {n_steps} steps")
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed)
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    n_pass = sum(1 for c in report.checks if c.passed)
    print(f"suite {report.suite}: {n_pass}/{len(report.checks)} checks passed",
          file=sys.stderr)
    return 0 if report.passed else 1


def cmd_demo_case3(args) -> int:
    cfg = _load(args)
    sampler = centered_poisson_sampler(
        _config_float(cfg, "case3.poisson_lambda", maximum=POISSON_LAM_MAX))
    grid = cfg["case3"]["eta_grid"]
    if not isinstance(grid, list):
        raise ConfigError(f"case3.eta_grid = {grid!r} must be a list")
    etas = [_config_float(cfg, f"case3.eta_grid.{i}") for i in range(len(grid))]
    table = case3_discrete_demo(sampler, etas,
                                _config_count(cfg, "case3.n_draws",
                                              minimum=CASE3_MIN_DRAWS),
                                Rng(cfg["seed"], 5))
    out = _out_dir(args)
    lines = ["eta,tv_distance"]
    lines += [f"{repr(eta)},{repr(tv)}" for eta, tv in table]
    with open(out / "case3.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for eta, tv in table:
        print(f"eta={eta:g}: tv={tv:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="basisdiff",
        description="Generalized denoising diffusion over basis-structured "
                    "noise: training, sampling, restoration and self-checks.")
    sub = ap.add_subparsers(dest="command", metavar="command")

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path config override, repeatable")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("train", help="train the tiny denoiser network")
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("sample", help="reverse-sample a toy point dataset")
    common(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("restore", help="restore a degraded task image")
    common(sp)
    sp.add_argument("--steps", type=int, default=None,
                    help="override sampling.steps")
    sp.add_argument("--checkpoint", default=None,
                    help="override restore.checkpoint")
    sp.set_defaults(func=cmd_restore)

    sp = sub.add_parser("simulate", help="run the forward SDE and summarise "
                                         "terminal statistics")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run a self-check suite")
    sp.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--out", default=None,
                    help="write the JSON report here instead of stdout")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("demo-case3", help="discrete-noise mediator demo")
    common(sp)
    sp.set_defaults(func=cmd_demo_case3)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
