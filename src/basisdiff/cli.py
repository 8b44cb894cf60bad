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

from .config import (SCHEMA, ConfigError, apply_overrides, build_fixed_basis,
                     build_process, build_task, check,
                     load_config, resolved_eta, resolved_objective, value)
from .denoisers import (CheckpointMismatch, ConstantDenoiser, DiracDataset,
                        DiracMixtureDenoiser, PreconditionedDenoiser,
                        TinyNetwork, load_network, save_network)
from .fields import Rng, write_csv, write_field, write_pgm
from .samplers import euler_trajectory, make_time_grid, write_trajectory_csv
from .tasks import (_transform, case3_discrete_demo, centered_poisson_sampler,
                    run_restoration)
from .training import TrainConfig, train, wrapper_for, write_loss_trace
from .verify import SUITE_NAMES, run_suite


# samples walked together by `basisdiff sample`; bounds its peak memory
_SAMPLE_BLOCK = 16


def _load(args) -> dict:
    """The checked config: the file, then --set, then restore's flags."""
    cfg = apply_overrides(load_config(args.config), args.set)
    if getattr(args, "steps", None) is not None:
        cfg["sampling"]["steps"] = args.steps
    if getattr(args, "checkpoint", None) is not None:
        cfg["restore"]["checkpoint"] = args.checkpoint
    return check(cfg)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _training_setup(cfg: dict):
    """(task, process, transformed clean Field, widths) for a task run."""
    task, basis = build_task(cfg)
    p = build_process(cfg, basis)
    d = task.clean.size
    widths = [d + 1] + cfg["network"]["hidden"] + [d]
    return task, p, _transform(task, task.clean), widths


def _fingerprint(cfg: dict, widths) -> dict:
    """The run a checkpoint belongs to: restore refuses it under any other."""
    head = {path: value(cfg, path) for path in SCHEMA
            if path.startswith(("schedule.", "task.", "basis."))}
    return {**head, "widths": list(widths),
            "basis.kind": value(cfg, "basis.kind") or "legendre-trig",
            "training.objective": resolved_objective(cfg),
            "process.eta": resolved_eta(cfg)}


def _train_config(cfg: dict) -> TrainConfig:
    """TrainConfig from the checked training section, which it range-checks."""
    try:
        return TrainConfig(**{**cfg["training"],
                              "objective": resolved_objective(cfg)})
    except ValueError as exc:
        # TrainConfig names the key first in each of its refusals
        raise ConfigError(f"training.{exc}") from exc


def _train_network(cfg: dict):
    task, p, x0, widths = _training_setup(cfg)
    tc = _train_config(cfg)
    net = TinyNetwork(widths, Rng(cfg["seed"], 2))
    net, trace = train(net, p, DiracDataset([x0]), tc, mask=task.mask)
    return task, p, net, trace


def cmd_train(args) -> int:
    cfg = _load(args)
    task, p, net, trace = _train_network(cfg)
    out = _out_dir(args)
    save_network(net, out / "checkpoint.bin", _fingerprint(cfg, net.widths))
    write_loss_trace(trace, out / "loss.csv")
    print(f"trained {len(trace)} steps on task {task.name}; "
          f"final loss {trace[-1]!r}")
    return 0


def _build_restore_denoiser(cfg: dict, kind: str):
    if kind == "train":
        task, p, net, _ = _train_network(cfg)
    else:
        task, p, x0, widths = _training_setup(cfg)
    if kind == "oracle-clean":
        return task, p, ConstantDenoiser(x0)
    if kind == "analytic":
        return task, p, DiracMixtureDenoiser(DiracDataset([x0]), p)
    if kind == "checkpoint":
        path = cfg["restore"]["checkpoint"]
        if not path:
            raise ConfigError("restore.denoiser = 'checkpoint' needs "
                              "restore.checkpoint (or --checkpoint)")
        net = load_network(path, expect=_fingerprint(cfg, widths))
    return task, p, PreconditionedDenoiser(
        net, p, wrapper_for(resolved_objective(cfg)))


def cmd_restore(args) -> int:
    cfg = _load(args)
    steps = cfg["sampling"]["steps"]
    task, p, den = _build_restore_denoiser(cfg, cfg["restore"]["denoiser"])
    result = run_restoration(task, p, den, steps,
                             scheme=cfg["sampling"]["scheme"])
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


def _points_process(cfg: dict):
    """((Y, d) points, process) for the config's non-empty `points` list,
    over the pixel basis unless basis.kind names another."""
    pts = np.asarray(cfg["points"], dtype=np.float64)
    basis = build_fixed_basis(cfg, pts.shape[1:], default_kind="pixel")
    return pts, build_process(cfg, basis)


def cmd_sample(args) -> int:
    cfg = _load(args)
    sampling = cfg["sampling"]
    if not cfg["points"]:
        raise ConfigError("sample needs a non-empty 'points' list in the config")
    if sampling["steps"] < 1:
        raise ConfigError(f"sample needs sampling.steps >= 1, "
                          f"got {sampling['steps']}")
    pts, p = _points_process(cfg)
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    grid = make_time_grid(p.schedule.T, sampling["steps"], sampling["scheme"])
    n = sampling["n_samples"]
    out = _out_dir(args)

    def sample_rows():
        # blocks of samples walk together; each block is written and freed
        # before the next, so the peak memory does not grow with n
        for lo in range(0, n, _SAMPLE_BLOCK):
            block = range(lo, min(lo + _SAMPLE_BLOCK, n))
            x_top = np.empty((len(block), pts.shape[1]))
            for k, i in enumerate(block):
                # one stream per sample: the index draw, then the forward noise
                rng = Rng(cfg["seed"], 100 + i)
                y = pts[rng.integers(0, len(pts))][None, :]
                x_top[k] = p.forward_sample(y, p.schedule.T, rng)[0]
            states = euler_trajectory(p, den, x_top, grid)
            finals = states[-1]
            if sampling["final_denoise"]:
                finals = den.denoise(finals, float(grid[-1]))
            for k, i in enumerate(block):
                write_trajectory_csv(grid, states[:, k],
                                     out / f"trajectory_{i:03d}.csv")
                yield [i] + finals[k].tolist()

    write_csv(out / "samples.csv",
              ["sample"] + [f"x{i}" for i in range(pts.shape[1])], sample_rows())
    print(f"wrote {n} samples over a {grid.size - 1}-step grid")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if cfg["points"]:
        pts, p = _points_process(cfg)
        x0 = pts[0]
    else:
        _, p, x0, _ = _training_setup(cfg)
    n_paths, n_steps = cfg["simulate"]["n_paths"], cfg["simulate"]["n_steps"]
    paths = p.simulate_sde(x0, n_steps, n_paths, Rng(cfg["seed"], 3))
    mom = p.conditional_moments(x0, p.schedule.T)
    closed_var = mom.cov_scale * (p.cov_op.rows ** 2).sum(axis=0)
    out = _out_dir(args)
    write_csv(out / "sde_stats.csv",
              ["index", "empirical_mean", "closed_mean", "empirical_var",
               "closed_var"],
              zip(range(x0.size), paths.mean(axis=0).tolist(),
                  mom.mean.tolist(), paths.var(axis=0).tolist(),
                  closed_var.tolist()))
    print(f"simulated {n_paths} forward paths over {n_steps} steps")
    return 0


def cmd_verify(args) -> int:
    # the config's seed row holds the one range of a seed
    report = run_suite(args.suite, value({"seed": args.seed}, "seed"))
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
    case3 = cfg["case3"]
    sampler = centered_poisson_sampler(case3["poisson_lambda"])
    table = case3_discrete_demo(sampler, case3["eta_grid"], case3["n_draws"],
                                Rng(cfg["seed"], 5))
    out = _out_dir(args)
    write_csv(out / "case3.csv", ["eta", "tv_distance"], table)
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
    except (ConfigError, CheckpointMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
