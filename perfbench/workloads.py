"""The three benchmark workloads: inputs from the seed, timed work, output checks.

Each workload is one closed-loop client that waits for every call to finish.
Its inputs are a pure function of the workload seed (``inputs``); the
program only ever sees those generated inputs.  Construction is the set-up
that ``setup_s`` times; ``unit`` is one solution, timed as ``wall_s``;
``measure`` repeats units for the run's window, with a host-speed probe
beside them (``probe.py``); ``summarize`` derives the metrics, among them
``scaled_wall_s``, the median unit time at the probe's nominal host speed,
and runs the output checks, after the timed region.

* train-restore: criterion 9.  Trains the 257-96-96-256 TinyNetwork on
  ``configs/smooth_field.json`` (batch 8, Adam, x0-pred) and runs the 5-step
  PFODE restore with it.  The config's 6000-step schedule is run at one
  tenth of its length (600 steps, lr halved every 100 steps, EMA decay
  0.99) so that several solutions fit in one run; with the config's EMA
  decay of 0.999, 600 steps would leave the averaged weights near their
  initial values.
* sample-mixture: ``basisdiff sample`` through the CLI with the
  ``configs/toy_sample.json`` settings (pixel basis, eta 0) on a generated
  dataset of 64 points in d = 256, 8 trajectories of 100 Euler steps.
* verify-all: the 8 verify suites at the workload seed, one after another.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

# Layers are called through their modules, so the traced run's wrappers,
# which replace module attributes, see every call.
from basisdiff import (DiracDataset, Field, PreconditionedDenoiser, Rng,
                       TinyNetwork, TrainConfig, cli, config, tasks, training,
                       verify)

import probe
from layers import SUITES

TRAIN_STEPS = 600
N_POINTS, DIM = 64, 256
N_SAMPLES, SAMPLE_STEPS = 8, 100
# Largest distance from a sample endpoint to its nearest data point, per
# coordinate and relative to the data RMS.  The flow stops at t = T/1000,
# where sigma ~ 3e-3, so endpoints sit within a few 1e-3 of a data point.
ENDPOINT_TOL = 0.02
# Fewest units that make a median, whatever the window.
MIN_UNITS = 3


def _seeds(seed: int, n: int) -> list:
    """n independent 31-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, n)]


def _timings(units: list) -> dict:
    """Median raw and probe-scaled unit times, and the per-unit samples."""
    scaled = [probe.scaled(u["wall_s"], u["probe_s"]) for u in units]
    return {"wall_s": statistics.median(u["wall_s"] for u in units),
            "scaled_wall_s": statistics.median(scaled),
            "unit_wall_s": [u["wall_s"] for u in units],
            "unit_probe_s": [u["probe_s"] for u in units]}


class Workload:
    name = ""
    op = ""  # what one counted operation is
    min_units = MIN_UNITS
    # the probe kernels that resemble the workload's traced profile
    probe_mix = ("scalar",)

    def with_traced(self, units: list, traced) -> list:
        """The measured units plus the traced one, for the output checks."""
        return units + [traced]

    def _next(self, i: int) -> dict:
        """The i-th timed unit of a run."""
        return self.unit()

    def measure(self, seconds: float) -> list:
        """Units repeated until the window has passed (at least min_units).

        The host-speed probe runs beside every unit (``probe.timed``):
        each unit records the trimmed mean probe time as ``probe_s``, and its
        ``wall_s`` leaves the probe's time out.
        """
        units = []
        probe.use(*self.probe_mix)
        probe.warm()
        before = probe.probe()
        start = time.perf_counter()
        while (len(units) < self.min_units
               or time.perf_counter() - start < seconds):
            unit, wall, unit["probe_s"], before = probe.timed(
                lambda: self._next(len(units)), before)
            unit["wall_s"] = wall
            units.append(unit)
        return units


class TrainRestore(Workload):
    name = "train-restore"
    op = "training step or restoration"
    probe_mix = ("network", "adam")  # TinyNetwork.backward, Adam.step

    @staticmethod
    def inputs(seed: int) -> list:
        task_seed, train_seed = _seeds(seed, 2)
        return [f"seed={task_seed}", f"training.seed={train_seed}",
                f"training.steps={TRAIN_STEPS}", "training.lr_decay_every=100",
                "training.ema_decay=0.99"]

    def __init__(self, root: Path, seed: int, work: Path):
        cfg = config.apply_overrides(
            config.load_config(root / "configs" / "smooth_field.json"),
            self.inputs(seed))
        self.task, basis = config.build_task(cfg)
        self.process = config.build_process(cfg, basis)
        clean = self.task.clean
        if self.task.transform == "log":
            clean = Field(np.log(clean.values))
        self.dataset = DiracDataset([clean])
        tr = cfg["training"]
        self.objective = config.resolved_objective(cfg)
        self.train_cfg = TrainConfig(
            steps=int(tr["steps"]), batch=int(tr["batch"]), lr=float(tr["lr"]),
            optimizer=tr["optimizer"], beta1=float(tr["beta1"]),
            beta2=float(tr["beta2"]), eps=float(tr["eps"]),
            objective=self.objective, time_dist=tr["time_dist"],
            seed=int(tr["seed"]), lr_decay=float(tr["lr_decay"]),
            lr_decay_every=int(tr["lr_decay_every"]),
            ema_decay=float(tr["ema_decay"]))
        d = clean.size
        widths = [d + 1] + [int(w) for w in cfg["network"]["hidden"]] + [d]
        self.net = TinyNetwork(widths, Rng(int(cfg["seed"]), 2))
        self.init_params = self.net.params.copy()
        self.restore_steps = int(cfg["sampling"]["steps"])
        self.scheme = cfg["sampling"]["scheme"]

    def unit(self) -> dict:
        self.net.params[:] = self.init_params
        t0, p0 = time.perf_counter(), probe.spent()
        net, losses = training.train(self.net, self.process, self.dataset,
                                     self.train_cfg, mask=self.task.mask)
        t1 = time.perf_counter() - (probe.spent() - p0)
        wrap = "predict-x0" if self.objective == "x0-pred" else "predict-noise"
        den = PreconditionedDenoiser(net, self.process, wrap)
        res = tasks.run_restoration(self.task, self.process, den,
                                    self.restore_steps, scheme=self.scheme)
        t2 = time.perf_counter()
        return {"wall_s": t2 - t0, "train_s": t1 - t0, "losses": losses,
                "psnr_in": res.psnr_in, "psnr_out": res.psnr_out}

    def summarize(self, units: list) -> dict:
        steps = self.train_cfg.steps
        bad_losses = sum(sum(1 for v in u["losses"] if not math.isfinite(v))
                         for u in units)
        bad_restores = sum(1 for u in units
                           if not u["psnr_out"] > u["psnr_in"])
        psnrs = {u["psnr_out"] for u in units}
        return {
            **_timings(units),
            "attempted": len(units) * (steps + 1),
            "failed": bad_losses + bad_restores,
            "named": {
                "train_steps_per_s": (statistics.median(
                    steps / u["train_s"] for u in units), "1/s"),
                "restore_psnr_db": (units[0]["psnr_out"], "dB"),
                "degraded_psnr_db": (units[0]["psnr_in"], "dB"),
            },
            "checks": {
                "finite loss at every step": bad_losses == 0,
                "psnr_out > psnr_in in every unit": bad_restores == 0,
                "same psnr_out in every unit": len(psnrs) == 1,
                "loss trace has one entry per step": all(
                    len(u["losses"]) == steps for u in units),
            },
        }


class SampleMixture(Workload):
    name = "sample-mixture"
    op = "trajectory or CLI exit"
    # solve_flat, the denoiser's vector ops, CSV formatting
    probe_mix = ("scalar", "vector", "cholesky")

    @staticmethod
    def inputs(seed: int) -> dict:
        """The sample config: toy_sample.json settings over generated points."""
        cfg_seed, data_seed = _seeds(seed, 2)
        points = np.random.default_rng(data_seed).standard_normal((N_POINTS, DIM))
        return {"seed": cfg_seed, "points": points.tolist(),
                "sampling": {"steps": SAMPLE_STEPS, "n_samples": N_SAMPLES}}

    def __init__(self, root: Path, seed: int, work: Path):
        with open(root / "configs" / "toy_sample.json") as fh:
            cfg = json.load(fh)
        gen = self.inputs(seed)
        cfg["seed"] = gen["seed"]
        cfg["points"] = gen["points"]
        cfg["sampling"].update(gen["sampling"])
        self.points = np.asarray(gen["points"])
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "sample_config.json"
        with open(self.config_path, "w") as fh:
            json.dump(cfg, fh)
        self.out = work / "sample_out"

    def unit(self) -> dict:
        t0 = time.perf_counter()
        code = cli.main(["sample", "--config", str(self.config_path),
                         "--out", str(self.out)])
        t1 = time.perf_counter()
        return {"wall_s": t1 - t0, "exit": code, **self._read_samples()}

    def _read_samples(self) -> dict:
        """Row count, per-row endpoint error and a digest of samples.csv."""
        path = self.out / "samples.csv"
        if not path.is_file():
            return {"rows": 0, "err": [], "digest": None}
        raw = path.read_bytes()
        rows = [line.split(",")[1:] for line in raw.decode().splitlines()[1:]]
        ends = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
        err = [math.nan] * len(rows)
        if ends.shape[1] == DIM:
            # per-coordinate RMS distance to the nearest point, over the data RMS
            dist = np.sqrt(((ends[:, None, :] - self.points[None]) ** 2)
                           .mean(axis=2)).min(axis=1)
            err = (dist / np.sqrt(np.mean(self.points ** 2))).tolist()
        return {"rows": len(rows), "err": err,
                "digest": hashlib.sha256(raw).hexdigest()}

    def summarize(self, units: list) -> dict:
        bad_exits = sum(1 for u in units if u["exit"] != 0)
        # a missing, non-finite or stray endpoint fails its trajectory
        bad_traj = sum(N_SAMPLES - sum(1 for e in u["err"] if e <= ENDPOINT_TOL)
                       for u in units)
        err = units[0]["err"]
        return {
            **_timings(units),
            "attempted": len(units) * (N_SAMPLES + 1),
            "failed": bad_exits + bad_traj,
            "named": {
                "samples_per_s": (statistics.median(
                    N_SAMPLES / u["wall_s"] for u in units), "1/s"),
                "sample_endpoint_err": (statistics.fmean(err) if err
                                        else math.inf, "ratio"),
            },
            "checks": {
                "CLI exits 0": bad_exits == 0,
                "samples.csv has one row per sample": all(
                    u["rows"] == N_SAMPLES for u in units),
                "every endpoint finite": all(
                    math.isfinite(e) for u in units for e in u["err"]),
                f"every endpoint within {ENDPOINT_TOL} of a data point":
                    bad_traj == 0,
                "same samples.csv in every unit": len(
                    {u["digest"] for u in units}) == 1,
            },
        }


class VerifyAll(Workload):
    name = "verify-all"
    op = "verify check"
    min_units = len(SUITES)
    # verify's own loops, Schedule calls, numpy calls at d = 2
    probe_mix = ("scalar", "vector")

    @staticmethod
    def inputs(seed: int) -> int:
        return seed

    def __init__(self, root: Path, seed: int, work: Path):
        # The score suite imports scipy.stats on first use.  A user pays that
        # once per process, so it belongs to set-up, not to every timed pass.
        import scipy.stats  # noqa: F401
        self.seed = self.inputs(seed)

    def _run(self, suite: str) -> dict:
        t0 = time.perf_counter()
        report = verify.run_suite(suite, self.seed)
        return {"suite": suite, "wall_s": time.perf_counter() - t0,
                "report": report}

    def unit(self) -> dict:
        """One pass over all suites, in order."""
        runs = [self._run(suite) for suite in SUITES]
        return {"wall_s": sum(r["wall_s"] for r in runs), "runs": runs}

    def with_traced(self, units: list, traced) -> list:
        return units + [{**r, "probe_s": traced["probe_s"]}
                        for r in traced["runs"]]

    def _next(self, i: int) -> dict:
        """Suites round-robin, one suite per timed unit.

        Per-suite granularity keeps the overshoot past the window to one
        suite; every suite runs at least once.
        """
        return self._run(SUITES[i % len(SUITES)])

    def summarize(self, runs: list) -> dict:
        by_suite = {s: [r for r in runs if r["suite"] == s] for s in SUITES}
        per_suite = {s: _timings(by_suite[s]) for s in SUITES}
        first = [by_suite[s][0]["report"] for s in SUITES]
        n_checks = sum(len(r.checks) for r in first)
        passed = sum(1 for r in first for c in r.checks if c.passed)
        names = [c.name for r in first for c in r.checks]
        return {
            "wall_s": sum(t["wall_s"] for t in per_suite.values()),
            "scaled_wall_s": sum(t["scaled_wall_s"]
                                 for t in per_suite.values()),
            "unit_wall_s": [r["wall_s"] for r in runs],
            "unit_probe_s": [r["probe_s"] for r in runs],
            "attempted": sum(len(r["report"].checks) for r in runs),
            "failed": sum(1 for r in runs for c in r["report"].checks
                          if not c.passed),
            "named": {
                "verify_checks_passed": (passed, "count"),
                "verify_checks_run": (n_checks, "count"),
                **{f"verify.{s}.median_s": (per_suite[s]["wall_s"], "s")
                   for s in SUITES},
            },
            "checks": {
                "the program has exactly these suites":
                    tuple(verify.SUITE_NAMES) == SUITES,
                "every suite reports a check": all(r.checks for r in first),
                "check names are unique": len(names) == len(set(names)),
                "every check passes": passed == n_checks,
                "same report from every repeat of a suite": all(
                    len({r["report"].to_json() for r in by_suite[s]}) == 1
                    for s in SUITES),
            },
        }


WORKLOADS = {w.name: w for w in (TrainRestore, SampleMixture, VerifyAll)}
