"""Run configuration: one JSON file, deep-merged over defaults.

Every command reads the sections it needs from a single config dict.  Every
key, in a file or an override, must name a key of ``DEFAULTS``: an unknown
one (a typo such as ``training.stpes``) is refused with the nearest known
key, since it would otherwise be ignored and the run would quietly use the
default.  ``--set a.b.c=value`` overrides follow JSON value syntax with a
bare-string fallback, so ``--set training.steps=200`` and
``--set task.kind=streaks`` both do the obvious thing.

Per-task defaults: the mediator eta and the training objective follow the
task kind unless the config pins them explicitly (smooth-field runs the
maximally stochastic eta = 0 with noise prediction; the residual tasks run
eta = 10 with their weighted / direct objectives).
"""

from __future__ import annotations

import copy
import difflib
import json
import math
from pathlib import Path

from .bases import BasisSet, legendre_trig_basis, pixel_basis
from .fields import Rng
from .process import DiffusionProcess
from .samplers import GRID_SCHEMES
from .schedules import Schedule, make_ddpm_schedule, make_vp_schedule
from .tasks import gen_residual_task, gen_smooth_field_task, task_residual_basis


class ConfigError(ValueError):
    """Bad config file, bad override, or a value the builders cannot use."""


DEFAULTS = {
    "seed": 0,
    "schedule": {"kind": "vp-continuous", "beta_min": 1.0e-4,
                 "beta_max": 0.02, "T": 100.0},
    "process": {"eta": None},
    "basis": {"kind": None, "n1": 3, "n2": 5},
    "task": {"kind": "smooth-field", "size": 16},
    "points": None,
    "network": {"hidden": [64, 64]},
    "training": {"steps": 2000, "batch": 4, "lr": 1.0e-3, "optimizer": "adam",
                 "beta1": 0.9, "beta2": 0.999, "eps": 1.0e-8,
                 "objective": None, "time_dist": "continuous", "seed": 1,
                 "lr_decay": 1.0, "lr_decay_every": 0, "ema_decay": 0.0},
    "sampling": {"steps": 5, "scheme": "uniform", "n_samples": 4,
                 "final_denoise": False},
    "simulate": {"n_paths": 1000, "n_steps": 256},
    "restore": {"denoiser": "train", "checkpoint": None},
    "case3": {"eta_grid": [0.0, 1.0, 10.0, 100.0, 1.0e9],
              "n_draws": 100000, "poisson_lambda": 4.0},
}

_TASK_ETA = {"smooth-field": 0.0, "streaks": 10.0, "shadow-box": 10.0}
_TASK_OBJECTIVE = {"smooth-field": "noise-pred",
                   "streaks": "weighted-noise-pred",
                   "shadow-box": "x0-pred"}


def _deep_merge(base: dict, update: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in update.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _dotted_keys(node: dict, prefix: str = "") -> list:
    """Every dotted key path of a nested dict, sections included."""
    out = []
    for key, val in node.items():
        out.append(prefix + key)
        if isinstance(val, dict):
            out += _dotted_keys(val, prefix + key + ".")
    return out


_KNOWN_KEYS = _dotted_keys(DEFAULTS)


def _check_keys(user: dict, defaults: dict = DEFAULTS, prefix: str = "") -> None:
    """ConfigError naming the first key of user that DEFAULTS does not have."""
    for key, val in user.items():
        path = prefix + str(key)
        if key not in defaults:
            near = difflib.get_close_matches(path, _KNOWN_KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {path!r}{hint}")
        known = defaults[key]
        if isinstance(val, dict):
            # a plain value has no keys below it
            _check_keys(val, known if isinstance(known, dict) else {},
                        path + ".")
        elif isinstance(known, dict):
            raise ConfigError(f"config key {path!r} must be an object, "
                              f"got {val!r}")


def load_config(path) -> dict:
    """Read one JSON config file and merge it over the defaults."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    _check_keys(user)
    return _deep_merge(DEFAULTS, user)


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply dotted-path key=value overrides in order."""
    for item in assignments or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects dotted.key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        nested = value
        for part in reversed(parts):
            nested = {part: nested}
        _check_keys(nested)
        node = cfg
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"--set path {key!r} crosses the scalar {part!r}")
            node = nxt
        node[parts[-1]] = value
    return cfg


def _count(value) -> int:
    """int(value) for an integral number; int() alone would truncate 2.9."""
    n = int(value)
    if n != value:
        raise ValueError("expected an integer")
    return n


def _lookup(cfg: dict, path: str):
    node = cfg
    for key in path.split("."):
        node = node[key]
    return node


def _config_count(cfg: dict, path: str, minimum: int = 0) -> int:
    """The count at a dotted config path; a bad value is a ConfigError
    that names the path."""
    node = _lookup(cfg, path)
    try:
        n = _count(node)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} = {node!r}: {exc}") from exc
    if n < minimum:
        raise ConfigError(f"{path} = {n} must be at least {minimum}")
    return n


def _config_float(cfg: dict, path: str, positive: bool = False) -> float:
    """The finite number >= 0 (> 0 if positive) at a dotted config path; a
    bad value is a ConfigError that names the path."""
    node = _lookup(cfg, path)
    try:
        x = float(node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} = {node!r}: {exc}") from exc
    if not math.isfinite(x) or x < 0 or (positive and x == 0):
        need = "positive" if positive else "non-negative"
        raise ConfigError(f"{path} = {x!r} must be finite and {need}")
    return x


_SCHEDULES = {"vp-continuous": make_vp_schedule,
              "vp-ddpm": make_ddpm_schedule}


def build_schedule(cfg: dict) -> Schedule:
    kind = cfg["schedule"].get("kind", "vp-continuous")
    if kind not in _SCHEDULES:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    beta_min = _config_float(cfg, "schedule.beta_min", positive=True)
    beta_max = _config_float(cfg, "schedule.beta_max", positive=True)
    if beta_max < beta_min:
        raise ConfigError(f"schedule.beta_max = {beta_max!r} must be at least "
                          f"schedule.beta_min = {beta_min!r}")
    T = _config_float(cfg, "schedule.T", positive=True)
    return _SCHEDULES[kind](beta_min, beta_max, T)


def build_fixed_basis(cfg: dict, shape, default_kind="legendre-trig") -> BasisSet:
    kind = cfg["basis"].get("kind") or default_kind
    if kind == "legendre-trig":
        return legendre_trig_basis(_config_count(cfg, "basis.n1"),
                                   _config_count(cfg, "basis.n2", 2), shape)
    if kind == "pixel":
        return pixel_basis(shape)
    raise ConfigError(f"unknown basis kind {kind!r}")


def build_task(cfg: dict):
    """(task, basis) from the task section; deterministic in cfg['seed']."""
    kind = cfg["task"].get("kind")
    size = _config_count(cfg, "task.size", 1)
    rng = Rng(int(cfg["seed"]), 0)
    if kind == "smooth-field":
        basis = build_fixed_basis(cfg, (size, size))
        return gen_smooth_field_task((size, size), basis, rng), basis
    if kind in ("streaks", "shadow-box"):
        task = gen_residual_task((size, size), kind, rng)
        return task, task_residual_basis(task)
    raise ConfigError(f"unknown task kind {kind!r}")


def resolved_eta(cfg: dict) -> float:
    if cfg["process"].get("eta") is None:
        return float(_TASK_ETA.get(cfg["task"].get("kind"), 0.0))
    return _config_float(cfg, "process.eta")


def resolved_scheme(cfg: dict) -> str:
    """sampling.scheme, checked before any work is done."""
    scheme = cfg["sampling"]["scheme"]
    if scheme not in GRID_SCHEMES:
        raise ConfigError(f"sampling.scheme = {scheme!r} must be one of "
                          f"{', '.join(GRID_SCHEMES)}")
    return scheme


def resolved_objective(cfg: dict) -> str:
    obj = cfg["training"].get("objective")
    if obj is None:
        obj = _TASK_OBJECTIVE.get(cfg["task"].get("kind"), "noise-pred")
    return obj


def build_process(cfg: dict, basis: BasisSet) -> DiffusionProcess:
    return DiffusionProcess(build_schedule(cfg), basis, resolved_eta(cfg))
