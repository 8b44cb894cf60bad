"""Run configuration: one JSON file over defaults, checked against one table.

``SCHEMA`` has one row per dotted key, ``(default, kind, least, most)``, and
``DEFAULTS`` is built from it, so no key exists without a rule.  A kind is
int, float, bool or str, a tuple of allowed names, or ``[kind]`` for a list
(a list of lists needs rows of one length, at least 1); least and most bound
each number, and a None default also allows null.  ``cast`` checks one
value against a row, so ``TrainConfig`` checks its fields against the
training rows; ``value`` checks one key and ``check`` every key; a refusal
names the key (and a list index).

An unknown key, in a file or an override (a typo such as
``training.stpes``), is refused with the nearest known key, since it would
otherwise be ignored.  ``--set a.b.c=value`` overrides follow JSON value
syntax with a bare-string fallback, so ``--set training.steps=200`` and
``--set task.kind=streaks`` both do the obvious thing.

Per-task defaults: the mediator eta and the training objective follow the
task kind unless the config pins them explicitly (smooth-field runs the
maximally stochastic eta = 0 with noise prediction; the residual tasks run
eta = 10 with their weighted / direct objectives).
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from .bases import BasisSet, legendre_trig_basis, pixel_basis, residual_basis
from .fields import Rng
from .process import DiffusionProcess
from .samplers import GRID_SCHEMES
from .schedules import Schedule, make_ddpm_schedule, make_vp_schedule
from .tasks import (CASE3_MIN_DRAWS, POISSON_LAM_MAX, gen_residual_task,
                    gen_smooth_field_task)


class ConfigError(ValueError):
    """Bad config file, bad override, or a value the builders cannot use."""


_SCHEDULES = {"vp-continuous": make_vp_schedule,
              "vp-ddpm": make_ddpm_schedule}
_TASK_ETA = {"smooth-field": 0.0, "streaks": 10.0, "shadow-box": 10.0}
_TASK_OBJECTIVE = {"smooth-field": "noise-pred",
                   "streaks": "weighted-noise-pred",
                   "shadow-box": "x0-pred"}
_POSITIVE = math.ulp(0.0)  # as a least: every float above zero
_BELOW_ONE = math.nextafter(1.0, 0.0)  # as a most: every float below one
OBJECTIVES = ("mse-x0", "noise-pred", "weighted-noise-pred", "x0-pred")

SCHEMA = {
    "seed": (0, int, 0, 2 ** 64 - 1),  # half of the Philox key
    "schedule.kind": ("vp-continuous", tuple(_SCHEDULES), None, None),
    "schedule.beta_min": (1.0e-4, float, _POSITIVE, None),
    "schedule.beta_max": (0.02, float, _POSITIVE, None),
    "schedule.T": (100.0, float, _POSITIVE, None),
    "process.eta": (None, float, 0, None),
    "basis.kind": (None, ("legendre-trig", "pixel"), None, None),
    "basis.n1": (3, int, 0, None),
    "basis.n2": (5, int, 2, None),
    "task.kind": ("smooth-field", tuple(_TASK_ETA), None, None),
    "task.size": (16, int, 1, None),
    "points": (None, [[float]], None, None),
    "network.hidden": ([64, 64], [int], 1, None),
    "training.steps": (2000, int, 1, None),
    "training.batch": (4, int, 1, None),
    "training.lr": (1.0e-3, float, 0, None),
    "training.optimizer": ("adam", ("adam", "sgd"), None, None),
    # Adam's folded bias correction needs 1 - beta2^k > 0, so beta2 < 1;
    # an EMA decay of 1 would never move off the initial weights
    "training.beta1": (0.9, float, 0, _BELOW_ONE),
    "training.beta2": (0.999, float, 0, _BELOW_ONE),
    "training.eps": (1.0e-8, float, _POSITIVE, None),
    "training.objective": (None, OBJECTIVES, None, None),
    "training.time_dist": ("continuous", ("continuous", "discrete"), None,
                           None),
    "training.seed": (1, int, 0, 2 ** 64 - 1),
    "training.lr_decay": (1.0, float, _POSITIVE, None),
    "training.lr_decay_every": (0, int, 0, None),
    "training.ema_decay": (0.0, float, 0, _BELOW_ONE),
    "sampling.steps": (5, int, 0, None),
    "sampling.scheme": ("uniform", GRID_SCHEMES, None, None),
    "sampling.n_samples": (4, int, 0, None),
    "sampling.final_denoise": (False, bool, None, None),
    "simulate.n_paths": (1000, int, 1, None),
    "simulate.n_steps": (256, int, 1, None),
    "restore.denoiser": ("train", ("train", "checkpoint", "oracle-clean",
                                   "analytic"), None, None),
    "restore.checkpoint": (None, str, None, None),
    "case3.eta_grid": ([0.0, 1.0, 10.0, 100.0, 1.0e9], [float], 0, None),
    "case3.n_draws": (100000, int, CASE3_MIN_DRAWS, None),
    "case3.poisson_lambda": (4.0, float, 0, POISSON_LAM_MAX),
}


def _nest(flat: dict) -> dict:
    """The nested dict of a {dotted key: value} one."""
    out = {}
    for path, val in flat.items():
        head, _, key = path.rpartition(".")
        (out.setdefault(head, {}) if head else out)[key] = val
    return out


DEFAULTS = _nest({path: row[0] for path, row in SCHEMA.items()})


def _merge(cfg: dict, user: dict, prefix: str = "") -> None:
    """Set each leaf of user into cfg, refusing a key that has no row."""
    for key, val in user.items():
        path = prefix + str(key)
        if isinstance(DEFAULTS.get(path), dict):  # a section
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path!r} must be an object, "
                                  f"got {val!r}")
            _merge(cfg.setdefault(key, {}), val, path + ".")
        elif path in SCHEMA:
            if isinstance(val, dict):  # a plain value has no keys below it
                _merge({}, val, path + ".")
            cfg[key] = val
        else:
            import difflib  # only a refusal reads it, so it loads here
            near = difflib.get_close_matches(path, [*SCHEMA, *DEFAULTS], n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {path!r}{hint}")


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
    cfg = copy.deepcopy(DEFAULTS)
    _merge(cfg, user)
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply dotted-path key=value overrides in order."""
    for item in assignments or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects dotted.key=value, got {item!r}")
        try:
            nested = json.loads(raw)
        except json.JSONDecodeError:
            nested = raw
        for part in reversed(key.split(".")):
            nested = {part: nested}
        _merge(cfg, nested)
    return cfg


def cast(x, kind, least, most, path: str):
    """x as a value of kind within [least, most]; else a ConfigError (a
    ValueError) whose message starts with path."""
    if isinstance(kind, list):
        if not isinstance(x, list):
            raise ConfigError(f"{path} = {x!r} must be a list")
        if (kind[0] is float and least is None and most is None
                and set(map(type, x)) <= {float}
                and all(map(math.isfinite, x))):
            return x  # a row of finite floats, as points has, is cast already
        try:
            out = [cast(v, kind[0], least, most, path) for v in x]
        except ConfigError:
            for i, v in enumerate(x):  # again, to name the entry
                cast(v, kind[0], least, most, f"{path}.{i}")
        rows = {len(row) for row in out} if isinstance(kind[0], list) else {1}
        if len(rows) > 1 or 0 in rows:
            raise ConfigError(f"{path} rows must share one length >= 1")
        return out
    if isinstance(kind, tuple):
        ok, need = x in kind, "one of " + ", ".join(kind)
    elif kind in (bool, str):
        ok, need = isinstance(x, kind), ("true or false" if kind is bool
                                         else "a string")
    else:  # a bool is no number, and an int key takes 3.0 but not 2.9
        need = "an integer" if kind is int else "a finite number"
        ok = (isinstance(x, (int, np.integer)) and type(x) is not bool
              or isinstance(x, (float, np.floating)) and (
                  float(x).is_integer() if kind is int else math.isfinite(x)))
    if not ok:
        raise ConfigError(f"{path} = {x!r} must be {need}")
    if kind not in (int, float):
        return x
    try:
        y = kind(x)
    except OverflowError:  # an int too large for a float
        raise ConfigError(f"{path} = {x!r} must be {need}") from None
    if least is not None and y < least:
        need = "positive" if least == _POSITIVE else f"at least {least!r}"
        raise ConfigError(f"{path} = {x!r} must be {need}")
    if most is not None and y > most:
        need = "below 1" if most == _BELOW_ONE else f"at most {most!r}"
        raise ConfigError(f"{path} = {x!r} must be {need}")
    return y


def value(cfg: dict, path: str):
    """One table key of cfg, cast to its kind and checked against its row."""
    default, kind, least, most = SCHEMA[path]
    head, _, key = path.rpartition(".")  # keys are one or two levels deep
    node = (cfg[head] if head else cfg)[key]
    if node is None and default is None:
        return None
    return cast(node, kind, least, most, path)


def check(cfg: dict) -> dict:
    """cfg with every table key cast and checked in place, so the commands
    read plain values; the first bad value is a ConfigError naming its key."""
    for path in SCHEMA:
        head, _, key = path.rpartition(".")
        (cfg[head] if head else cfg)[key] = value(cfg, path)
    T = cfg["schedule"]["T"]
    if (cfg["training"]["time_dist"] == "discrete"
            and not 1 <= round(T) <= 2 ** 63 - 1):
        raise ConfigError(f"training.time_dist = 'discrete' needs 1 <= "
                          f"round(schedule.T) <= 2**63 - 1, got {T!r}")
    return cfg


def build_schedule(cfg: dict) -> Schedule:
    beta_min = value(cfg, "schedule.beta_min")
    beta_max = value(cfg, "schedule.beta_max")
    if beta_max < beta_min:
        raise ConfigError(f"schedule.beta_max = {beta_max!r} must be at least "
                          f"schedule.beta_min = {beta_min!r}")
    return _SCHEDULES[value(cfg, "schedule.kind")](
        beta_min, beta_max, value(cfg, "schedule.T"))


def build_fixed_basis(cfg: dict, shape, default_kind="legendre-trig") -> BasisSet:
    kind = value(cfg, "basis.kind") or default_kind
    if kind == "pixel":
        return pixel_basis(shape)
    if len(shape) != 2:
        raise ConfigError(f"basis.kind = 'legendre-trig' needs 2-D fields; "
                          f"the points are {len(shape)}-D")
    return legendre_trig_basis(value(cfg, "basis.n1"), value(cfg, "basis.n2"),
                               shape)


def build_task(cfg: dict):
    """(task, basis) from the task section; deterministic in cfg['seed']."""
    kind = value(cfg, "task.kind")
    size = value(cfg, "task.size")
    rng = Rng(value(cfg, "seed"), 0)
    if kind == "smooth-field":
        basis = build_fixed_basis(cfg, (size, size))
        return gen_smooth_field_task((size, size), basis, rng), basis
    if value(cfg, "basis.kind") is not None:
        raise ConfigError(f"basis.kind does not apply to task.kind = {kind!r}, "
                          f"whose noise is its own residual basis")
    task = gen_residual_task((size, size), kind, rng)
    return task, residual_basis(task.clean, task.degraded)


def resolved_eta(cfg: dict) -> float:
    eta = value(cfg, "process.eta")
    if eta is None:
        return _TASK_ETA[value(cfg, "task.kind")]
    return eta


def resolved_objective(cfg: dict) -> str:
    obj = value(cfg, "training.objective")
    if obj is None:
        obj = _TASK_OBJECTIVE[value(cfg, "task.kind")]
    return obj


def build_process(cfg: dict, basis: BasisSet) -> DiffusionProcess:
    return DiffusionProcess(build_schedule(cfg), basis, resolved_eta(cfg))
