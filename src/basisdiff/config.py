"""Run configuration: one JSON file over defaults, checked against one table.

``SCHEMA`` has one row per dotted key, ``(default, kind, least, most)``, and
``DEFAULTS`` is built from it, so no key exists without a rule; a None
default also allows null.  A ranged key takes its ``(kind, least, most)``
from the row beside the library function that reads it, the training keys
from ``training.TRAINING``; only ``cli`` imports this module.
``fields.cast`` checks one value against a row, ``value`` one key and
``check`` every key; a refusal names the key (and a list index).

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
from pathlib import Path

from .bases import (LEGENDRE_N1, LEGENDRE_N2, BasisSet, legendre_trig_basis,
                    pixel_basis, residual_basis)
from .denoisers import WIDTHS
from .fields import SEED, ConfigError, Rng, cast
from .process import SDE_COUNT, DiffusionProcess
from .samplers import GRID_SCHEME
from .schedules import (BETA, ETA, HORIZON, Schedule, make_ddpm_schedule,
                        make_vp_schedule)
from .tasks import (CASE3_DRAWS, CASE3_ETAS, EXTENT, POISSON_LAM_MAX,
                    RESTORE_STEPS, gen_residual_task, gen_smooth_field_task)
from .training import TRAINING

_SCHEDULES = {"vp-continuous": make_vp_schedule,
              "vp-ddpm": make_ddpm_schedule}
_TASK_ETA = {"smooth-field": 0.0, "streaks": 10.0, "shadow-box": 10.0}
_TASK_OBJECTIVE = {"smooth-field": "noise-pred",
                   "streaks": "weighted-noise-pred",
                   "shadow-box": "x0-pred"}

SCHEMA = {
    "seed": (0, *SEED),
    "schedule.kind": ("vp-continuous", tuple(_SCHEDULES), None, None),
    "schedule.beta_min": (1.0e-4, *BETA),
    "schedule.beta_max": (0.02, *BETA),
    "schedule.T": (100.0, *HORIZON),
    "process.eta": (None, *ETA),
    "basis.kind": (None, ("legendre-trig", "pixel"), None, None),
    "basis.n1": (3, *LEGENDRE_N1),
    "basis.n2": (5, *LEGENDRE_N2),
    "task.kind": ("smooth-field", tuple(_TASK_ETA), None, None),
    "task.size": (16, *EXTENT),
    "points": (None, [[float]], None, None),
    "network.hidden": ([64, 64], *WIDTHS),
    **{"training." + key: (default, *TRAINING[key]) for key, default in {
        "steps": 2000, "batch": 4, "lr": 1.0e-3, "optimizer": "adam",
        "beta1": 0.9, "beta2": 0.999, "eps": 1.0e-8, "objective": None,
        "time_dist": "continuous", "seed": 1, "lr_decay": 1.0,
        "lr_decay_every": 0, "ema_decay": 0.0}.items()},
    "sampling.steps": (5, *RESTORE_STEPS),
    "sampling.scheme": ("uniform", *GRID_SCHEME),
    "sampling.n_samples": (4, int, 0, None),
    "simulate.n_paths": (1000, *SDE_COUNT),
    "simulate.n_steps": (256, *SDE_COUNT),
    "restore.denoiser": ("train", ("train", "checkpoint", "oracle-clean"),
                         None, None),
    "restore.checkpoint": (None, str, None, None),
    "case3.eta_grid": ([0.0, 1.0, 10.0, 100.0, 1.0e9], *CASE3_ETAS),
    "case3.n_draws": (100000, *CASE3_DRAWS),
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
    return cfg


def build_schedule(cfg: dict) -> Schedule:
    beta_min = value(cfg, "schedule.beta_min")
    beta_max = value(cfg, "schedule.beta_max")
    if beta_max < beta_min:
        raise ConfigError(f"schedule.beta_max = {beta_max!r} must be at least "
                          f"schedule.beta_min = {beta_min!r}")
    return _SCHEDULES[value(cfg, "schedule.kind")](
        beta_min, beta_max, value(cfg, "schedule.T"))


def build_fixed_basis(cfg: dict, shape) -> BasisSet:
    if value(cfg, "basis.kind") == "pixel":
        return pixel_basis(shape)
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
