import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import json_like

from basisdiff.config import (DEFAULTS, SCHEMA, ConfigError, apply_overrides,
                              build_fixed_basis, build_process,
                              build_schedule, build_task, check, load_config,
                              resolved_eta, resolved_objective, value)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_train_config_fields_are_the_training_rows():
    # a new training field cannot skip the table, nor a row its field
    import dataclasses
    from basisdiff.training import TRAINING, TrainConfig
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    assert names == set(TRAINING) == {
        path.partition(".")[2] for path in SCHEMA
        if path.startswith("training.")}


@pytest.mark.parametrize("path,owner,row", [
    ("seed", "fields", "SEED"), ("training.seed", "fields", "SEED"),
    ("schedule.beta_min", "schedules", "BETA"),
    ("schedule.beta_max", "schedules", "BETA"),
    ("schedule.T", "schedules", "HORIZON"), ("process.eta", "schedules", "ETA"),
    ("basis.n1", "bases", "LEGENDRE_N1"), ("basis.n2", "bases", "LEGENDRE_N2"),
    ("sampling.scheme", "samplers", "GRID_SCHEME"),
    ("simulate.n_paths", "process", "SDE_COUNT"),
    ("simulate.n_steps", "process", "SDE_COUNT"),
    ("case3.eta_grid", "tasks", "CASE3_ETAS"),
    ("case3.n_draws", "tasks", "CASE3_DRAWS"),
    ("task.size", "tasks", "EXTENT"),
    ("network.hidden", "denoisers", "WIDTHS"),
    ("sampling.steps", "tasks", "RESTORE_STEPS"),
    *(("training." + key, "training", "TRAINING")
      for key in ("steps", "batch", "lr", "optimizer", "beta1", "beta2",
                  "eps", "objective", "time_dist", "seed", "lr_decay",
                  "lr_decay_every", "ema_decay"))])
def test_schema_rows_are_the_library_rows(path, owner, row):
    # a key a library function reads takes that function's row, so the
    # config and the library cannot drift apart; a table of rows is read
    # at the key's last part
    import importlib
    want = getattr(importlib.import_module(f"basisdiff.{owner}"), row)
    if isinstance(want, dict):
        want = want[path.rpartition(".")[2]]
    assert SCHEMA[path][1:] == want


def test_load_merges_over_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"training": {"batch": 9}}))
    cfg = load_config(path)
    assert cfg["training"]["batch"] == 9
    assert cfg["training"]["lr"] == DEFAULTS["training"]["lr"]
    assert cfg["schedule"] == DEFAULTS["schedule"]


def test_load_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(arr)


def test_overrides_parse_json_with_string_fallback():
    cfg = load_config(CONFIGS / "smooth_field.json")
    cfg = apply_overrides(cfg, ["training.lr=0.5", "task.kind=streaks",
                                "network.hidden=[1,2]",
                                "restore.checkpoint=plain"])
    assert cfg["training"]["lr"] == 0.5
    assert cfg["task"]["kind"] == "streaks"
    assert cfg["network"]["hidden"] == [1, 2]
    assert cfg["restore"]["checkpoint"] == "plain"


def test_override_errors():
    cfg = load_config(CONFIGS / "smooth_field.json")
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["training.steps"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["seed.nested=1"])  # crosses a scalar


def test_unknown_override_key_names_the_nearest_known_key():
    cfg = load_config(CONFIGS / "smooth_field.json")
    with pytest.raises(ConfigError, match=r"'training\.stpes'.*'training\.steps'"):
        apply_overrides(cfg, ["training.stpes=3"])
    assert "stpes" not in cfg["training"]
    with pytest.raises(ConfigError, match=r"'seed\.nested'"):
        apply_overrides(cfg, ["seed.nested=1"])  # no keys below a value
    with pytest.raises(ConfigError, match=r"'sampling\.nsamples'"):
        apply_overrides(cfg, ['sampling={"steps": 3, "nsamples": 2}'])


def test_unknown_file_key_is_refused(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"training": {"batch": 9, "lr_decy": 0.5}}))
    with pytest.raises(ConfigError, match=r"'training\.lr_decy'.*'training\.lr_decay'"):
        load_config(path)
    path.write_text(json.dumps({"schedule": 5}))
    with pytest.raises(ConfigError, match="'schedule' must be an object"):
        load_config(path)


def test_shipped_configs_use_only_known_keys():
    for path in sorted(CONFIGS.glob("*.json")):
        load_config(path)


def test_schedule_builders():
    cfg = load_config(CONFIGS / "smooth_field.json")
    sched = build_schedule(cfg)
    assert sched.s(cfg["schedule"]["T"]) == 1.0
    cfg["schedule"]["kind"] = "vp-ddpm"
    assert build_schedule(cfg).s(100.0) < 1.0
    cfg["schedule"]["kind"] = "cosine"
    with pytest.raises(ConfigError):
        build_schedule(cfg)


def test_basis_builders():
    cfg = {"basis": {"kind": "pixel", "n1": 3, "n2": 5}}
    assert build_fixed_basis(cfg, (2, 2)).M == 4
    cfg["basis"]["kind"] = None
    assert build_fixed_basis(cfg, (4, 4)).M == 162
    cfg["basis"]["kind"] = "wavelet"
    with pytest.raises(ConfigError):
        build_fixed_basis(cfg, (2, 2))


def test_task_builders_are_deterministic():
    cfg = load_config(CONFIGS / "smooth_field.json")
    cfg["task"]["size"] = 8
    (task_a, basis_a), (task_b, _) = build_task(cfg), build_task(cfg)
    assert np.array_equal(task_a.clean.values, task_b.clean.values)
    assert basis_a.shape == (8, 8)
    cfg["task"]["kind"] = "streaks"
    # smooth_field.json's basis.kind has no meaning for a residual task
    with pytest.raises(ConfigError, match="basis.kind"):
        build_task(cfg)
    cfg["basis"]["kind"] = None
    task, basis = build_task(cfg)
    assert task.mask is not None and basis.M == 1
    assert np.array_equal(basis.elements()[0],
                          task.degraded.flat() - task.clean.flat())
    cfg["task"]["kind"] = "mystery"
    with pytest.raises(ConfigError):
        build_task(cfg)


def test_eta_resolution():
    cfg = {"process": {"eta": 3.5}, "task": {"kind": "smooth-field"}}
    assert resolved_eta(cfg) == 3.5
    cfg["process"]["eta"] = None
    assert resolved_eta(cfg) == 0.0
    cfg["task"]["kind"] = "streaks"
    assert resolved_eta(cfg) == 10.0
    cfg["process"]["eta"] = -1.0
    with pytest.raises(ConfigError):
        resolved_eta(cfg)


@pytest.mark.parametrize("path,value", [
    ("task.size", 2.5), ("task.size", 0), ("basis.n1", 2.5),
    ("basis.n2", 2.5), ("basis.n2", 1), ("schedule.T", "abc"),
    ("schedule.T", float("inf")), ("schedule.beta_min", 0.0),
    ("schedule.beta_max", 1e-5), ("process.eta", "abc"),
    ("process.eta", float("nan"))])
def test_builders_name_the_bad_key(path, value):
    cfg = load_config(CONFIGS / "smooth_field.json")
    section, key = path.split(".")
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=re.escape(path)):
        _, basis = build_task(cfg)
        build_process(cfg, basis)


def test_objective_resolution():
    cfg = {"training": {"objective": "x0-pred"}, "task": {"kind": "streaks"}}
    assert resolved_objective(cfg) == "x0-pred"
    cfg["training"]["objective"] = None
    assert resolved_objective(cfg) == "weighted-noise-pred"
    cfg["task"]["kind"] = "shadow-box"
    assert resolved_objective(cfg) == "x0-pred"
    cfg["task"]["kind"] = "smooth-field"
    assert resolved_objective(cfg) == "noise-pred"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(SCHEMA)), json_like)
def test_any_value_of_any_key_passes_or_names_the_key(key, val):
    cfg = load_config(CONFIGS / "smooth_field.json")
    try:
        check(apply_overrides(cfg, [f"{key}={json.dumps(val)}"]))
    except ConfigError as exc:
        assert key in str(exc)


def test_check_casts_in_place():
    cfg = apply_overrides(load_config(CONFIGS / "toy_sample.json"),
                          ["sampling.steps=3.0", "points=[[1, 2.5]]"])
    assert check(cfg) is cfg
    steps, points = cfg["sampling"]["steps"], cfg["points"]
    assert steps == 3 and type(steps) is int
    assert points == [[1.0, 2.5]] and type(points[0][0]) is float
    assert cfg["process"]["eta"] == 0.0
    assert cfg["training"]["objective"] is None


def test_defaults_come_from_the_table():
    assert check(copy.deepcopy(DEFAULTS)) == DEFAULTS
    for path, row in SCHEMA.items():
        assert value(DEFAULTS, path) == row[0]
