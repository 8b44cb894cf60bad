import json
import re
from pathlib import Path

import numpy as np
import pytest

from basisdiff.config import (ConfigError, DEFAULTS, apply_overrides,
                              build_fixed_basis, build_process,
                              build_schedule, build_task,
                              load_config, resolved_eta, resolved_objective)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert build_fixed_basis(cfg, (4, 4), default_kind="legendre-trig").M == 162
    cfg["basis"]["kind"] = "wavelet"
    with pytest.raises(ConfigError):
        build_fixed_basis(cfg, (2, 2))


def test_task_builders_are_deterministic():
    cfg = load_config(CONFIGS / "smooth_field.json")
    cfg["task"]["size"] = 8
    (task_a, basis_a), (task_b, _) = build_task(cfg), build_task(cfg)
    assert np.array_equal(task_a.clean.values, task_b.clean.values)
    assert basis_a.mode == "fixed" and basis_a.shape == (8, 8)
    cfg["task"]["kind"] = "streaks"
    task, basis = build_task(cfg)
    assert basis.mode == "sample-dependent" and task.mask is not None
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
