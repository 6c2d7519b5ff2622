"""Configs that cannot run are rejected up front with the key named, and an
IDX run sizes the model's first layer from the images it reads."""

import os
import subprocess
import sys

import numpy as np
import pytest

from olala.config import CONFIG_KEYS, parse_config
from olala.data import write_idx
from olala.errors import ConfigError
from olala.fl import load_model, run_fl, save_model

FLOAT_KEYS = [key for key, (_, kind) in CONFIG_KEYS.items() if kind in ("float", "lr")]


@pytest.mark.parametrize("item", ["model_lr=inf", "lattice_lr=inf", "synthetic_noise=nan"])
def test_non_finite_float_is_rejected_naming_the_key(item):
    key = item.split("=")[0]
    with pytest.raises(ConfigError, match=rf"^{key}: must be finite, got"):
        parse_config(overrides=[item])


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_every_float_key_rejects_non_finite_values(key, value):
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        parse_config(overrides=[f"{key}={value}"])


def test_existing_messages_come_first():
    with pytest.raises(ConfigError, match=r"^R: must be positive, got nan$"):
        parse_config(overrides=["R=nan"])


@pytest.mark.parametrize("item", ["model_lr=inf", "lattice_lr=inf", "synthetic_noise=nan"])
def test_cli_rejects_non_finite_float_and_writes_nothing(tmp_path, item):
    out = tmp_path / "out"
    env = dict(os.environ)
    env.pop("OLALA_SIM_SEED", None)
    r = subprocess.run(
        [sys.executable, "-m", "olala.cli", "run", "--set", item, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
    assert r.stderr.startswith(f"config error: {item.split('=')[0]}: must be finite")
    assert not out.exists()


def _idx_files(tmp_path, test_side=8):
    gen = np.random.default_rng(0)
    arrays = {
        "train_images": gen.integers(0, 256, (600, 8, 8)),
        "train_labels": gen.integers(0, 10, 600),
        "test_images": gen.integers(0, 256, (200, test_side, test_side)),
        "test_labels": gen.integers(0, 10, 200),
    }
    overrides = ["dataset=idx", "quantizer=fixed_hex", "rounds=1"]
    for key, arr in arrays.items():
        path = tmp_path / f"{key}.idx"
        write_idx(str(path), arr)
        overrides.append(f"{key}={path}")
    return overrides


def test_idx_run_sizes_first_layer_from_image_width(tmp_path):
    cfg = parse_config(overrides=_idx_files(tmp_path))
    result = run_fl(cfg)
    assert result.arch.widths[0] == 64
    assert cfg.input_dim == 0  # the caller's config is left as it was
    assert len(result.records) == 1
    path = str(tmp_path / "model.bin")
    save_model(result.arch, result.params, path)
    arch, params = load_model(path)
    assert arch == result.arch
    assert np.array_equal(params, result.params)


def test_idx_run_rejects_test_images_of_another_width(tmp_path):
    cfg = parse_config(overrides=_idx_files(tmp_path, test_side=7))
    with pytest.raises(ValueError, match=r"width 49.*64"):
        run_fl(cfg)
