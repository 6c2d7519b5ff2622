"""Option domains with one owner, the task loss kept off the pooled offline
learner, and IDX pixels scaled by their type rather than by each file."""

import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import olala.checks as checks
from olala.config import parse_config
from olala.data import load_idx_dataset, write_idx
from olala.errors import ConfigError
from olala.fl import FIXED_GENERATORS
from olala.learning import OVERLOAD_MODES, LearnerConfig


@pytest.mark.parametrize("users", ["1", "2", "5"])
def test_static_global_rejects_the_task_loss(users):
    with pytest.raises(ConfigError, match=r"^loss_kind: "):
        parse_config(overrides=["quantizer=static_global", "loss_kind=task", f"U={users}"])


def test_cli_rejects_static_global_task_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ)
    env.pop("OLALA_SIM_SEED", None)
    r = subprocess.run(
        [sys.executable, "-m", "olala.cli", "run", "--set", "quantizer=static_global",
         "--set", "loss_kind=task", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("config error: loss_kind: ")
    assert not out.exists()


def test_task_sweep_over_the_default_grid_fails_before_any_run(tmp_path, monkeypatch, capsys):
    import olala.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_fl", lambda cfg: calls.append(cfg))
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--set", "loss_kind=task", "--out", str(out)])
    assert code == 2
    assert "config error: loss_kind: " in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    assert calls == []


def test_overload_modes_have_one_owner():
    for mode in OVERLOAD_MODES:
        LearnerConfig(overload_mode=mode)
        parse_config(overrides=[f"overload_mode={mode}"])
    with pytest.raises(ValueError, match=r"^unknown overload_mode 'clip'$"):
        LearnerConfig(overload_mode="clip")
    with pytest.raises(ConfigError, match=r"^overload_mode: unknown mode 'clip'$"):
        parse_config(overrides=["overload_mode=clip"])


def test_learner_config_has_no_support_radius_knob():
    with pytest.raises(TypeError):
        LearnerConfig(gamma=2.0)


def test_fixed_quantizer_dimension_comes_from_its_generator(monkeypatch):
    with pytest.raises(ConfigError, match=r"^L: quantizer=fixed_hex is a 2-D lattice, got L=3$"):
        parse_config(overrides=["quantizer=fixed_hex", "L=3"])
    monkeypatch.setitem(FIXED_GENERATORS, "fixed_hex", np.eye(3))
    parse_config(overrides=["quantizer=fixed_hex", "L=3", "R=2"])
    with pytest.raises(ConfigError, match=r"^L: quantizer=fixed_hex is a 3-D lattice, got L=2$"):
        parse_config(overrides=["quantizer=fixed_hex"])


def _budgets_seen(monkeypatch):
    seen = []
    real = checks.minimal_enclosing_radius

    def spy(shape, count):
        seen.append(count)
        return real(shape, count)

    monkeypatch.setattr(checks, "minimal_enclosing_radius", spy)
    return seen


@pytest.mark.parametrize("rate, budget", [(2.0, 16), (3.0, 64)])
def test_check_budgets_at_the_suites_rates(monkeypatch, rate, budget):
    seen = _budgets_seen(monkeypatch)
    hexagonal = checks.GEN_HEXAGONAL / np.sqrt(abs(np.linalg.det(checks.GEN_HEXAGONAL)))
    report = checks.check_gamma_scaling(hexagonal, rate, [1.0, 2.0], n=2000)
    assert report.measured["budget"] == budget
    checks.check_shape_comparison(hexagonal, np.eye(2), rate, 1.0, n=2000)
    assert seen == [budget] * 3


def test_check_budgets_floor_at_a_fractional_rate_as_the_codec_does(monkeypatch):
    seen = _budgets_seen(monkeypatch)
    report = checks.check_gamma_scaling(np.eye(1), 2.5, [1.0], n=2000)
    assert report.measured["budget"] == 5  # floor(2^2.5) = floor(5.66)
    checks.check_shape_comparison(np.eye(1), np.eye(1), 2.5, 1.0, n=2000)
    assert seen == [5] * 3


def _idx_pair(tmp_path, name, images):
    ipath, lpath = str(tmp_path / f"{name}-images.idx"), str(tmp_path / f"{name}-labels.idx")
    write_idx(ipath, images)
    write_idx(lpath, np.arange(images.shape[0]) % 10)
    return ipath, lpath


def test_idx_uint8_pixels_are_scaled_by_255(tmp_path):
    images = np.random.default_rng(0).integers(0, 128, (50, 4, 4)).astype(np.uint8)
    images[0, 0, 0] = 127
    ds = load_idx_dataset(*_idx_pair(tmp_path, "dark", images))
    assert ds.features.max() == 127 / 255
    assert np.array_equal(ds.features, images.reshape(50, 16) / 255.0)


def test_idx_train_and_test_files_share_one_scale(tmp_path):
    images = np.random.default_rng(1).integers(0, 256, (40, 3, 3)).astype(np.uint8)
    images[0, 0, 0] = 255
    train = load_idx_dataset(*_idx_pair(tmp_path, "train", images))
    test = load_idx_dataset(*_idx_pair(tmp_path, "test", images // 2))
    assert train.features.max() == 1.0 and test.features.max() == 127 / 255
    assert np.array_equal(test.features, (images // 2).reshape(40, 9) / 255.0)


def _float_idx(path, values):
    values = np.asarray(values, dtype=">f4")
    header = struct.pack(f">BBBB{values.ndim}I", 0, 0, 0x0D, values.ndim, *values.shape)
    with open(path, "wb") as fh:
        fh.write(header + values.tobytes())


def test_idx_float_pixels_load_as_stored_and_out_of_range_ones_raise(tmp_path):
    lpath = str(tmp_path / "labels.idx")
    write_idx(lpath, np.array([0, 1], dtype=np.uint8))
    ok = str(tmp_path / "ok.idx")
    _float_idx(ok, [[0.25, 0.5], [0.0, 1.0]])
    ds = load_idx_dataset(ok, lpath)
    assert np.array_equal(ds.features, np.array([[0.25, 0.5], [0.0, 1.0]]))
    bad = str(tmp_path / "bright.idx")
    _float_idx(bad, [[0.25, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^" + re.escape(bad) + ": "):
        load_idx_dataset(bad, lpath)
