"""Inputs that used to fail deep inside a run, or pass silently, are
rejected up front with the input named: a client partition that leaves a
shard empty, and theory-check generators that do not fit the problem.  A
zero noise draw still gives a unit direction."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import olala.checks as checks
import olala.fl as fl
from olala import rng
from olala.config import parse_config
from olala.data import partition_dataset
from olala.errors import ConfigError
from olala.lattice import GEN_HEXAGONAL

EMPTY_SHARD = ["U=40", "synthetic_train_size=30"]


def test_empty_shard_is_rejected_before_any_training(monkeypatch):
    cfg = parse_config(overrides=EMPTY_SHARD)  # validate() accepts it

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the partition was checked")

    monkeypatch.setattr(fl, "local_train", no_training)
    message = r"^U: client (\d+) of 40 gets none of the 30 samples$"
    with pytest.raises(ConfigError, match=message) as exc:
        fl.run_fl(cfg)
    client = int(re.search(r"client (\d+)", str(exc.value)).group(1))
    train, _ = fl._build_dataset(cfg)
    shards = partition_dataset(train, 40, seed=rng.derive_seed(cfg.master_seed, rng.TAG_DATA, 1))
    assert shards[client].size == 0
    assert all(s.size > 0 for s in shards[:client])


def test_empty_shard_is_rejected_before_any_group_training(monkeypatch):
    # Rounds and static_global's offline phase train through fl._train_group,
    # not fl.local_train, so the guard must hold with both patched.
    cfg = parse_config(overrides=EMPTY_SHARD + ["quantizer=static_global"])

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the partition was checked")

    monkeypatch.setattr(fl, "local_train", no_training)
    monkeypatch.setattr(fl, "_train_group", no_training)
    with pytest.raises(ConfigError, match=r"^U: client (\d+) of 40 gets none of the 30 samples$"):
        fl.run_fl(cfg)


def test_cli_rejects_empty_shard_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ)
    env.pop("OLALA_SIM_SEED", None)
    args = [a for item in EMPTY_SHARD for a in ("--set", item)]
    r = subprocess.run(
        [sys.executable, "-m", "olala.cli", "run", *args, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 1
    assert r.stderr.startswith("error: U: client ")
    assert list(out.iterdir()) == []


def _problem(dim=4, n_users=2):
    return checks.make_problem(dim, n_users, seed=1)


HARNESSES = {
    "distortion_bound": lambda p, g: checks.check_distortion_bound(p, g, 500, moment_samples=2000),
    "convergence_rate": lambda p, g: checks.check_convergence_rate(
        p, g, 20, 2, moment_samples=2000
    ),
}
HEX = 0.25 * GEN_HEXAGONAL


@pytest.mark.parametrize("harness", HARNESSES.values(), ids=HARNESSES.keys())
@pytest.mark.parametrize("count", [1, 3])
def test_check_needs_one_generator_per_user(harness, count):
    with pytest.raises(ValueError, match=rf"^{count} generators for 2 users: need one per user$"):
        harness(_problem(), [HEX] * count)


@pytest.mark.parametrize("harness", HARNESSES.values(), ids=HARNESSES.keys())
def test_check_needs_one_lattice_dimension(harness):
    message = r"^generators must share one lattice dimension, got \[2, 4\]$"
    with pytest.raises(ValueError, match=message):
        harness(_problem(), [HEX, 0.25 * np.eye(4)])


@pytest.mark.parametrize("harness", HARNESSES.values(), ids=HARNESSES.keys())
def test_check_needs_problem_dim_a_multiple_of_lattice_dim(harness):
    with pytest.raises(ValueError, match=r"^problem dim 3 is not a multiple of lattice dim 2$"):
        harness(_problem(dim=3), [HEX, HEX])


@pytest.mark.parametrize("m", [1, 3])
def test_zero_noise_draw_gives_a_unit_direction(monkeypatch, m):
    real = rng.normal_block

    def with_zero_row(seed_a, seed_b, count):
        z = real(seed_a, seed_b, count)
        z[m : 2 * m] = 0.0  # the second direction's draw
        return z

    problem = checks.make_problem(m, 2, seed=3)
    expect = problem.noise_dirs(0, 9, 5)
    monkeypatch.setattr(rng, "normal_block", with_zero_row)
    dirs = problem.noise_dirs(0, 9, 5)
    assert np.array_equal(dirs[1], np.eye(m)[0])
    assert np.array_equal(np.delete(dirs, 1, axis=0), np.delete(expect, 1, axis=0))
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
