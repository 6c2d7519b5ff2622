"""validate() rejects rates whose codebook cannot be enumerated."""

import os
import subprocess
import sys

import pytest

from olala.config import parse_config
from olala.errors import ConfigError

CLI = [sys.executable, "-m", "olala.cli"]


@pytest.mark.parametrize("overrides", [["R=30"], ["L=8", "R=130"], ["L=8", "R=3"], ["R=12"]])
def test_validation_rejects_rate_past_enumeration_cap(overrides):
    with pytest.raises(ConfigError, match="^R: .*enumeration cap"):
        parse_config(None, overrides)


def test_validation_keeps_rates_within_cap_and_uncompressed_runs():
    assert parse_config(None, ["R=11.5"]).rate == 11.5  # budget 2^23 + 1 < 10^7
    assert parse_config(None, ["L=6", "R=3"]).rate == 3.0
    assert parse_config(None, ["quantizer=none", "R=30"]).rate == 30.0  # no codebook


def _cli(args):
    env = dict(os.environ)
    env.pop("OLALA_SIM_SEED", None)
    return subprocess.run(CLI + args, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("overrides", [["R=30"], ["L=8", "R=130"]])
def test_cli_rejects_rate_past_enumeration_cap_before_running(tmp_path, overrides):
    out = tmp_path / "out"
    args = ["run", "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    r = _cli(args)
    assert r.returncode == 2, r.stderr
    assert "config error: R:" in r.stderr
    assert not out.exists() or not any(out.iterdir())


def test_cli_sweep_rejects_rate_past_enumeration_cap_before_running(tmp_path):
    r = _cli(["sweep", "--out", str(tmp_path), "--set", "rates=2,30", "--set", "rounds=1"])
    assert r.returncode == 2, r.stderr
    assert "config error: R:" in r.stderr
    assert not (tmp_path / "sweep.csv").exists()
