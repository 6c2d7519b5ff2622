"""Dither positions and moment sample counts are checked where they enter:
a negative position names its argument, and a gamma-check sample count
below second_moment's floor is a config error."""

import os
import subprocess
import sys

import pytest

from olala.config import ExperimentConfig
from olala.errors import ConfigError
from olala.lattice import GEN_HEXAGONAL
from olala.sdq import DitherStream, dithers_at


@pytest.mark.parametrize(
    "start, count, name", [(0, -1, "count"), (-2, 3, "start"), (-1, -1, "start")]
)
def test_dithers_at_rejects_a_negative_position(start, count, name):
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        dithers_at(5, GEN_HEXAGONAL, start, count)


def test_dither_stream_rejects_a_negative_counter():
    with pytest.raises(ValueError, match="counter must be >= 0"):
        DitherStream(5, GEN_HEXAGONAL, counter=-1)


def test_dither_stream_draw_rejects_a_negative_count_and_keeps_its_counter():
    stream = DitherStream(5, GEN_HEXAGONAL, counter=4)
    with pytest.raises(ValueError, match="count must be >= 0"):
        stream.draw(-2)
    assert stream.counter == 4
    assert dithers_at(5, GEN_HEXAGONAL, 4, 0).shape == (0, 2)


def test_gamma_samples_below_the_moment_floor_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="check_gamma_samples"):
        ExperimentConfig(check_gamma_samples=999).validate()
    ExperimentConfig(check_gamma_samples=1000).validate()

    out = tmp_path / "out"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    r = subprocess.run(
        [sys.executable, "-m", "olala.cli", "checks", "--set", "check_gamma_samples=999",
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2
    assert r.stderr.startswith("config error: check_gamma_samples:")
    assert not (out / "checks.json").exists()
