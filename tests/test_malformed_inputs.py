"""Malformed model files and a bad --parallel are rejected with errors that
name the file or the key."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from olala.fl import load_model, save_model
from olala.models import ModelArch, init_params


def _model_blob(tmp_path) -> bytes:
    arch = ModelArch("linear", (4, 3))
    path = tmp_path / "ok.bin"
    save_model(arch, init_params(arch, seed=1), str(path))
    return path.read_bytes()


def _load(tmp_path, blob):
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    return str(path)


def test_unknown_kind_code_is_a_value_error(tmp_path):
    blob = bytearray(_model_blob(tmp_path))
    struct.pack_into("<I", blob, 4, 9)
    path = _load(tmp_path, bytes(blob))
    with pytest.raises(ValueError, match="unknown model kind code 9") as info:
        load_model(path)
    assert str(info.value).startswith(path)


@pytest.mark.parametrize("cut", [10, 14, 22])
def test_blob_cut_inside_header_or_widths_is_a_value_error(tmp_path, cut):
    path = _load(tmp_path, _model_blob(tmp_path)[:cut])
    with pytest.raises(ValueError, match="cut short") as info:
        load_model(path)
    assert str(info.value).startswith(path)


def test_huge_width_count_is_a_value_error(tmp_path):
    blob = bytearray(_model_blob(tmp_path))
    struct.pack_into("<I", blob, 8, 10**6)
    path = _load(tmp_path, bytes(blob))
    with pytest.raises(ValueError, match="cut short") as info:
        load_model(path)
    assert str(info.value).startswith(path)


@pytest.mark.parametrize("cut", [3, 8])
def test_blob_cut_inside_parameters_is_a_value_error(tmp_path, cut):
    path = _load(tmp_path, _model_blob(tmp_path)[:-cut])
    with pytest.raises(ValueError, match="parameter count mismatch") as info:
        load_model(path)
    assert str(info.value).startswith(path)


def test_widths_that_do_not_fit_the_kind_name_the_file(tmp_path):
    blob = bytearray(_model_blob(tmp_path))
    struct.pack_into("<I", blob, 4, 1)  # mlp over a linear model's two widths
    path = _load(tmp_path, bytes(blob))
    with pytest.raises(ValueError, match="mlp model expects 4 widths, got \\(4, 3\\)") as info:
        load_model(path)
    assert str(info.value).startswith(path)


def test_widths_that_disagree_with_the_parameter_count_are_rejected(tmp_path):
    blob = bytearray(_model_blob(tmp_path))
    struct.pack_into("<I", blob, 16, 4)  # widths (4, 4) need 20 parameters; 15 are stored
    path = _load(tmp_path, bytes(blob))
    with pytest.raises(ValueError, match="need 20 parameters, the file holds 15") as info:
        load_model(path)
    assert str(info.value).startswith(path)


def test_intact_blob_still_loads(tmp_path):
    arch, params = load_model(_load(tmp_path, _model_blob(tmp_path)))
    assert arch == ModelArch("linear", (4, 3))
    assert np.array_equal(params, init_params(arch, seed=1))


def test_cli_parallel_zero_exits_2_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ)
    env.pop("OLALA_SIM_SEED", None)
    r = subprocess.run(
        [sys.executable, "-m", "olala.cli", "run", "--parallel", "0", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 2, r.stderr
    assert "parallel: must be >= 1, got 0" in r.stderr
    assert not out.exists()
