"""Config parsing/validation and the command-line surface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from olala.config import ExperimentConfig, parse_config
from olala.errors import ConfigError

CLI = [sys.executable, "-m", "olala.cli"]

TINY = [
    "--set", "rounds=2", "--set", "local_steps=8",
    "--set", "synthetic_train_size=300", "--set", "synthetic_test_size=100",
]


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("OLALA_SIM_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + args, capture_output=True, text=True, env=env, cwd=cwd)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(str(path))
    assert cfg == ExperimentConfig()


def test_file_and_overrides_merge(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("R = 2.5\nU = 4\n# comment\nquantizer = fixed_hex\n")
    cfg = parse_config(str(path), ["R=3", "L=2", "quantizer=olala"])
    assert cfg.rate == 3.0
    assert cfg.n_users == 4  # from file, not overridden
    assert cfg.quantizer == "olala"


def test_validation_names_offending_key():
    with pytest.raises(ConfigError, match="^R"):
        parse_config(None, ["R=-1"])
    with pytest.raises(ConfigError, match="^quantizer"):
        parse_config(None, ["quantizer=bogus"])
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config(None, ["no_such_key=1"])
    with pytest.raises(ConfigError, match="^train_images"):
        parse_config(None, ["dataset=idx"])
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(None, ["rounds=many"])


def test_validation_rejects_fixed_quantizer_off_2d():
    # The stock fixed generators are 2-D; other L used to die mid-run.
    with pytest.raises(ConfigError, match="^L"):
        parse_config(None, ["quantizer=fixed_hex", "L=3"])
    assert parse_config(None, ["quantizer=olala", "L=3"]).lattice_dim == 3


def test_validation_rejects_fewer_than_three_classes():
    # The class-window partition needs three classes; two used to die mid-run.
    with pytest.raises(ConfigError, match="^n_classes"):
        parse_config(None, ["n_classes=2"])
    assert parse_config(None, ["n_classes=3"]).n_classes == 3


def test_lattice_lr_auto():
    cfg = parse_config(None, ["lattice_lr=auto"])
    assert cfg.lattice_lr is None
    cfg = parse_config(None, ["lattice_lr=0.001"])
    assert cfg.lattice_lr == 0.001


def test_cli_run_twice_identical_bytes(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        r = run_cli(["run", "--out", str(out), "--seed", "3"] + TINY)
        assert r.returncode == 0, r.stderr
    for name in ("rounds.csv", "lattices.jsonl", "model.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_seed_precedence(tmp_path):
    # --seed beats the environment fallback
    o1, o2, o3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    r = run_cli(["run", "--out", str(o1), "--seed", "5"] + TINY,
                env_extra={"OLALA_SIM_SEED": "9"})
    assert r.returncode == 0
    r = run_cli(["run", "--out", str(o2)] + TINY, env_extra={"OLALA_SIM_SEED": "5"})
    assert r.returncode == 0
    r = run_cli(["run", "--out", str(o3)] + TINY, env_extra={"OLALA_SIM_SEED": "9"})
    assert r.returncode == 0
    assert (o1 / "rounds.csv").read_bytes() == (o2 / "rounds.csv").read_bytes()
    assert (o1 / "rounds.csv").read_bytes() != (o3 / "rounds.csv").read_bytes()


def test_cli_sweep_cartesian_rows(tmp_path):
    out = tmp_path / "sw"
    r = run_cli(["sweep", "rates=2,3", "quantizers=fixed_hex,none", "--out", str(out)] + TINY)
    assert r.returncode == 0, r.stderr
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "quantizer,R,final_accuracy,final_snr_db"
    assert len(lines) == 1 + 4  # header + 2x2 cartesian


def test_cli_sweep_parallel_matches_serial(tmp_path):
    o1, o2 = tmp_path / "p1", tmp_path / "p2"
    args = ["sweep", "rates=2,3", "quantizers=fixed_hex,none"]
    r = run_cli(args + ["--out", str(o1), "--parallel", "4"] + TINY)
    assert r.returncode == 0, r.stderr
    r = run_cli(args + ["--out", str(o2)] + TINY)
    assert r.returncode == 0
    assert (o1 / "sweep.csv").read_bytes() == (o2 / "sweep.csv").read_bytes()


def test_cli_sweep_rejects_invalid_entry_before_running(tmp_path, monkeypatch, capsys):
    import olala.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_fl", lambda cfg: calls.append(cfg))
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--set", "L=3", "--set", "quantizers=olala,fixed_hex",
                     "--set", "rates=2", "--set", "rounds=1", "--out", str(out)])
    assert code == 2
    assert "config error: L: quantizer=fixed_hex" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    assert calls == []


def test_cli_config_error_exit_code():
    r = run_cli(["run", "--config", "/definitely/not/here"])
    assert r.returncode == 2
    assert "config error" in r.stderr
    r = run_cli(["run", "R=-3"])
    assert r.returncode == 2


def test_cli_checks_writes_report_and_exit_code(tmp_path):
    out = tmp_path / "chk"
    fast = [
        "--set", "check_sdq_samples=5000", "--set", "check_distortion_trials=5000",
        "--set", "check_convergence_rounds=300", "--set", "check_convergence_seeds=4",
        "--set", "check_gamma_samples=20000",
    ]
    r = run_cli(["checks", "--out", str(out)] + fast)
    payload = json.loads((out / "checks.json").read_text())
    names = {c["name"] for c in payload["checks"]}
    assert "convergence_rate" in names and "gamma_scaling_hexagonal" in names
    controls = [c for c in payload["checks"] if c["negative_control"]]
    assert controls, "negative controls must be present"
    # exit code mirrors the non-control verdicts only
    expect = 0 if payload["all_passed"] else 1
    assert r.returncode == expect
    non_control_ok = all(c["passed"] for c in payload["checks"] if not c["negative_control"])
    assert payload["all_passed"] == non_control_ok


def test_cli_checks_deterministic_bytes(tmp_path):
    fast = [
        "--set", "check_sdq_samples=4000", "--set", "check_distortion_trials=4000",
        "--set", "check_convergence_rounds=200", "--set", "check_convergence_seeds=3",
        "--set", "check_gamma_samples=10000",
    ]
    o1, o2 = tmp_path / "c1", tmp_path / "c2"
    run_cli(["checks", "--out", str(o1)] + fast)
    run_cli(["checks", "--out", str(o2)] + fast)
    assert (o1 / "checks.json").read_bytes() == (o2 / "checks.json").read_bytes()


def test_cli_failure_removes_partial_outputs(tmp_path):
    out = tmp_path / "fail"
    # idx dataset with missing files passes validation only if paths are set;
    # point them at nonexistent files so run_fl raises after startup
    r = run_cli([
        "run", "--out", str(out),
        "--set", "dataset=idx",
        "--set", "train_images=/nope.idx", "--set", "train_labels=/nope.idx",
        "--set", "test_images=/nope.idx", "--set", "test_labels=/nope.idx",
    ])
    assert r.returncode == 1
    assert not (out / "rounds.csv").exists()
    assert not (out / "model.bin").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    # Only the checks verb needs scipy.stats; run and sweep skip its import.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys, olala.cli; print('scipy.stats' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
