"""The convergence check's stacked rounds: noise and dithers drawn and
folded _ROUND_CHUNK rounds at a time, every user of a round quantized in
one slot-axis search.  Pinned against the per-round, per-user loop, with
the seed-sequence draws against the scalar ones, the horizon floor and
memory that does not grow with the horizon."""

import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import olala.checks as checks
from olala import rng
from olala.config import CONVERGENCE_WINDOWS, ExperimentConfig
from olala.errors import ConfigError
from olala.lattice import GEN_A2, GEN_HEXAGONAL

CHUNK = checks._ROUND_CHUNK
SKEWED_2D = np.array([[1.0, 0.62], [0.18, 0.83]])
GENS = [0.25 * GEN_HEXAGONAL, 0.3 * np.eye(2), 0.2 * GEN_A2, 0.28 * SKEWED_2D]


def _per_round_gaps(problem, gens, invs, w0, etas, n_seeds, seed, gamma_u):
    """The check's descent as it ran before stacking: one round at a time,
    one user at a time, each drawing its own noise and dithers."""
    m, n_users = problem.dim, problem.n_users
    dim = gens[0].shape[0]
    ws = np.tile(w0, (n_seeds, 1))
    gaps = np.zeros((len(etas), n_seeds))
    f_opt = problem.global_value(problem.w_opt)
    for t in range(1, len(etas) + 1):
        gaps[t - 1] = problem.global_value_batch(ws) - f_opt
        avg_q = np.zeros((n_seeds, m))
        for u in range(n_users):
            g = (ws - problem.centers[u]) @ problem.a_mats[u].T
            dirs = problem.noise_dirs(u, rng.derive_seed(seed, 41, t), n_seeds)
            ghat = g + problem.sigma_users[u] * dirs
            blocks = ghat.reshape(n_seeds * (m // dim), dim)
            d, l_inf = checks._dithered_points(
                gens[u], invs[u], blocks, rng.derive_seed(seed, 42, t, u)
            )
            pts = l_inf @ gens[u].T
            if not (np.linalg.norm(pts, axis=1) <= gamma_u).all():
                raise RuntimeError("overload in convergence check harness")
            avg_q += (pts - d).reshape(n_seeds, m)
        ws = ws - etas[t - 1] * (avg_q / n_users)
    return gaps


def _report_json(monkeypatch, descent, horizon, n_seeds=3):
    problem = checks.make_problem(8, 4, seed=11, sigma_scale=0.8)
    with monkeypatch.context() as mp:
        mp.setattr(checks, "_descent_gaps", descent)
        rep = checks.check_convergence_rate(
            problem, GENS, horizon, n_seeds, seed=5, moment_samples=1000
        )
    return json.dumps(rep.to_dict(), sort_keys=True)


@pytest.mark.parametrize("horizon", [20, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_stacked_rounds_report_what_the_per_round_loop_reports(monkeypatch, horizon):
    stacked = _report_json(monkeypatch, checks._descent_gaps, horizon)
    assert stacked == _report_json(monkeypatch, _per_round_gaps, horizon)


def test_stacked_gaps_equal_the_per_round_loop_bit_for_bit():
    problem = checks.make_problem(8, 4, seed=2, sigma_scale=0.8)
    gens, invs, _ = checks._user_generators(problem, GENS)
    _, _, etas = checks.step_size_schedule(problem, CHUNK + 7)
    w0 = problem.w_opt + 0.35
    args = (problem, gens, invs, w0, etas, 4, 17, 40.0)
    assert checks._descent_gaps(*args).tobytes() == _per_round_gaps(*args).tobytes()


SEEDS = [0, 7, 2**61 + 5, 2**64 - 1]


@pytest.mark.parametrize("count", [1, 3, 160, 1001])
def test_seed_sequence_rows_equal_the_scalar_draws(count):
    block = rng.stream_unit_block(SEEDS, 5, count)
    assert block.shape == (len(SEEDS), count)
    for row, seed in zip(block, SEEDS):
        assert row.tobytes() == rng.stream_unit_block(seed, 5, count).tobytes()
    seeds_b = SEEDS[::-1]
    normal = rng.normal_block(SEEDS, seeds_b, count)
    assert normal.shape == (len(SEEDS), count)
    for row, a, b in zip(normal, SEEDS, seeds_b):
        assert row.tobytes() == rng.normal_block(a, b, count).tobytes()


def test_scalar_draws_keep_one_dimension():
    assert rng.stream_unit_block(7, 0, 3).shape == (3,)
    assert rng.normal_block(7, 8, 3).shape == (3,)


def test_noise_dirs_of_a_seed_sequence_are_each_seeds_own():
    problem = checks.make_problem(8, 4, seed=3)
    seeds = [rng.derive_seed(9, 41, t) for t in range(1, 6)]
    stacked = problem.noise_dirs(2, seeds, 7)
    assert stacked.shape == (5, 7, 8)
    for got, seed in zip(stacked, seeds):
        assert got.tobytes() == problem.noise_dirs(2, seed, 7).tobytes()


def test_horizon_below_the_window_count_is_refused():
    problem = checks.make_problem(8, 4, seed=4, sigma_scale=0.8)
    with pytest.raises(ValueError, match=r"^horizon must be >= 20, .* got 19$"):
        checks.check_convergence_rate(problem, GENS, 19, 3, seed=1, moment_samples=1000)


def test_horizon_of_twenty_runs_without_warnings():
    problem = checks.make_problem(8, 4, seed=4, sigma_scale=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = checks.check_convergence_rate(problem, GENS, 20, 3, seed=1, moment_samples=1000)
    assert rep.sample_counts["rounds"] == 20
    assert all(np.isfinite(i["lhs"]) for i in rep.inequalities)


def test_config_refuses_fewer_rounds_than_windows():
    assert CONVERGENCE_WINDOWS == 20
    with pytest.raises(ConfigError, match=r"^check_convergence_rounds: must be >= 20, got 19$"):
        ExperimentConfig(check_convergence_rounds=19).validate()
    ExperimentConfig(check_convergence_rounds=20).validate()


def test_cli_refuses_a_three_round_check(tmp_path):
    r = subprocess.run(
        [sys.executable, "-m", "olala.cli", "checks", "--out", str(tmp_path),
         "--set", "check_convergence_rounds=3"],
        capture_output=True, text=True,
    )
    assert r.returncode == 2, r.stderr
    assert "check_convergence_rounds: must be >= 20, got 3" in r.stderr
    assert not (tmp_path / "checks.json").exists()


def _traced_peak(horizon):
    problem = checks.make_problem(8, 4, seed=6, sigma_scale=0.8)
    tracemalloc.start()
    try:
        checks.check_convergence_rate(problem, GENS, horizon, 20, seed=3, moment_samples=1000)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_horizon():
    short, long = _traced_peak(2 * CHUNK), _traced_peak(8 * CHUNK)
    assert long - short < 1_000_000, (short, long)
