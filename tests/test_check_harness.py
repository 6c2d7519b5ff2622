"""The theory checks' quantizer harness: one validated generator and its
inverse per check, and the same dithers and nearest points as the public
functions."""

import numpy as np
import pytest

import olala.checks as checks
import olala.lattice as lattice
import olala.sdq as sdq
from olala.lattice import GEN_A2, GEN_D2, GEN_HEXAGONAL, nearest_point_batch
from olala.sdq import dithers_at

SKEWED_3D = np.array([[1.0, 0.7, -0.4], [0.2, 0.9, 0.8], [-0.5, 0.3, 1.3]])


@pytest.mark.parametrize(
    "gen", [np.eye(2), GEN_HEXAGONAL, GEN_D2, GEN_A2, SKEWED_3D],
    ids=["identity", "hexagonal", "d2", "a2", "skewed_3d"],
)
def test_dithered_points_match_public_functions_bit_for_bit(gen):
    dim = gen.shape[0]
    xs = 3.0 * (np.random.default_rng(5).random((4000, dim)) - 0.5)
    seed = 123456789
    d, ls = checks._dithered_points(gen, np.linalg.inv(gen), xs, seed)
    d_ref = dithers_at(seed, gen, 0, xs.shape[0])
    assert np.array_equal(d, d_ref)
    assert np.array_equal(ls, nearest_point_batch(gen, xs + d_ref))


def test_convergence_check_validates_and_inverts_each_generator_once(monkeypatch):
    counts = {"check_generator": 0, "inv": 0}
    real_check, real_inv = lattice.check_generator, np.linalg.inv

    def counted_check(gen):
        counts["check_generator"] += 1
        return real_check(gen)

    def counted_inv(a):
        counts["inv"] += 1
        return real_inv(a)

    for mod in (checks, lattice, sdq):
        monkeypatch.setattr(mod, "check_generator", counted_check)
    # The moment estimate draws its own dithers; only the rounds are counted.
    monkeypatch.setattr(checks, "second_moment", lambda gen, n, seed: (0.01, 0.0))
    problem = checks.make_problem(8, 4, seed=3, sigma_scale=0.8)
    gens = [0.25 * GEN_HEXAGONAL, 0.25 * np.eye(2), 0.325 * GEN_HEXAGONAL, 0.2875 * np.eye(2)]
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    checks.check_convergence_rate(problem, gens, horizon=40, n_seeds=3, seed=7)
    assert counts == {"check_generator": 4, "inv": 4}
