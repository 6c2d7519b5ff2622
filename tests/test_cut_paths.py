"""What the program no longer accepts or special-cases: the theory checks'
tolerances are module constants no caller can pass, count_codewords_at_most
has no enumeration cap of its own, and the codebook lookup always goes
through its sort permutation."""

import numpy as np
import pytest

import olala.checks as checks
from olala.lattice import (
    GEN_HEXAGONAL,
    TruncatedLattice,
    build_lattice,
    count_codewords_at_most,
    quantize_batch,
)

UNIT_HEX = GEN_HEXAGONAL / np.sqrt(np.linalg.det(GEN_HEXAGONAL))
SKEWED_3D = np.array([[1.0, 0.3, -0.2], [0.1, 0.8, 0.4], [-0.3, 0.2, 1.1]])


def _problem():
    return checks.make_problem(2, 2, seed=1)


def _gens():
    return [0.25 * GEN_HEXAGONAL, 0.25 * GEN_HEXAGONAL]


REMOVED = {
    "corr_tol": lambda: checks.check_sdq_error_stats(np.eye(2), 4.0, 2000, corr_tol=1.0),
    "mean_sigmas": lambda: checks.check_sdq_error_stats(np.eye(2), 4.0, 2000, mean_sigmas=9.0),
    "distortion se_sigmas": lambda: checks.check_distortion_bound(
        _problem(), _gens(), 1000, se_sigmas=9.0
    ),
    "slope_window": lambda: checks.check_convergence_rate(
        _problem(), _gens(), 40, 3, slope_window=(-9.0, 9.0)
    ),
    "gamma_scaling se_sigmas": lambda: checks.check_gamma_scaling(
        UNIT_HEX, 2.0, [1.0, 2.0], 1000, se_sigmas=9.0
    ),
    "shape_comparison se_sigmas": lambda: checks.check_shape_comparison(
        UNIT_HEX, np.eye(2), 3.0, 1.0, 1000, se_sigmas=9.0
    ),
    "center_spread": lambda: checks.make_problem(2, 2, center_spread=2.0),
    "enum_cap": lambda: count_codewords_at_most(np.eye(2), 3.0, 100, enum_cap=10),
}


@pytest.mark.parametrize("call", REMOVED.values(), ids=REMOVED.keys())
def test_removed_keyword_is_a_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()


def test_reports_record_the_fixed_tolerances():
    reports = [
        checks.check_sdq_error_stats(np.eye(2), 4.0, 2000, seed=1),
        checks.check_distortion_bound(_problem(), _gens(), 1000, seed=2, moment_samples=2000),
        checks.check_convergence_rate(_problem(), _gens(), 40, 3, seed=3, moment_samples=2000),
        checks.check_gamma_scaling(UNIT_HEX, 2.0, [1.0, 2.0], 1000, seed=4),
        checks.check_shape_comparison(UNIT_HEX, np.eye(2), 3.0, 1.0, 1000, seed=5),
    ]
    assert [r.tolerances for r in reports] == [
        {"mean_sigmas": 4.0, "corr_tol": 0.02, "chi_quantile": 0.999},
        {"se_sigmas": 5.0},
        {"slope_window": [-1.3, -0.7]},
        {"se_sigmas": 3.0},
        {"se_sigmas": 3.0},
    ]
    assert reports[2].inequalities[0] == {
        "name": "slope_in_window", "lhs": reports[2].measured["slope"], "op": "in",
        "rhs": [-1.3, -0.7],
    }


@pytest.mark.parametrize(
    "gen, gamma",
    [(0.1 * GEN_HEXAGONAL, 1.0), (SKEWED_3D, 7.0)],
    ids=["hexagonal", "skewed_3d"],
)
def test_lookup_on_a_shuffled_codebook(gen, gamma):
    lat = build_lattice(gen, gamma)
    dim = lat.dim
    assert lat.size > 4 * 5**dim  # quantize_batch looks indices up
    perm = np.random.default_rng(0).permutation(lat.size)
    shuffled = TruncatedLattice(
        gen=lat.gen, gamma=lat.gamma, index_set=lat.index_set[perm], codebook=lat.codebook[perm]
    )
    _, ids, index = shuffled.lookup
    assert not np.array_equal(index, np.arange(lat.size))
    assert np.array_equal(shuffled.index_set[index], lat.index_set)
    assert np.all(ids[1:] > ids[:-1])

    xs = 1.2 * gamma * (2.0 * np.random.default_rng(1).random((1000, dim)) - 1.0)
    got = quantize_batch(shuffled, xs)
    dist = ((xs[:, None, :] - shuffled.codebook[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(got, np.argmin(dist, axis=1))
    assert np.array_equal(shuffled.codebook[got], lat.codebook[quantize_batch(lat, xs)])
