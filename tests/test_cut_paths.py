"""What the program no longer accepts or special-cases: the theory checks'
tolerances are module constants no caller can pass, count_codewords_at_most
and build_lattice have no enumeration cap of their own, and the codebook
lookup reads a shuffled codebook's indices from its box table."""

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
    "build_lattice enum_cap": lambda: build_lattice(np.eye(2), 3.0, enum_cap=10**6),
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
    bound, table = shuffled.lookup
    radix = (2 * bound + 1) ** np.arange(dim - 1, -1, -1)
    ids = (shuffled.index_set + bound) @ radix
    expect = np.full((2 * bound + 1) ** dim, -1)
    expect[ids] = np.arange(lat.size)
    assert np.array_equal(table, expect)

    xs = 1.2 * gamma * (2.0 * np.random.default_rng(1).random((1000, dim)) - 1.0)
    got = quantize_batch(shuffled, xs)
    dist = ((xs[:, None, :] - shuffled.codebook[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(got, np.argmin(dist, axis=1))
    assert np.array_equal(shuffled.codebook[got], lat.codebook[quantize_batch(lat, xs)])


def test_lookup_table_holds_the_lowest_of_repeated_indices():
    # A hand-built codebook that lists some coefficient vectors twice, the
    # copies before and after their first listing.
    lat = build_lattice(0.1 * GEN_HEXAGONAL, 1.0)
    assert lat.size > 4 * 5**lat.dim  # quantize_batch looks indices up
    rows = np.concatenate([[7, 40], np.arange(lat.size), [3, 40, 90]])
    book = TruncatedLattice(
        gen=lat.gen, gamma=lat.gamma, index_set=lat.index_set[rows], codebook=lat.codebook[rows]
    )
    bound, table = book.lookup
    ids = (book.index_set + bound) @ ((2 * bound + 1) ** np.arange(lat.dim - 1, -1, -1))
    lowest = [np.flatnonzero(rows == r)[0] for r in rows]
    assert np.array_equal(table[ids], lowest)
    assert table[ids[[0, 1, 9, 42, 92]]].tolist() == [0, 1, 0, 1, 92]
    assert np.count_nonzero(table >= 0) == lat.size

    xs = lat.codebook + 1e-3
    dist = ((xs[:, None, :] - book.codebook[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(quantize_batch(book, xs), np.argmin(dist, axis=1))
