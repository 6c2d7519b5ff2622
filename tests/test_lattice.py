"""Geometry tests: enumeration, nearest point, quantization, serialization."""

import itertools

import numpy as np
import pytest

from olala.errors import GeometryError, ResourceLimitError
from olala.lattice import (
    GEN_A2,
    GEN_D2,
    GEN_HEXAGONAL,
    build_lattice,
    count_codewords_at_most,
    nearest_point,
    nearest_point_batch,
    pack_generator,
    pack_indices,
    quantize,
    quantize_batch,
    rate_of,
    unpack_generator,
    unpack_indices,
)


def brute_force_codebook(gen, gamma, reach=6):
    pts = []
    for l in itertools.product(range(-reach, reach + 1), repeat=gen.shape[0]):
        v = gen @ np.array(l, dtype=float)
        if np.linalg.norm(v) <= gamma:
            pts.append(tuple(l))
    return sorted(pts)


def test_unit_lattice_codebook():
    lat = build_lattice(np.eye(2), 1.0)
    assert lat.size == 5
    got = {tuple(p) for p in lat.codebook}
    assert got == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}


def test_scalar_lattice_codebook():
    lat = build_lattice(np.array([[1.0]]), 2.5)
    assert lat.codebook.ravel().tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_hexagonal_codebook_matches_brute_force():
    # Oracle: exhaustive enumeration over l in {-3..3}^2.
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    assert lat.size == 7
    assert sorted(map(tuple, lat.index_set)) == brute_force_codebook(GEN_HEXAGONAL, 1.0, 3)


def test_codebook_invariants():
    for gen in (np.eye(2), GEN_HEXAGONAL, GEN_D2, GEN_A2):
        lat = build_lattice(gen, 2.0)
        norms = np.linalg.norm(lat.codebook, axis=1)
        assert (norms <= 2.0 + 1e-12).all()
        assert any((l == 0).all() for l in lat.index_set)
        assert np.allclose(lat.codebook, lat.index_set @ gen.T)
        # ...and nothing in the search box was missed.
        assert sorted(map(tuple, lat.index_set)) == brute_force_codebook(gen, 2.0)


def test_lexicographic_codebook_order():
    lat = build_lattice(np.eye(2), 1.5)
    idx = [tuple(l) for l in lat.index_set]
    assert idx == sorted(idx)


def test_build_errors():
    with pytest.raises(GeometryError):
        build_lattice(np.array([[1.0, 2.0], [2.0, 4.0]]), 1.0)  # singular
    with pytest.raises(GeometryError):
        build_lattice(np.eye(2), -1.0)
    with pytest.raises(ResourceLimitError):
        build_lattice(0.0005 * np.eye(2), 1.0)


def test_count_codewords_early_exit():
    assert count_codewords_at_most(np.eye(2), 1.0, 3) == 4  # bails at limit+1
    assert count_codewords_at_most(np.eye(2), 1.0, 100) == 5


def test_nearest_point_trivial_cases():
    assert nearest_point(np.eye(2), [0.6, -0.2]).tolist() == [1, 0]
    assert nearest_point(np.eye(2), [0.0, 0.0]).tolist() == [0, 0]


def test_nearest_point_hexagonal_vs_brute_force():
    x = np.array([0.9, 0.5])
    best, best_l = None, None
    for l in itertools.product(range(-4, 5), repeat=2):
        d = np.linalg.norm(x - GEN_HEXAGONAL @ np.array(l, dtype=float))
        if best is None or d < best - 1e-12:
            best, best_l = d, l
    assert tuple(nearest_point(GEN_HEXAGONAL, x)) == best_l


@pytest.mark.parametrize("gen", [np.eye(2), GEN_HEXAGONAL, GEN_D2, GEN_A2,
                                 np.array([[1.0, 0.3, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]])])
def test_nearest_point_optimality_random(gen):
    # Babai + offset cube must agree with exhaustive search over {-5..5}^L.
    dim = gen.shape[0]
    rng_ = np.random.default_rng(0)
    xs = rng_.uniform(-2.0, 2.0, size=(1000, dim))
    got = nearest_point_batch(gen, xs)
    cand = np.array(list(itertools.product(range(-5, 6), repeat=dim)), dtype=float)
    pts = cand @ gen.T
    for i in range(0, 1000, 7):  # spot subsample keeps the oracle affordable
        d = np.linalg.norm(pts - xs[i], axis=1)
        assert np.isclose(d.min(), np.linalg.norm(gen @ got[i] - xs[i]))


def test_nearest_point_tie_breaks_lexicographically():
    # (0.5, 0) is equidistant from (0,0) and (1,0); smallest l wins.
    assert nearest_point(np.eye(2), [0.5, 0.0]).tolist() == [0, 0]
    assert nearest_point(np.array([[1.0]]), [0.5]).tolist() == [0]


def test_quantize_basics_and_overload_clamp():
    lat = build_lattice(np.eye(2), 1.0)
    idx, pt = quantize(lat, [0.6, 0.0])
    assert pt.tolist() == [1.0, 0.0]
    # far outside the support: clamps to a boundary codeword, no error
    _, pt = quantize(lat, [10.0, 10.0])
    assert np.linalg.norm(pt) <= 1.0 + 1e-12
    assert np.linalg.norm(np.array([10.0, 10.0]) - pt) <= np.linalg.norm(
        np.array([10.0, 10.0])
    )


def test_quantize_matches_linear_scan_oracle():
    lat = build_lattice(GEN_HEXAGONAL, 1.5)
    rng_ = np.random.default_rng(3)
    xs = rng_.uniform(-1.0, 1.0, size=(500, 2))
    idx = quantize_batch(lat, xs)
    for i in range(0, 500, 11):
        dists = np.linalg.norm(lat.codebook - xs[i], axis=1)
        assert np.isclose(dists[idx[i]], dists.min())
        assert idx[i] == int(np.argmin(dists))  # lowest-index ties


def test_quantizer_idempotent_on_codewords():
    for gen in (np.eye(2), GEN_HEXAGONAL, GEN_A2):
        lat = build_lattice(gen, 2.0)
        idx = quantize_batch(lat, lat.codebook)
        assert np.array_equal(lat.codebook[idx], lat.codebook)


def test_rate_of():
    lat5 = build_lattice(np.eye(2), 1.0)
    assert rate_of(lat5) == pytest.approx(np.log2(5) / 2)  # ~1.1610
    lat2 = build_lattice(np.array([[1.0]]), 1.0)
    assert rate_of(lat2) == pytest.approx(np.log2(3) / 1)
    # 64 codewords in dimension 2 -> 3 bits per sample
    assert np.log2(64) / 2 == 3.0


def test_generator_serialization_roundtrip():
    for gen in (np.eye(2), GEN_HEXAGONAL, GEN_A2, np.array([[2.5]])):
        blob = pack_generator(gen)
        assert len(blob) == 4 + 8 * gen.size
        back = unpack_generator(blob)
        assert np.array_equal(back, gen)
    with pytest.raises(ValueError):
        unpack_generator(b"\x02\x00\x00\x00short")


def test_index_serialization_roundtrip():
    idx = np.array([0, 5, 70000, 2**31], dtype=np.int64)
    assert np.array_equal(unpack_indices(pack_indices(idx)), idx)
    with pytest.raises(ValueError):
        pack_indices(np.array([-1]))
