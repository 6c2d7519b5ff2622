"""quantize_batch against the brute-force nearest codeword, on both sides of
the size rule that switches it from the plain scan to the lattice lookup."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from olala.lattice import GEN_HEXAGONAL, build_lattice, quantize, quantize_batch
from olala.learning import normalize_generator

PROPERTY = settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _lookup_threshold(dim):
    return 4 * 5**dim  # quantize_batch scans codebooks up to this size


def _brute(lat, xs):
    d = ((xs[:, None, :] - lat.codebook[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d, axis=1)


def _lattice(dim, skew_seed, size_factor, scale=1.0):
    """The identity (skew_seed None) or a skewed generator eye(L) + 0.4 N(0, 1),
    with the support radius whose ball holds size_factor times the lookup
    threshold in fundamental cells."""
    gen = np.eye(dim)
    if skew_seed is not None:
        gen = gen + 0.4 * np.random.default_rng(skew_seed).normal(size=(dim, dim))
        if not np.linalg.cond(gen) < 6.0:  # keep the enumeration box small
            gen = np.eye(dim)
    gen = scale * gen
    ball = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    target = size_factor * _lookup_threshold(dim)
    return build_lattice(gen, (target * abs(np.linalg.det(gen)) / ball) ** (1.0 / dim))


@st.composite
def lattices(draw):
    return _lattice(
        draw(st.integers(1, 4)),
        draw(st.none() | st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([0.3, 0.8, 2.0])),
        draw(st.floats(0.5, 2.0)),
    )


@PROPERTY
@given(lat=lattices(), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       far=st.floats(2.0, 5.0))
# Skewed generators on the lookup path where some rows are not certified
# (3, 24 and 73 of the 200 rows inside the ball) and fall back to the scan.
@example(lat=_lattice(3, 0, 2.0), n=200, seed=1, far=3.0)
@example(lat=_lattice(4, 3, 2.0), n=200, seed=2, far=2.5)
@example(lat=_lattice(4, 5, 2.0), n=200, seed=3, far=4.0)
@example(lat=build_lattice(normalize_generator(GEN_HEXAGONAL, 6.0), 1.0), n=200, seed=4, far=3.0)
def test_quantize_batch_matches_brute_force(lat, n, seed, far):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(2 * n, lat.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.concatenate([rng.uniform(0.0, 1.0, n) ** (1.0 / lat.dim), np.full(n, far)])
    xs = dirs * (lat.gamma * radii)[:, None]  # n inside the ball, n far outside
    assert np.array_equal(quantize_batch(lat, xs), _brute(lat, xs))


@pytest.mark.parametrize("dim, gamma", [(1, 10.0), (2, 6.0), (3, 5.0)])
def test_exact_ties_go_to_lowest_index_on_lookup_path(dim, gamma):
    lat = build_lattice(np.eye(dim), gamma)
    assert lat.size > _lookup_threshold(dim)  # 21, 113 and 515 codewords
    axes = [np.arange(-2 * gamma - 2, 2 * gamma + 3) / 2.0] * dim
    xs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    if dim == 3:
        xs = xs[:: 7]
    assert np.array_equal(quantize_batch(lat, xs), _brute(lat, xs))
    assert quantize(lat, np.full(dim, 0.5))[0] == _brute(lat, np.full((1, dim), 0.5))[0]


def test_overload_scan_is_memory_bounded():
    # All rows overload, so every row takes the exhaustive scan over ~65.5k
    # codewords; one unchunked score matrix would take 262 MB.
    lat = build_lattice(normalize_generator(GEN_HEXAGONAL, 8.0), 1.0)
    assert lat.size > 65_000
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(500, 2))
    xs *= 3.0 * lat.gamma / np.linalg.norm(xs, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        idx = quantize_batch(lat, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    for i in range(0, 500, 50):
        d = ((lat.codebook - xs[i]) ** 2).sum(axis=1)
        assert idx[i] == int(np.argmin(d))
