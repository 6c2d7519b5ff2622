"""Counter-stream determinism and derivation properties."""

import numpy as np

from olala import rng


def _reference_mix64(z):
    # Straight-line reimplementation of the splitmix64 finalizer.
    mask = (1 << 64) - 1
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_stream_matches_reference_walk():
    seed = 0xDEADBEEF
    golden = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    for k in range(50):
        expect = _reference_mix64((seed + (k + 1) * golden) & mask)
        assert rng.stream_u64(seed, k) == expect


def test_block_matches_scalar_walk():
    seed = 1234
    block = rng.stream_unit_block(seed, 7, 100)
    scalar = np.array([rng.stream_unit(seed, 7 + i) for i in range(100)])
    assert np.array_equal(block, scalar)


def test_units_in_range_and_spread():
    u = rng.stream_unit_block(42, 0, 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_derive_seed_order_and_purpose_sensitivity():
    assert rng.derive_seed(1, 2, 3) != rng.derive_seed(1, 3, 2)
    assert rng.derive_seed(1, 2) != rng.derive_seed(2, 2)
    tags = [rng.derive_seed(99, t) for t in range(16)]
    assert len(set(tags)) == 16


def test_streams_do_not_interact():
    a = rng.stream_unit_block(7, 0, 16)
    _ = rng.stream_unit_block(8, 0, 1000)  # interleave another stream
    b = rng.stream_unit_block(7, 0, 16)
    assert np.array_equal(a, b)


def test_derive_seed_over_a_sequence_of_roots_matches_the_scalar_calls():
    big = 1 << 63
    roots = [0, 1, 41, big - 1, big, big + 12345, (1 << 64) - 1, -3, np.uint64(big + 7)]
    for labels in [(), (2,), (41, 7), (big, 3), (big + 99, (1 << 64) - 1, 0), (-1, big - 1)]:
        vector = rng.derive_seed(roots, *labels)
        assert vector.dtype == np.uint64 and vector.shape == (len(roots),)
        assert [int(v) for v in vector] == [rng.derive_seed(int(r), *labels) for r in roots]
    # a child seed seeds the same stream as the scalar call's
    seeds = rng.derive_seed(np.array([5, big + 5], dtype=np.uint64), 42, 3)
    block = rng.stream_unit_block(seeds, 0, 8)
    assert np.array_equal(block[1], rng.stream_unit_block(rng.derive_seed(big + 5, 42, 3), 0, 8))
