"""Each stream draw and parameter layout has one owner: normals and shuffles
in rng, dither coordinates in sdq._coords, the prior net's layout in
models.  Every call site must equal, bit for bit, the formula it used to
write out inline; those formulas are kept here."""

import numpy as np
import pytest

import olala.checks as checks
from olala import rng
from olala.data import partition_dataset, synthetic_dataset
from olala.errors import ProtocolError
from olala.lattice import GEN_HEXAGONAL, build_lattice
from olala.learning import _backward, _forward_cached, init_prior_net
from olala.sdq import (
    DitherStream,
    SdqCodec,
    _fold_dithers,
    decode_blocks,
    dithers_at,
    sdq_decode,
    second_moment,
)

SEEDS = (0, 7, 2**61 + 5)
SKEWED_3D = np.array([[1.0, 0.7, -0.4], [0.2, 0.9, 0.8], [-0.5, 0.3, 1.3]])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _box_muller(seed_a, seed_b, count):
    u1 = rng.stream_unit_block(seed_a, 0, count)
    u2 = rng.stream_unit_block(seed_b, 0, count)
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


def _shuffle(seed, count):
    return np.argsort(rng.stream_unit_block(seed, 0, count), kind="stable")


def _coords(seed, start, count, dim):
    return rng.stream_unit_block(seed, start * dim, count * dim).reshape(count, dim)


@pytest.mark.parametrize("seed", SEEDS)
def test_rng_primitives_match_inline_formulas(seed):
    assert _same(rng.normal_block(seed, seed + 1, 1001), _box_muller(seed, seed + 1, 1001))
    assert _same(rng.stream_permutation(seed, 1001), _shuffle(seed, 1001))
    assert rng.stream_permutation(seed, 0).size == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_dataset_matches_inline_box_muller_and_shuffle(seed):
    n, d, c, noise = 230, 5, 4, 0.12
    ds = synthetic_dataset(n, d, c, noise, seed=seed, center_seed=seed + 1)
    centers = 0.2 + 0.6 * rng.stream_unit_block(rng.derive_seed(seed + 1, 1), 0, c * d)
    labels = np.arange(n, dtype=np.int64) % c
    normal = _box_muller(rng.derive_seed(seed, 2), rng.derive_seed(seed, 3), n * d)
    feats = centers.reshape(c, d)[labels] + noise * normal.reshape(n, d)
    np.clip(feats, 0.0, 1.0, out=feats)
    order = _shuffle(rng.derive_seed(seed, 4), n)
    assert _same(ds.features, feats[order])
    assert _same(ds.labels, labels[order])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", [1, 3])
def test_noise_dirs_match_inline_box_muller(seed, m):
    problem = checks.make_problem(m, 2, seed=3)
    count = 50
    z = _box_muller(rng.derive_seed(seed, 1, 1), rng.derive_seed(seed, 1, 2), count * m)
    z = z.reshape(count, m)
    expect = np.sign(z) + (z == 0) if m == 1 else z / np.linalg.norm(z, axis=1, keepdims=True)
    assert _same(problem.noise_dirs(1, seed, count), expect)


@pytest.mark.parametrize("seed", SEEDS)
def test_ball_samples_match_inline_box_muller(seed):
    dim, radius, count = 3, 2.5, 400
    z = _box_muller(rng.derive_seed(seed, 1), rng.derive_seed(seed, 2), count * dim)
    z = z.reshape(count, dim)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = rng.stream_unit_block(rng.derive_seed(seed, 3), 0, count) ** (1.0 / dim)
    expect = z / norms * (radius * r[:, None])
    assert _same(checks._ball_samples(dim, radius, seed, count), expect)


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_shards_match_inline_shuffle(seed):
    n_classes, n_users = 5, 3
    ds = synthetic_dataset(300, 4, n_classes, seed=11)
    claims = {c: [] for c in range(n_classes)}
    for u in range(n_users):
        for c in (2 * u, 2 * u + 1, 2 * u + 2):
            if u not in claims[c % n_classes]:
                claims[c % n_classes].append(u)
    shards = [[] for _ in range(n_users)]
    for c, users in claims.items():
        if users:
            idx = np.flatnonzero(ds.labels == c)
            idx = idx[_shuffle(rng.derive_seed(seed, 5, c), idx.size)]
            for part, u in zip(np.array_split(idx, len(users)), users):
                shards[u].extend(part.tolist())
    got = partition_dataset(ds, n_users, seed=seed)
    assert len(got) == n_users
    for shard, expect in zip(got, shards):
        assert _same(shard, np.array(sorted(expect), dtype=np.int64))


@pytest.mark.parametrize("gen", [GEN_HEXAGONAL, SKEWED_3D], ids=["hexagonal", "skewed_3d"])
@pytest.mark.parametrize("start", [1, 37, 5000])
def test_dithers_at_offset_matches_inline_coordinates(gen, start):
    seed, count = 99, 500
    u = _coords(seed, start, count, gen.shape[0])
    expect = _fold_dithers(u, gen, np.linalg.inv(gen))[0]
    assert _same(dithers_at(seed, gen, start, count), expect)
    stream = DitherStream(seed, gen, counter=start)
    assert _same(stream.draw(count), expect)


def test_second_moment_chunks_match_inline_coordinates():
    gen, seed, dim = GEN_HEXAGONAL, 5, 2
    n = (1 << 17) + 3001
    inv = np.linalg.inv(gen)
    total = total_sq = 0.0
    for done, take in ((0, 1 << 17), (1 << 17, 3001)):
        d = _fold_dithers(_coords(seed, done, take, dim), gen, inv)[0]
        s = np.einsum("ij,ij->i", d, d) / dim
        total += float(s.sum())
        total_sq += float((s * s).sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    assert second_moment(gen, n, seed) == (mean, (var / n) ** 0.5)


def _reference_prior(theta, lattice_dim, dout):
    """The prior net's forward and backward passes over the layout it
    unpacked for itself before it took models' layout."""
    sizes = [(16, 32), (32, 32), (32, lattice_dim * lattice_dim)]
    mats = []
    pos = 0
    for fi, fo in sizes:
        w = theta[pos : pos + fi * fo].reshape(fi, fo)
        pos += fi * fo
        mats.append((w, theta[pos : pos + fo]))
        pos += fo
    assert pos == theta.size
    (w1, b1), (w2, b2), (w3, b3) = mats
    a1 = np.tanh(w1.sum(axis=0) + b1)
    a2 = np.tanh(a1 @ w2 + b2)
    out = a2 @ w3 + b3
    dz3 = dout
    dw3 = np.outer(a2, dz3)
    dz2 = (w3 @ dz3) * (1.0 - a2 * a2)
    dw2 = np.outer(a1, dz2)
    dz1 = (w2 @ dz2) * (1.0 - a1 * a1)
    dw1 = np.tile(dz1, (16, 1))
    grad = np.concatenate([dw1.ravel(), dz1, dw2.ravel(), dz2, dw3.ravel(), dz3])
    return out.reshape(lattice_dim, lattice_dim), (a1, a2), grad


@pytest.mark.parametrize("lattice_dim", [1, 2, 3, 4])
def test_prior_net_passes_match_its_former_layout(lattice_dim):
    draw = np.random.default_rng(lattice_dim)
    theta = init_prior_net(lattice_dim, seed=40 + lattice_dim).theta
    theta = theta + 0.05 * draw.standard_normal(theta.size)
    out_dim = lattice_dim * lattice_dim
    # A contiguous output gradient, and a strided one (a column of a matrix),
    # as the tie projection may pass.
    strided = draw.standard_normal((out_dim, 3))[:, 1]
    for dout in (draw.standard_normal(out_dim), strided):
        raw, cache = _forward_cached(theta, lattice_dim)
        raw_ref, cache_ref, grad_ref = _reference_prior(theta, lattice_dim, dout)
        assert _same(raw, raw_ref)
        assert all(_same(a, b) for a, b in zip(cache, cache_ref))
        assert _same(_backward(theta, lattice_dim, cache, dout), grad_ref)


def _codec():
    lat = build_lattice(GEN_HEXAGONAL, 2.0)
    return SdqCodec(lattice=lat, zeta=0.37, dither=DitherStream(5, GEN_HEXAGONAL)), lat


def test_sdq_decode_is_a_decode_blocks_row():
    codec, lat = _codec()
    d = dithers_at(5, GEN_HEXAGONAL, 0, lat.size)
    rows = decode_blocks(codec, np.arange(lat.size), d)
    for i in range(lat.size):
        got = sdq_decode(codec, i, d[i])
        assert _same(got, rows[i])
        assert _same(got, (lat.codebook[i] - d[i]) / codec.zeta)


@pytest.mark.parametrize("offset", [0, 4, -1, -7])
def test_out_of_range_index_error_names_index_and_range(offset):
    codec, lat = _codec()
    index = lat.size + offset if offset >= 0 else offset
    message = rf"^codebook index {index} out of range \[0, {lat.size}\)$"
    with pytest.raises(ProtocolError, match=message):
        sdq_decode(codec, index, np.zeros(2))
    with pytest.raises(ProtocolError, match=message):
        decode_blocks(codec, np.array([0, index, 1, lat.size + 9]), np.zeros((4, 2)))
