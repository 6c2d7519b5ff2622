"""Dither streams, the subtractive dithered codec, moments, scale fitting."""

import math

import numpy as np
import pytest

import olala.lattice as lattice
import olala.sdq as sdq
from olala.errors import ProtocolError
from olala.lattice import GEN_HEXAGONAL, build_lattice, nearest_point_batch, quantize
from olala.sdq import (
    DitherStream,
    SdqCodec,
    decode_blocks,
    dithers_at,
    encode_blocks,
    fit_scale,
    recombine,
    sdq_decode,
    sdq_encode,
    second_moment,
    split_vector,
)

HEX_UNIT_DET = GEN_HEXAGONAL / math.sqrt(np.linalg.det(GEN_HEXAGONAL))

# Per-dimension second moment of the unit-determinant hexagonal cell,
# frozen from a 2000^2-point numerical integration over the Voronoi cell
# (test_second_moment_hexagonal_integration_oracle recomputes it coarsely).
HEX_MOMENT = 0.0801875


def test_scalar_dither_uniform_centered_cell():
    gen = np.array([[1.0]])
    d = dithers_at(1, gen, 0, 100_000).ravel()
    assert d.min() >= -0.5 and d.max() < 0.5 + 1e-12
    assert abs(d.mean()) < 0.01


def test_dither_lies_in_basic_cell():
    for gen in (np.eye(2), GEN_HEXAGONAL):
        d = dithers_at(7, gen, 0, 2000)
        assert (nearest_point_batch(gen, d) == 0).all()


def test_dither_streams_synchronize_and_do_not_interact():
    s1 = DitherStream(42, GEN_HEXAGONAL)
    s2 = DitherStream(42, GEN_HEXAGONAL)
    a = s1.draw(10)
    _ = DitherStream(43, GEN_HEXAGONAL).draw(500)  # unrelated stream
    b = s2.draw(10)
    assert np.array_equal(a, b)
    # resume mid-stream from a counter
    s3 = DitherStream(42, GEN_HEXAGONAL, counter=4)
    assert np.array_equal(s3.draw(6), a[4:])


def test_hexagonal_dither_moment_matches_estimator():
    # Oracle: the second_moment op itself, on an independent stream.
    d = dithers_at(11, HEX_UNIT_DET, 0, 10**6)
    per_dim = np.einsum("ij,ij->i", d, d) / 2
    est, se = second_moment(HEX_UNIT_DET, 10**6, seed=12)
    se_comb = math.hypot(se, per_dim.std() / math.sqrt(len(per_dim)))
    assert abs(per_dim.mean() - est) <= 2 * se_comb


def test_sdq_encode_trivial_and_reference_walk():
    lat = build_lattice(np.eye(2), 1.0)
    codec = SdqCodec(lattice=lat, zeta=1.0, dither=DitherStream(42, np.eye(2)))
    origin = int(np.flatnonzero((lat.codebook == 0).all(axis=1))[0])
    assert sdq_encode(codec, np.zeros(2), np.zeros(2)) == origin

    # Independent reference walk of the counter generator for seed 42:
    # uniforms -> parallelepiped point -> fold -> encode x=(0.3, 0.3).
    mask = (1 << 64) - 1
    golden = 0x9E3779B97F4A7C15

    def ref_mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    u = np.array(
        [(ref_mix((42 + (k + 1) * golden) & mask) >> 11) * 2.0**-53 for k in (0, 1)]
    )
    d0 = np.eye(2) @ u
    d_ref = d0 - np.round(d0)
    x = np.array([0.3, 0.3])
    dists = np.linalg.norm(lat.codebook - (x + d_ref), axis=1)
    expect = int(np.argmin(dists))

    d = codec.dither.next()
    assert np.allclose(d, d_ref)
    assert sdq_encode(codec, x, d) == expect


def test_sdq_decode_and_errors():
    lat = build_lattice(np.eye(2), 1.0)
    codec = SdqCodec(lattice=lat, zeta=1.0, dither=DitherStream(5, np.eye(2)))
    origin = int(np.flatnonzero((lat.codebook == 0).all(axis=1))[0])
    assert np.array_equal(sdq_decode(codec, origin, np.zeros(2)), np.zeros(2))
    with pytest.raises(ProtocolError):
        sdq_decode(codec, lat.size, np.zeros(2))


def test_roundtrip_error_bounded_by_covering_radius():
    lat = build_lattice(np.eye(2), 3.0)
    codec = SdqCodec(lattice=lat, zeta=1.0, dither=DitherStream(9, np.eye(2)))
    rng_ = np.random.default_rng(2)
    xs = rng_.uniform(-1.5, 1.5, size=(200, 2))
    d = codec.dither.draw(200)
    idx = encode_blocks(codec, xs, d)
    rec = decode_blocks(codec, idx, d)
    # covering radius of the unit square lattice is sqrt(2)/2
    assert np.linalg.norm(rec - xs, axis=1).max() <= math.sqrt(2) / 2 + 1e-9


def test_roundtrip_mean_error_near_zero():
    lat = build_lattice(np.eye(2), 4.0)
    codec = SdqCodec(lattice=lat, zeta=1.0, dither=DitherStream(13, np.eye(2)))
    n = 10**4
    rng_ = np.random.default_rng(4)
    xs = rng_.uniform(-1.0, 1.0, size=(n, 2))
    d = codec.dither.draw(n)
    rec = decode_blocks(codec, encode_blocks(codec, xs, d), d)
    err = rec - xs
    se = err.std(axis=0) / math.sqrt(n)
    assert (np.abs(err.mean(axis=0)) <= 3 * se).all()


def test_encode_respects_zeta_contract():
    # encode takes pre-scaled input; decode divides by zeta.
    lat = build_lattice(np.eye(2), 2.0)
    codec = SdqCodec(lattice=lat, zeta=4.0, dither=DitherStream(3, np.eye(2)))
    x = np.array([0.1, -0.05])
    d = codec.dither.next()
    idx = sdq_encode(codec, codec.zeta * x, d)
    rec = sdq_decode(codec, idx, d)
    assert np.linalg.norm(rec - x) <= (math.sqrt(2) / 2) / 4.0 + 1e-12


def test_split_vector_and_recombine():
    blocks, pad = split_vector(np.arange(4.0), 2)
    assert blocks.shape == (2, 2) and pad == 0
    blocks, pad = split_vector(np.arange(5.0), 2)
    assert blocks.shape == (3, 2) and pad == 1
    assert blocks[-1, -1] == 0.0
    rng_ = np.random.default_rng(0)
    x = rng_.normal(size=1000)
    for dim in (1, 2, 3, 7):
        b, p = split_vector(x, dim)
        assert np.array_equal(recombine(b, p), x)


def test_second_moment_scalar_closed_form():
    est, se = second_moment(np.array([[1.0]]), 10**5, seed=0)
    assert abs(est - 1.0 / 12.0) <= 3 * se
    est2, se2 = second_moment(np.array([[2.0]]), 10**5, seed=1)
    assert abs(est2 - 4.0 / 12.0) <= 3 * se2


def test_second_moment_hexagonal_integration_oracle():
    # Numerical integration over the Voronoi cell: grid points whose nearest
    # lattice point is the origin.
    grid = np.linspace(-0.8, 0.8, 401)
    xx, yy = np.meshgrid(grid, grid)
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    inside = (nearest_point_batch(HEX_UNIT_DET, pts) == 0).all(axis=1)
    cell = pts[inside]
    integral = float(np.einsum("ij,ij->", cell, cell)) / cell.shape[0]
    oracle = integral / 2  # per dimension
    assert oracle == pytest.approx(HEX_MOMENT, rel=2e-3)
    est, se = second_moment(HEX_UNIT_DET, 2 * 10**5, seed=3)
    assert abs(est - HEX_MOMENT) <= 3 * se


def test_second_moment_quadratic_scaling():
    base, se_b = second_moment(GEN_HEXAGONAL, 10**5, seed=5)
    scaled, se_s = second_moment(3.0 * GEN_HEXAGONAL, 10**5, seed=6)
    assert abs(scaled - 9.0 * base) <= 3 * math.hypot(9 * se_b, se_s)


def test_second_moment_rejects_tiny_samples():
    with pytest.raises(ValueError):
        second_moment(np.eye(2), 10)


def test_second_moment_validates_and_inverts_once_and_matches_chunked_dithers(monkeypatch):
    gen, seed, chunk = GEN_HEXAGONAL, 17, 1 << 17
    n = 2 * chunk + 1234
    total = total_sq = 0.0
    for start in range(0, n, chunk):
        d = dithers_at(seed, gen, start, min(chunk, n - start))
        s = np.einsum("ij,ij->i", d, d) / 2
        total += float(s.sum())
        total_sq += float((s * s).sum())
    mean = total / n
    expect = (mean, (max(total_sq / n - mean * mean, 0.0) / n) ** 0.5)

    counts = {"check_generator": 0, "inv": 0}
    real_check, real_inv = lattice.check_generator, np.linalg.inv

    def counted_check(g):
        counts["check_generator"] += 1
        return real_check(g)

    def counted_inv(a):
        counts["inv"] += 1
        return real_inv(a)

    for mod in (lattice, sdq):
        monkeypatch.setattr(mod, "check_generator", counted_check)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    assert second_moment(gen, n, seed) == expect
    assert counts == {"check_generator": 1, "inv": 1}


def test_fit_scale_zero_target_no_overload():
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    rng_ = np.random.default_rng(8)
    blocks = rng_.normal(size=(500, 2))
    zeta = fit_scale(blocks, lat, DitherStream(21, GEN_HEXAGONAL), 0.0)
    d = DitherStream(21, GEN_HEXAGONAL).draw(500)
    y = zeta * blocks + d
    assert (np.linalg.norm(y, axis=1) <= 1.0).all()


def test_fit_scale_target_respected_on_fresh_draw():
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    rng_ = np.random.default_rng(9)
    blocks = rng_.normal(size=(10**4, 2)) * 0.7
    zeta = fit_scale(blocks, lat, DitherStream(31, GEN_HEXAGONAL), 0.005)
    # re-measure on an independent dither draw; allow +0.25% sampling slack
    d = DitherStream(77, GEN_HEXAGONAL).draw(10**4)
    frac = float(np.mean(np.linalg.norm(zeta * blocks + d, axis=1) > 1.0))
    assert 0.0 <= frac <= 0.005 + 0.0025


def test_fit_scale_scale_equivariance():
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    rng_ = np.random.default_rng(10)
    blocks = rng_.normal(size=(2000, 2))
    z1 = fit_scale(blocks, lat, DitherStream(41, GEN_HEXAGONAL), 0.01)
    z2 = fit_scale(2.0 * blocks, lat, DitherStream(41, GEN_HEXAGONAL), 0.01)
    assert z2 == pytest.approx(z1 / 2.0, rel=1e-6)


def test_fit_scale_zero_input_warns():
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    with pytest.warns(UserWarning):
        zeta = fit_scale(np.zeros((8, 2)), lat, DitherStream(51, GEN_HEXAGONAL), 0.01)
    assert zeta == 1.0
