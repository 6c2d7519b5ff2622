"""The pruned offset sets of the nearest-point search against a whole-cube
search kept here as the reference: the same points bit for bit, a subset of
the certificates, and the whole cube wherever the pruning bound does not
reach."""

import itertools

import numpy as np
import pytest

from olala import lattice
from olala.lattice import GEN_A2, GEN_D2, GEN_HEXAGONAL, build_lattice, quantize_batch

# Tie margin and slack of the reference certificate, as the search uses them.
TIE_REL = 1e-9
CERT_SLACK = 1e-9


def _cube(dim):
    return np.array(list(itertools.product(range(-2, 3), repeat=dim)), dtype=np.int64)


def _whole_cube_search(gen, xs):
    """Babai rounding refined over all 5^L offsets, scored as the search
    scores them; the points and each row's certificate."""
    inv = np.linalg.inv(gen)
    cube = _cube(gen.shape[0])
    cand = cube @ gen.T
    sq = np.einsum("ij,ij->i", cand, cand)
    l0 = np.rint(xs @ inv.T).astype(np.int64)
    resid = xs - l0 @ gen.T
    scores = sq - 2.0 * (resid @ cand.T)
    best = np.argmin(scores, axis=1)
    low = scores[np.arange(len(xs)), best]
    scores[np.arange(len(xs)), best] = np.inf
    second = scores.min(axis=1)
    r_sq = np.einsum("ij,ij->i", resid, resid)
    d_sq = np.maximum(low + r_sq, 0.0)
    tau = TIE_REL * (np.sqrt(np.einsum("ij,ij->i", xs, xs)) + np.sqrt(d_sq)) ** 2
    mu = np.linalg.norm(inv, axis=1).max()
    reach = mu * (np.sqrt(d_sq + tau) + np.sqrt(r_sq))
    cert = (second - low > tau) & (reach < 3.0 * (1.0 - CERT_SLACK))
    return l0 + cube[best], cert


def _skewed(draw, dim, scale=1.0):
    return scale * (np.eye(dim) + 0.3 * draw.normal(size=(dim, dim)))


def _rows(draw, gen, n):
    """Uniform rows at three scales, exact midpoints of two lattice points
    and lattice points themselves."""
    dim = gen.shape[0]
    parts = [s * draw.uniform(-1.0, 1.0, size=(n, dim)) for s in (1e-3, 1.0, 50.0)]
    a = draw.integers(-4, 5, size=(n, dim))
    b = a + _cube(dim)[draw.integers(0, 5**dim, size=n)]
    parts.append((a + b) @ gen.T / 2.0)
    parts.append(a @ gen.T)
    return np.concatenate(parts)


def _scored(monkeypatch):
    """Record the number of offsets each _first_min call scores."""
    sizes = []
    inner = lattice._first_min

    def spy(cands, sq, xs, runner_up=False):
        sizes.append(cands.shape[-2])
        return inner(cands, sq, xs, runner_up)

    monkeypatch.setattr(lattice, "_first_min", spy)
    return sizes


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_pruned_points_are_the_whole_cubes_bit_for_bit(dim):
    draw = np.random.default_rng(100 + dim)
    for scale in (0.05, 1.0, 7.0):
        for _ in range(8):
            gen = _skewed(draw, dim, scale)
            xs = _rows(draw, gen, 150)
            ref, _ = _whole_cube_search(gen, xs)
            inv = np.linalg.inv(gen)
            offsets = lattice._offsets(gen, inv)
            assert offsets.cube.shape[0] < 5**dim
            got, _ = lattice._cube_search(gen, inv, xs, offsets=offsets)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert np.array_equal(lattice.nearest_point_batch(gen, xs), ref)


@pytest.mark.parametrize("gen", [np.eye(2), GEN_HEXAGONAL, GEN_D2, GEN_A2])
def test_stock_generators_keep_the_voronoi_relevant_offsets(gen):
    offsets = lattice._offsets(gen, np.linalg.inv(gen))
    kept = {tuple(k) for k in offsets.cube}
    assert len(kept) == (11 if gen is GEN_D2 else 9)
    assert (0, 0) in kept
    # kept offsets stay in cube order
    order = [tuple(k) for k in _cube(2)]
    assert sorted(kept, key=order.index) == [tuple(k) for k in offsets.cube]
    draw = np.random.default_rng(3)
    xs = _rows(draw, gen, 400)
    got, _ = lattice._cube_search(gen, np.linalg.inv(gen), xs, offsets=offsets)
    assert np.array_equal(got, _whole_cube_search(gen, xs)[0])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_certificates_are_a_subset_and_indices_unchanged(dim):
    draw = np.random.default_rng(200 + dim)
    certified = whole = 0
    for _ in range(6):
        gen = _skewed(draw, dim)
        xs = _rows(draw, gen, 200)
        inv = np.linalg.inv(gen)
        ref, ref_cert = _whole_cube_search(gen, xs)
        got, cert = lattice._cube_search(
            gen, inv, xs, certify=True, offsets=lattice._offsets(gen, inv)
        )
        assert np.array_equal(got, ref)
        assert not (cert & ~ref_cert).any()
        certified += int(cert.sum())
        whole += int(ref_cert.sum())
    assert certified >= 0.99 * whole > 0

    # A codebook large enough for the lookup, on a generator whose 5^L
    # offsets it outnumbers: every index is the plain scan's first minimum.
    gen = np.eye(dim) + 0.1 * draw.normal(size=(dim, dim))
    radius = {1: 60.0, 2: 8.0, 3: 5.5, 4: 5.0}[dim]
    lat = build_lattice(gen, radius)
    assert lat.size > 4 * 5**dim
    xs = np.concatenate([_rows(draw, gen, 100), 1.2 * radius * draw.uniform(-1, 1, (300, dim))])
    book_sq = np.einsum("ij,ij->i", lat.codebook, lat.codebook)
    scan = np.argmin(book_sq - 2.0 * (xs @ lat.codebook.T), axis=1)
    assert np.array_equal(quantize_batch(lat, xs), scan)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_huge_and_non_finite_rows_score_the_whole_cube(dim, monkeypatch):
    draw = np.random.default_rng(300 + dim)
    gen = _skewed(draw, dim)
    inv = np.linalg.inv(gen)
    offsets = lattice._offsets(gen, inv)
    xs = draw.uniform(-1.0, 1.0, size=(50, dim))
    sizes = _scored(monkeypatch)

    lattice._cube_search(gen, inv, xs, offsets=offsets)
    assert sizes.pop() == offsets.cube.shape[0] < 5**dim

    big = xs.copy()
    big[7] = 1e12 * (draw.uniform(-1.0, 1.0, size=dim) + 2.0)
    got, _ = lattice._cube_search(gen, inv, big, offsets=offsets)
    assert sizes.pop() == 5**dim
    assert np.array_equal(got, _whole_cube_search(gen, big)[0])

    for bad in (np.nan, np.inf, -np.inf):
        odd = xs.copy()
        odd[3, 0] = bad
        with np.errstate(invalid="ignore"):
            got, _ = lattice._cube_search(gen, inv, odd, offsets=offsets)
            ref, _ = _whole_cube_search(gen, odd)
        assert sizes.pop() == 5**dim
        finite = np.isfinite(odd).all(axis=1)
        assert np.array_equal(got[finite], ref[finite])

    # In a stack, only the slot past its bound scores the whole cube: each
    # slot gets the bits and certificates it gets alone.
    gens = np.stack([gen, 1.1 * gen, gen.T])
    invs = np.linalg.inv(gens)
    stack = np.stack([xs, big, 2.0 * xs])
    out, cert = lattice._cube_search(gens, invs, stack, certify=True,
                                     offsets=lattice._offsets(gens, invs))
    assert sizes.pop() == 5**dim
    for k in range(3):
        alone = lattice._cube_search(gens[k], invs[k], stack[k], certify=True,
                                     offsets=lattice._offsets(gens[k], invs[k]))
        assert np.array_equal(out[k], alone[0]) and np.array_equal(cert[k], alone[1])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_size_rule_sides_give_the_same_bits(dim, monkeypatch):
    draw = np.random.default_rng(400 + dim)
    threshold = lattice._PRUNE_SCORES
    least = -(-threshold // 5**dim)  # fewest rows a fresh search prunes
    sizes = _scored(monkeypatch)
    for rows in {max(least - 1, 1), least}:
        gens = np.stack([_skewed(draw, dim) for _ in range(3)])
        invs = np.linalg.inv(gens)
        xs = np.stack([_rows(draw, g, 50)[:rows] for g in gens])
        if xs.shape[1] < rows:
            xs = np.concatenate([xs, draw.uniform(-2, 2, (3, rows - xs.shape[1], dim))], axis=1)
        fresh = lattice._cube_search(gens, invs, xs, certify=True)
        pruned = rows * 5**dim >= lattice._PRUNE_SCORES
        assert (sizes.pop() < 5**dim) == pruned
        for k in range(3):
            ref, ref_cert = _whole_cube_search(gens[k], xs[k])
            assert np.array_equal(fresh[0][k], ref)
            assert not (fresh[1][k] & ~ref_cert).any()
            if not pruned:
                assert np.array_equal(fresh[1][k], ref_cert)
        monkeypatch.setattr(lattice, "_PRUNE_SCORES", 0 if not pruned else 1 << 62)
        other = lattice._cube_search(gens, invs, xs, certify=True)
        assert (sizes.pop() < 5**dim) != pruned
        assert np.array_equal(other[0], fresh[0])
        monkeypatch.setattr(lattice, "_PRUNE_SCORES", threshold)
