"""Property tests of the direct order statistics against brute force: the
k-th lattice-point norm, the codeword-budget scale, the codebook with its
budget shell, and the input scale."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from olala.errors import ResourceLimitError
from olala.lattice import GEN_HEXAGONAL, build_lattice, kth_norm
from olala.learning import (
    _lattice_and_shell,
    codeword_budget,
    normalize_generator,
    normalize_scale,
)
from olala.sdq import DitherStream, fit_scale

PROPERTY = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
RATES = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0])
TARGETS = st.sampled_from([0.0, 0.005, 0.01])
FLOOR, CEIL = 1e-9, 1e9


@st.composite
def generators(draw):
    """Random well-conditioned generators: scaled identity plus a bounded
    perturbation, at L in {1, 2, 3}."""
    dim = draw(st.integers(1, 3))
    entries = draw(
        st.lists(st.floats(-0.4, 0.4), min_size=dim * dim, max_size=dim * dim)
    )
    scale = draw(st.floats(0.5, 2.0))
    return scale * (np.eye(dim) + np.array(entries).reshape(dim, dim))


def _box_sq_norms(gen, radius):
    """Squared norms of every lattice point in a cube of coefficients that
    holds all points within radius (|l_i| <= ||l|| <= radius / sigma_min)."""
    dim = gen.shape[0]
    bound = int(math.ceil(radius / np.linalg.svd(gen, compute_uv=False)[-1]))
    axes = [np.arange(-bound, bound + 1)] * dim
    ls = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    pts = ls @ gen.T
    return np.einsum("ij,ij->i", pts, pts)


def _brute_kth_norm(gen, k):
    radius = 1.0
    while True:
        norms = np.sort(np.sqrt(_box_sq_norms(gen, radius)))
        norms = norms[norms <= radius]
        if norms.size >= k and norms[k - 1] * (1.0 + 1e-12) < radius:
            r = norms[k - 1]
            return r, int(np.count_nonzero(norms <= r * (1.0 + 1e-12)))
        radius *= 2.0


def _brute_count(gen, gamma=1.0):
    return int(np.count_nonzero(_box_sq_norms(gen, gamma) <= gamma * gamma))


@PROPERTY
@given(gen=generators(), k=st.integers(1, 300))
@example(gen=np.eye(2), k=16)  # an 8-point tie shell at norm sqrt(5)
@example(gen=GEN_HEXAGONAL, k=65)  # the rate-3 budget boundary: 12 tied points
def test_kth_norm_matches_brute_force(gen, k):
    r, ties = kth_norm(gen, k)
    r_ref, ties_ref = _brute_kth_norm(gen, k)
    assert r == pytest.approx(r_ref, rel=1e-13)
    assert ties == ties_ref >= k


def test_kth_norm_search_stays_within_the_cap_where_its_volume_start_fits():
    # In Z^9 the 835th norm is sqrt(3) (1 + 18 + 144 + 672 points), inside
    # the volume radius 1.85, whose box 5^9 fits the enumeration cap; one
    # growth step (7^9 candidates) would not, so the search starts at the
    # volume radius and answers there.
    assert kth_norm(np.eye(9), 835) == (math.sqrt(3.0), 835)
    c = normalize_scale(np.eye(9), math.log2(834) / 9)  # a budget of 834
    assert c == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)


@PROPERTY
@given(raw=generators(), rate=RATES)
@example(raw=GEN_HEXAGONAL, rate=3.0)
@example(raw=np.eye(2), rate=1.0)
def test_normalize_scale_is_minimal(raw, rate):
    budget = codeword_budget(raw.shape[0], rate)
    c = normalize_scale(raw, rate)
    assert _brute_count(c * raw) <= budget < _brute_count(c * (1.0 - 1e-12) * raw)
    assert np.array_equal(normalize_generator(raw, rate), c * raw)


@st.composite
def skewed_raws(draw):
    """Raw generators eye(L) + 0.4 N(0, 1) at L in {1, 2, 3, 4}."""
    dim = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.eye(dim) + 0.4 * np.random.default_rng(seed).normal(size=(dim, dim))


def _brute_points(gen, radius):
    """Lexicographic coefficient vectors l with ||gen l|| <= radius and their
    squared norms, from a coefficient cube that holds every such point,
    taken a slab of the first coordinate at a time."""
    dim = gen.shape[0]
    bound = int(math.ceil(radius / np.linalg.svd(gen, compute_uv=False)[-1]))
    axis = np.arange(-bound, bound + 1)
    if dim == 1:
        slabs = [axis[:, None]]
    else:
        rest = np.stack(np.meshgrid(*[axis] * (dim - 1), indexing="ij"), axis=-1)
        rest = rest.reshape(-1, dim - 1)
        slabs = [np.hstack([np.full((rest.shape[0], 1), a), rest]) for a in axis]
    kept_ls, kept_sq = [], []
    for ls in slabs:
        pts = ls @ gen.T
        sq = np.einsum("ij,ij->i", pts, pts)
        ok = sq <= radius * radius
        kept_ls.append(ls[ok])
        kept_sq.append(sq[ok])
    return np.concatenate(kept_ls), np.concatenate(kept_sq)


@settings(PROPERTY, max_examples=40)
@given(raw=skewed_raws(), rate=RATES)
@example(raw=GEN_HEXAGONAL, rate=3.0)  # a tie shell on the budget boundary
@example(raw=np.eye(2), rate=1.0)
def test_lattice_and_shell_match_build_lattice_and_brute_force(raw, rate):
    try:
        gen = normalize_generator(raw, rate)
    except ResourceLimitError:  # too skewed for the enumeration cap
        assume(False)
    lat, shell = _lattice_and_shell(gen, 1.0)
    ref = build_lattice(gen, 1.0)
    assert np.array_equal(lat.index_set, ref.index_set)
    assert np.array_equal(lat.codebook, ref.codebook)
    # The shell is the band 1 < ||gen l|| <= 1 + 1e-9, one of each +-l pair.
    ls, sq = _brute_points(gen, 1.0 + 1e-9)
    band = {tuple(l) for l in ls[sq > 1.0]}
    kept = {tuple(l) for l in shell}
    assert shell.shape[0] == len(kept) and 2 * len(kept) == len(band)
    assert kept | {tuple(-l) for l in shell} == band
    assert shell.shape[0] >= 1  # the (budget+1)-th norm sits just above gamma


@PROPERTY
@given(
    raw=generators(), rate=RATES, target=TARGETS,
    n=st.integers(20, 400), seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.05, 20.0), zero_rows=st.integers(0, 5),
)
def test_fit_scale_is_maximal(raw, rate, target, n, seed, spread, zero_rows):
    gen = normalize_generator(raw, rate)
    lat = build_lattice(gen, 1.0)
    dim = gen.shape[0]
    blocks = np.random.default_rng(seed).normal(size=(n, dim)) * spread
    blocks[:zero_rows] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zeta = fit_scale(blocks, lat, DitherStream(seed, gen), target)
    d = DitherStream(seed, gen).draw(n)
    dd = np.einsum("ij,ij->i", d, d)

    def overloads(z):
        y = z * blocks + d
        return int(np.count_nonzero((np.einsum("ij,ij->i", y, y) > 1.0) | (dd > 1.0)))

    allowed = max(k for k in range(n + 1) if k / n <= target)
    assert FLOOR <= zeta <= CEIL
    if zeta > FLOOR:
        assert overloads(zeta) <= allowed
    if zeta < CEIL:
        assert overloads(zeta * (1.0 + 1e-12)) > allowed
