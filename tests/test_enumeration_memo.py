"""The enumeration memo of lattice._points_within: an answer served from it
is bit for bit the answer of a fresh box enumeration."""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import olala.lattice as lattice
import olala.learning as learning
from olala.errors import ResourceLimitError
from olala.lattice import GEN_HEXAGONAL, build_lattice

PROPERTY = settings(
    max_examples=80, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Small caps keep every box, and hence the test's memory, small.
CAP_MAX = 200_000


def _skewed(rng, dim):
    return np.eye(dim) + 0.4 * rng.normal(size=(dim, dim))


def _box_total(gen, radius):
    reach = float(np.linalg.norm(np.linalg.inv(gen), axis=1).max())
    return (2 * int(math.ceil(radius * reach)) + 1) ** gen.shape[0]


def _call(gen, radius, cap):
    try:
        return lattice._points_within(gen, np.linalg.inv(gen), radius, cap)
    except ResourceLimitError:
        return None


def _fresh(gen, radius, cap):
    """The same call with the memo cleared, leaving the memo as it was."""
    kept = lattice._memo
    lattice._memo = None
    try:
        return _call(gen, radius, cap)
    finally:
        lattice._memo = kept


def _assert_same(got, ref):
    assert (got is None) == (ref is None)
    if ref is None:
        return
    ls, sq = got
    assert ls.dtype == ref[0].dtype and np.array_equal(ls, ref[0])
    assert sq.dtype == ref[1].dtype and sq.tobytes() == ref[1].tobytes()
    # Unique and strictly lexicographic.
    step = np.diff(ls, axis=0)
    lead = step[np.arange(step.shape[0]), np.argmax(step != 0, axis=1)]
    assert np.all(lead > 0)


OPS = st.sampled_from(["perturb", "rescale", "jump", "grow", "shrink", "repeat"])


@PROPERTY
@given(
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 300),
    ops=st.lists(st.tuples(OPS, st.sampled_from([0.6, 1.0, 1.2, None])), min_size=1, max_size=8),
)
@example(dim=2, seed=0, count=65, ops=[("repeat", None), ("rescale", None), ("grow", 1.0)])
@example(dim=4, seed=1, count=300, ops=[("perturb", None), ("jump", 1.2), ("perturb", None)])
def test_memo_answers_equal_fresh_enumerations(dim, seed, count, ops):
    rng = np.random.default_rng(seed)
    gen = _skewed(rng, dim)
    ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    radius = (count * abs(np.linalg.det(gen)) / ball) ** (1.0 / dim)
    lattice._memo = None
    _call(gen, radius, CAP_MAX)
    for op, cap_share in ops:
        if op == "perturb":
            gen = gen + rng.choice([1e-9, 1e-5, 1e-3, 3e-2]) * rng.normal(size=(dim, dim))
        elif op == "rescale":
            s = rng.uniform(0.5, 2.0)
            gen, radius = s * gen, s * radius * rng.choice([1.0, 1.0 + 1e-9, 1.04])
        elif op == "jump":
            gen = _skewed(rng, dim)
        elif op == "grow":
            radius *= 1.25
        elif op == "shrink":
            radius /= 1.3
        total = _box_total(gen, radius)
        cap = CAP_MAX if cap_share is None else max(1, min(CAP_MAX, int(cap_share * total)))
        ref = _fresh(gen, radius, cap)
        _assert_same(_call(gen, radius, cap), ref)
        assert (ref is None) == (total > cap)


def test_memo_serves_small_moves_and_rescaled_copies():
    rng = np.random.default_rng(3)
    raw = _skewed(rng, 4)
    lattice._memo = None
    _call(raw, 2.0, CAP_MAX)
    stored = lattice._memo
    queries = [
        (raw, 2.0),
        (raw, 2.15),  # within the widened radius
        (raw + 1e-4 * rng.normal(size=(4, 4)), 2.0),
        (0.37 * raw, 0.37 * 2.0),  # c * raw at the matching radius
        (-raw, 2.0),
    ]
    for gen, radius in queries:
        got = _call(gen, radius, CAP_MAX)
        assert lattice._memo is stored  # served, not enumerated again
        _assert_same(got, _fresh(gen, radius, CAP_MAX))
    _call(raw, 2.3, CAP_MAX)  # past the widened radius
    assert lattice._memo is not stored


def test_codebooks_match_with_and_without_memo():
    # build_lattice after a normalization search over the raw lattice, as a
    # learner step makes it, equals build_lattice from a cleared memo.
    from olala.learning import normalize_generator

    for raw in (GEN_HEXAGONAL, _skewed(np.random.default_rng(5), 3)):
        gen = normalize_generator(raw, 3.0)
        served = build_lattice(gen, 1.0)
        lattice._memo = None
        ref = build_lattice(gen, 1.0)
        assert np.array_equal(served.index_set, ref.index_set)
        assert served.codebook.tobytes() == ref.codebook.tobytes()


def _strictly_lexicographic(ls):
    """Every row follows the one before it in lexicographic order, so no
    coefficient vector repeats."""
    step = np.diff(ls, axis=0)
    lead = step[np.arange(step.shape[0]), np.argmax(step != 0, axis=1)]
    return bool(np.all(lead > 0))


def _fresh_codebook_and_shell(gen):
    """_lattice_and_shell from a fresh enumeration: no rows handed over
    and the memo cleared."""
    lattice._memo = None
    with mock.patch.object(lattice, "_enumerate", wraps=lattice._enumerate) as enumerate_:
        out = learning._lattice_and_shell(gen, 1.0)
    assert enumerate_.call_count == 1
    return out


def _assert_same_codebook_and_shell(got, ref):
    (lat, shell), (ref_lat, ref_shell) = got, ref
    for a, b in ((lat.index_set, ref_lat.index_set), (shell, ref_shell)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert _strictly_lexicographic(a)
    assert lat.codebook.tobytes() == ref_lat.codebook.tobytes()
    assert lat.inv.tobytes() == ref_lat.inv.tobytes()
    assert shell.shape[0] >= 1  # the (budget+1)-th norm sits just above gamma


@PROPERTY
@given(
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([0.05, 0.2, 0.4]),
    rate=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]),
    warm=st.booleans(),
)
@example(dim=2, seed=0, spread=0.0, rate=3.0, warm=False)  # eye(2), and the warm start
def test_codebook_and_shell_from_the_normalization_rows_equal_fresh_ones(
    dim, seed, spread, rate, warm
):
    # The codebook and budget shell that _lattice_and_shell filters from the
    # rows _normalize scored are, bit for bit, those of a fresh
    # enumeration, and no coefficient vector repeats.
    raws = [np.eye(dim) + spread * np.random.default_rng(seed).normal(size=(dim, dim))]
    if (dim, rate) == (2, 3.0):
        raws.append(GEN_HEXAGONAL)  # the warm start: a 12-point tie shell at the boundary
    for raw in raws:
        if not warm:
            lattice._memo = None
        try:
            _, gen, rows = learning._normalize(raw, rate, 1.0)
        except ResourceLimitError:  # too skewed for the enumeration cap
            continue
        assert rows is not None
        assert _strictly_lexicographic(rows[0])
        with mock.patch.object(lattice, "_points_within", wraps=lattice._points_within) as within:
            got = learning._lattice_and_shell(gen, 1.0, rows)
        assert within.call_count == 0  # served from the normalization's rows
        _assert_same_codebook_and_shell(got, _fresh_codebook_and_shell(gen))
        assert gen.tobytes() == learning.normalize_generator(raw, rate).tobytes()
        other = np.nextafter(gen, np.inf)  # without rows: enumerated
        with mock.patch.object(lattice, "_points_within", wraps=lattice._points_within) as within:
            learning._lattice_and_shell(other, 1.0)
        assert within.call_count == 1


def test_rows_short_of_the_budget_band_are_not_handed_over(monkeypatch):
    # The warm start's 12 tied points, split by 1e-11: a search that stops
    # at r (1 + 1e-12), as kth_norm may, holds only part of the band above
    # gamma, so _normalize hands no rows over and the codebook and shell
    # are enumerated.
    raw = GEN_HEXAGONAL + 1e-11 * np.random.default_rng(0).normal(size=(2, 2))
    real = learning._kth_norm_points

    def stops_early(gen, inv, k, slot=None):
        r, ties, ls, _ = real(gen, inv, k, slot)
        pts = ls @ gen.T
        edge = r * (1.0 + 1e-12)
        return r, ties, ls[np.einsum("ij,ij->i", pts, pts) <= edge * edge], edge

    monkeypatch.setattr(learning, "_kth_norm_points", stops_early)
    _, gen, rows = learning._normalize(raw, 3.0, 1.0)
    assert rows is None
    got = learning._lattice_and_shell(gen, 1.0, rows)
    ref = _fresh_codebook_and_shell(gen)
    _assert_same_codebook_and_shell(got, ref)
    assert ref[1].shape[0] > 1


def test_a_normalization_and_its_codebook_leave_no_rows_behind():
    # At R=8 the rows a normalization scores take about 2.4 MB; once its
    # codebook is dropped and the process memo cleared, nothing holds them.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gen = learning.normalize_generator(GEN_HEXAGONAL, 8.0)
        lat, shell = learning._lattice_and_shell(gen, 1.0)
        assert 2**15 < lat.size <= 2**16 and shell.shape[0] >= 1
        del lat, shell
        lattice._memo = None
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024, kept
