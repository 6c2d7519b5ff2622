"""Codebooks built once per generator and shared: fl's codebook store, the
learner's codebook as the server's, read-only codebook arrays, and the
enumeration memo widened up to the cap."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import olala.fl as fl
import olala.lattice as lattice
import olala.learning as learning
from olala.config import ExperimentConfig
from olala.errors import ResourceLimitError
from olala.fl import run_fl
from olala.lattice import GEN_HEXAGONAL, build_lattice
from olala.learning import LearnerConfig, _learn_group, init_prior_net

PROPERTY = settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cfg(**kw):
    base = dict(
        rounds=3, local_steps=20, synthetic_train_size=600, synthetic_test_size=200,
        rate=2.0, lattice_epochs=1, lattice_lr=1e-4, n_users=4,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _key(gen):
    return gen.shape, gen.tobytes()


def _strictly_lexicographic(ls):
    """Every row follows the one before it in lexicographic order, so no
    coefficient vector repeats."""
    step = np.diff(ls, axis=0)
    lead = step[np.arange(step.shape[0]), np.argmax(step != 0, axis=1)]
    return bool(np.all(lead > 0))


def _assert_shared(lat, gen):
    """lat is, bit for bit, the codebook a fresh build_lattice(gen, 1.0)
    gives, and neither repeats a coefficient vector."""
    lattice._memo = None
    ref = build_lattice(gen, 1.0)
    for name in ("index_set", "codebook", "inv"):
        a, b = getattr(lat, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert _strictly_lexicographic(lat.index_set) and _strictly_lexicographic(ref.index_set)


@PROPERTY
@given(
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([0.05, 0.2, 0.4]),
    rate=st.sampled_from([1.0, 2.0, 3.0]),
)
@example(dim=2, seed=0, spread=0.0, rate=3.0)  # eye(2)
def test_the_learners_codebook_is_build_lattices(dim, seed, spread, rate):
    # The codebook a learner measures a generator under, filtered from its
    # normalization's rows or enumerated, is the one build_lattice gives.
    raw = np.eye(dim) + spread * np.random.default_rng(seed).normal(size=(dim, dim))
    try:
        gen = learning.normalize_generator(raw, rate)
    except ResourceLimitError:  # too skewed for the enumeration cap
        return
    _assert_shared(learning._lattice_and_shell(gen, 1.0)[0], gen)
    other = np.nextafter(gen, np.inf)  # enumerated: not the normalization's generator
    _assert_shared(learning._lattice_and_shell(other, 1.0)[0], other)


@pytest.mark.parametrize("dim", [2, 4])
def test_the_codebook_a_learner_emits_is_build_lattices(dim):
    # The learner's output at R=3, with the codebook it was measured under:
    # the codebook the encoder and the server then share.
    h = 0.01 * np.random.default_rng(dim).normal(size=240)
    cfg = LearnerConfig(rate=3.0, epochs=2, batches=2, seed=7)
    [(out, lat)] = _learn_group([init_prior_net(dim, 11)], np.zeros(240), [h], cfg, [7], [None])
    assert lat.gen is out.gen
    _assert_shared(lat, out.gen)


def test_shared_codebooks_are_read_only():
    gen = learning.normalize_generator(GEN_HEXAGONAL, 3.0)
    for lat in (build_lattice(gen, 1.0), learning._lattice_and_shell(gen, 1.0)[0]):
        for a in (lat.index_set, lat.codebook, lat.inv):
            with pytest.raises(ValueError):
                a[0] = 0


def test_the_memo_widens_to_the_widest_box_under_the_cap():
    # Z^2 at radius 10.2 has a 23^2 = 529-candidate box; the 1.1x box has
    # 25^2 = 625, over a cap of 600, so the memo stores the 23^2 box's
    # widest radius, 11, and serves a slightly moved generator.
    cap, radius = 600, 10.2
    gen = np.eye(2)
    lattice._memo = None
    lattice._points_within(gen, np.linalg.inv(gen), radius, cap)
    stored = lattice._memo
    assert stored[1] == 11.0
    moved = gen + 1e-7 * np.random.default_rng(0).normal(size=(2, 2))
    got = lattice._points_within(moved, np.linalg.inv(moved), radius, cap)
    assert lattice._memo is stored  # served, not enumerated again
    lattice._memo = None
    ref = lattice._points_within(moved, np.linalg.inv(moved), radius, cap)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_the_widest_radius_keeps_its_box_under_the_cap(dim):
    rng = np.random.default_rng(dim)
    for _ in range(50):
        reach = float(rng.uniform(0.3, 30.0))
        cap = int(rng.integers(3**dim, 10**6))
        radius = float(rng.uniform(0.01, 1.0)) / reach
        wide = lattice._widest_radius(reach, dim, cap, radius)
        bound = int(math.ceil(wide * reach))
        assert wide >= radius and (2 * bound + 1) ** dim <= cap < (2 * bound + 3) ** dim


def _counting(monkeypatch):
    """Count fl.build_lattice calls by the side that makes them."""
    counts = {}
    side = ["run"]

    def staged(name, fn):
        def wrapper(*args, **kwargs):
            outer, side[0] = side[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                side[0] = outer

        return wrapper

    def build(*args, **kwargs):
        counts[side[0]] = counts.get(side[0], 0) + 1
        return real(*args, **kwargs)

    real = fl.build_lattice
    monkeypatch.setattr(fl, "build_lattice", build)
    monkeypatch.setattr(fl, "_encode_group", staged("client", fl._encode_group))
    monkeypatch.setattr(fl, "server_round", staged("server", fl.server_round))
    return counts


def test_a_fixed_quantizer_builds_its_codebook_once_per_run(monkeypatch):
    counts = _counting(monkeypatch)
    cfg = _cfg(quantizer="fixed_identity", rate=4.0)
    for _ in range(2):
        run_fl(cfg)
        assert counts == {"client": 1}
        counts.clear()


@pytest.mark.parametrize("adapt_every", [1, 2])
def test_a_serial_olala_run_builds_no_codebook(monkeypatch, adapt_every):
    # The server decodes each learned payload under the codebook its
    # learner measured it under, and a held generator is a learned one.
    counts = _counting(monkeypatch)
    run_fl(_cfg(quantizer="olala", adapt_every=adapt_every, rounds=4))
    assert counts == {}


def test_the_store_holds_one_rounds_generators(monkeypatch):
    # After each side of each round, the store holds exactly the
    # generators of that round's payloads, all marked with that round.
    seen = []

    def watched(fn, payloads):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            round_keys = {_key(p.gen) for p in payloads(args, out)}
            assert set(fl._codebooks) == round_keys and len(round_keys) <= 5
            seen.append({used for _, used in fl._codebooks.values()})
            return out

        return wrapper

    monkeypatch.setattr(fl, "_encode_group", watched(fl._encode_group, lambda args, out: out))
    monkeypatch.setattr(fl, "server_round", watched(fl.server_round, lambda args, out: args[0]))
    run_fl(_cfg(quantizer="olala", n_users=5, rounds=12))
    assert seen == [{t} for t in range(12) for _ in range(2)]


def _digest(result):
    payloads = [
        (p.uid, p.t, repr(p.zeta), p.pad, repr(p.distortion), repr(p.snr_db), p.codebook_size,
         p.adapted, p.gen.tobytes(), p.indices.tobytes(), p.recon.tobytes(),
         None if p.theta is None else p.theta.tobytes())
        for r in result.records for p in r.payloads
    ]
    rounds = [(repr(r.accuracy), repr(r.mean_snr_db), r.total_bits) for r in result.records]
    return result.params.tobytes(), result.lattice_log, rounds, payloads


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_static_per_user_runs_the_same_serial_and_parallel():
    # Each worker keeps its own store.  fixed_hex and olala with
    # adapt_every=2 are compared whole in test_lockstep_sgd.py and
    # test_lockstep_codec.py.
    cfg = _cfg(quantizer="static_per_user", rounds=4)
    assert _digest(run_fl(_cfg(quantizer="static_per_user", rounds=4, parallel=2))) == _digest(
        run_fl(cfg)
    )
