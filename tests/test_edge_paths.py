"""Edge and error paths: degenerate training, wire formats, warnings."""

import numpy as np
import pytest

import olala.learning as learning
from olala.errors import GeometryError
from olala.lattice import GEN_HEXAGONAL, TruncatedLattice, build_lattice, nearest_point_batch, rate_of
from olala.learning import (
    LearnerConfig,
    LearnedLattice,
    init_prior_net,
    normalize_generator,
    online_lattice_learning,
    pack_learned_lattice,
    unpack_learned_lattice,
)
from olala.sdq import DitherStream, SdqCodec, decode_blocks, encode_blocks, fit_scale, sdq_encode


def test_rate_of_formula_on_handmade_codebook():
    # quantization rate is a pure function of codebook size and dimension
    lat = TruncatedLattice(
        gen=np.array([[1.0]]), gamma=1.0,
        index_set=np.array([[0], [1]]), codebook=np.array([[0.0], [1.0]]),
    )
    assert rate_of(lat) == 1.0


def test_roundtrip_error_lies_in_basic_cell():
    # non-overloaded roundtrip: the error is the negated cell offset of x+d,
    # so its nearest lattice point is the origin
    lat = build_lattice(GEN_HEXAGONAL, 4.0)
    codec = SdqCodec(lattice=lat, zeta=1.0, dither=DitherStream(3, GEN_HEXAGONAL))
    rng_ = np.random.default_rng(0)
    x = rng_.uniform(-1.5, 1.5, size=(2000, 2))
    d = codec.dither.draw(2000)
    rec = decode_blocks(codec, encode_blocks(codec, x, d), d)
    err = rec - x
    assert (nearest_point_batch(GEN_HEXAGONAL, err) == 0).all()


def test_sdq_encode_dimension_mismatch():
    lat = build_lattice(np.eye(2), 1.0)
    codec = SdqCodec(lattice=lat, zeta=1.0, dither=DitherStream(1, np.eye(2)))
    with pytest.raises(ValueError):
        sdq_encode(codec, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        sdq_encode(codec, np.zeros(2), np.zeros(1))


def test_fit_scale_infeasible_bracket_floor():
    # single-codeword lattice: the dither cell alone exceeds the support,
    # so no scale meets a zero-overload target
    lat = build_lattice(5.0 * np.eye(2), 1.0)
    assert lat.size == 1
    with pytest.warns(UserWarning, match="no feasible scale"):
        zeta = fit_scale(np.ones((50, 2)), lat, DitherStream(2, 5.0 * np.eye(2)), 0.0)
    assert zeta == pytest.approx(1e-9)


def test_learned_lattice_metadata_roundtrip():
    gen = normalize_generator(GEN_HEXAGONAL, 2.5)
    learned = LearnedLattice(gen=gen, zeta=3.25, theta=np.zeros(1))
    blob = pack_learned_lattice(learned)
    assert len(blob) == 4 + 8 * 4 + 8
    gen2, zeta2 = unpack_learned_lattice(blob)
    assert np.array_equal(gen2, gen)
    assert zeta2 == 3.25
    with pytest.raises(ValueError):
        unpack_learned_lattice(blob[:-1])


def _learning_inputs(seed=0):
    rng_ = np.random.default_rng(seed)
    h = (rng_.normal(size=(120, 2)) * np.array([1.0, 0.3])).ravel()
    return init_prior_net(2, seed=1), h


def test_degenerate_training_reverts_and_recovers(monkeypatch):
    # Fail normalization on two early batch steps: the learner must revert,
    # shrink the step, and still emit a valid lattice.
    net, h = _learning_inputs()
    cfg = LearnerConfig(loss_kind="mse", learning_rate=1e-4, epochs=2, batches=4,
                        rate=2.0, seed=9)
    real = learning._normalize
    calls = {"n": 0}

    def flaky(raw, rate, gamma, slot=None):
        calls["n"] += 1
        if calls["n"] in (2, 3):  # first measurement passes; two batches fail
            raise GeometryError("synthetic degeneracy")
        return real(raw, rate, gamma, slot)

    monkeypatch.setattr(learning, "_normalize", flaky)
    out = online_lattice_learning(net, np.zeros(1), h, cfg)
    assert build_lattice(out.gen, 1.0).size <= 16
    assert np.all(np.isfinite(out.theta))


def test_degenerate_training_aborts_to_best_so_far(monkeypatch):
    # Every batch fails: after three reversions the loop aborts and the
    # warm-start checkpoint wins.
    net, h = _learning_inputs(seed=3)
    theta0 = net.theta.copy()
    cfg = LearnerConfig(loss_kind="mse", learning_rate=1e-4, epochs=5, batches=4,
                        rate=2.0, seed=11)
    real = learning._normalize
    calls = {"n": 0}

    def broken(raw, rate, gamma, slot=None):
        calls["n"] += 1
        if calls["n"] > 1:  # only the initial measurement succeeds
            raise GeometryError("synthetic degeneracy")
        return real(raw, rate, gamma, slot)

    monkeypatch.setattr(learning, "_normalize", broken)
    out = online_lattice_learning(net, np.zeros(1), h, cfg)
    assert np.array_equal(out.theta, theta0)


def test_distortion_never_inflates_exactly():
    # The safeguard guarantees the emitted weights never measure worse than
    # the warm start under the learner's own deterministic metric, even at a
    # destabilizing learning rate.
    from olala.learning import _measured_mse
    from olala.sdq import split_vector

    net, h = _learning_inputs(seed=5)
    blocks, _ = split_vector(h, 2)
    for lr in (1e-4, 1e-2, 1.0):
        cfg = LearnerConfig(loss_kind="mse", learning_rate=lr, epochs=4, batches=4,
                            rate=2.0, seed=13)
        out = online_lattice_learning(net.copy(), np.zeros(1), h, cfg)
        before = _measured_mse(net.theta, 2, blocks, cfg)
        after = _measured_mse(out.theta, 2, blocks, cfg)
        assert after <= before


def test_reset_theta_each_round_flag():
    import warnings

    from olala.config import ExperimentConfig
    from olala.fl import run_fl

    warnings.filterwarnings("ignore", category=UserWarning)
    base = dict(rounds=2, local_steps=10, synthetic_train_size=400,
                synthetic_test_size=100, n_users=2, quantizer="olala",
                lattice_epochs=2, lattice_lr=1e-3)
    warm = run_fl(ExperimentConfig(reset_theta_each_round=False, **base))
    cold = run_fl(ExperimentConfig(reset_theta_each_round=True, **base))
    # round-1 lattices differ because the warm run kept adapted weights
    w1 = [e for e in warm.lattice_log if e["t"] == 1]
    c1 = [e for e in cold.lattice_log if e["t"] == 1]
    assert w1 and c1 and w1 != c1
