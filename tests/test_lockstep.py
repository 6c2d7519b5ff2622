"""The lockstep group learner: a round's adapting clients learn as one
stacked computation, and each client's result is the one it gets alone."""

import numpy as np
import pytest

import olala.lattice as lattice
import olala.learning as learning
from olala import rng
from olala.config import ExperimentConfig
from olala.errors import GeometryError
from olala.fl import _round_group, client_round, run_fl
from olala.lattice import _cube_search, _quantize_slots, build_lattice, quantize_batch
from olala.learning import (
    LearnerConfig,
    _backward,
    _forward_cached,
    _learn_group,
    init_prior_net,
    normalize_generator,
    online_lattice_learning,
)
from olala.models import init_params
from olala.sdq import _fit_scale_pinned

from test_round_paths import _clients, _same

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

U = 5


def _group_inputs(n=5, loss_kind="mse", warm=None, **kw):
    draw = np.random.default_rng(11)
    cov = np.array([[1.0, 0.6], [0.6, 0.8]])
    hs = [(draw.normal(size=(90, 2)) @ np.linalg.cholesky(cov).T).ravel() * 0.01 for _ in range(n)]
    nets = [init_prior_net(2, seed=30 + k, warm_start=warm if k == 2 else None) for k in range(n)]
    base = dict(loss_kind=loss_kind, epochs=2, batches=4, rate=3.0, learning_rate=1e-3)
    base.update(kw)
    cfgs = [LearnerConfig(seed=100 + k, **base) for k in range(n)]
    return nets, hs, cfgs


def _objective(v):
    return float(v @ v), 2.0 * v


def _alone(nets, hs, cfgs, loss_kind):
    objective = _objective if loss_kind == "task" else None
    return [
        online_lattice_learning(net.copy(), h, h, cfg, objective)
        for net, h, cfg in zip(nets, hs, cfgs)
    ]


def _assert_same_learned(got, ref):
    assert _same(got.gen, ref.gen)
    assert _same(got.theta, ref.theta)
    assert got.zeta == ref.zeta and type(got.zeta) is float


@pytest.mark.parametrize("loss_kind", ["mse", "neg_snr", "task"])
def test_group_slot_learns_what_it_learns_alone(loss_kind):
    # One group of 5, and the chunks of 3 and 2 that --parallel 2 runs.
    nets, hs, cfgs = _group_inputs(loss_kind=loss_kind)
    objectives = [_objective if loss_kind == "task" else None] * U
    whole = _learn_group([n.copy() for n in nets], hs, hs, cfgs, objectives)
    chunks = [
        _learn_group([n.copy() for n in nets[a:b]], hs[a:b], hs[a:b], cfgs[a:b], objectives[a:b])
        for a, b in ((0, 3), (3, U))
    ]
    alone = _alone(nets, hs, cfgs, loss_kind)
    for (learned, lat), (part, _), ref in zip(whole, chunks[0] + chunks[1], alone):
        _assert_same_learned(learned, ref)
        _assert_same_learned(part, ref)
        assert _same(lat.codebook, build_lattice(ref.gen, 1.0).codebook)


@pytest.mark.parametrize("fail_on", [(2, 3), "after_start"], ids=["reverts", "aborts"])
def test_a_failing_slot_leaves_its_group_alone(monkeypatch, fail_on):
    # Slot 2 starts from an identity-like warm start; normalization fails
    # for its raw matrices only, so it reverts twice or aborts, in the group
    # and alone alike, and every other slot learns what it learns alone.
    nets, hs, cfgs = _group_inputs(warm=np.eye(2))
    real = learning.normalize_generator
    calls = {"n": 0}

    def flaky(raw, rate, gamma=1.0):
        if abs(raw[0, 1]) < 0.25:  # the identity-like slot; hexagonal has 0.5
            calls["n"] += 1
            if (calls["n"] in fail_on) if isinstance(fail_on, tuple) else calls["n"] > 1:
                raise GeometryError("synthetic degeneracy")
        return real(raw, rate, gamma)

    monkeypatch.setattr(learning, "normalize_generator", flaky)
    group = _learn_group([n.copy() for n in nets], hs, hs, cfgs, [None] * U)
    group_calls, calls["n"] = calls["n"], 0
    alone = _alone(nets, hs, cfgs, "mse")
    assert calls["n"] == group_calls > 1
    for (learned, _), ref in zip(group, alone):
        _assert_same_learned(learned, ref)
    if fail_on == "after_start":
        assert _same(group[2][0].theta, nets[2].theta)


def _cfg(**kw):
    base = dict(
        rounds=2, local_steps=20, synthetic_train_size=600, synthetic_test_size=200,
        rate=3.0, lattice_epochs=2, lattice_lr=1e-3, n_users=U,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _payload_bytes(p):
    return (p.gen.tobytes(), p.theta.tobytes(), p.indices.tobytes(), p.recon.tobytes(), p.zeta)


def test_payload_is_the_same_alone_in_a_group_and_under_parallel():
    cfg = _cfg()
    clients = _clients(cfg)
    w = init_params(cfg.arch(), rng.derive_seed(cfg.master_seed, rng.TAG_MODEL_INIT))
    group = _round_group(clients, w, 0, cfg)
    alone = [client_round(c, w, 0, cfg) for c in clients]
    serial = run_fl(cfg).records[0].payloads
    parallel = run_fl(_cfg(parallel=2)).records[0].payloads
    for g, a, s, p in zip(group, alone, serial, parallel, strict=True):
        assert _payload_bytes(g) == _payload_bytes(a) == _payload_bytes(s) == _payload_bytes(p)


def _count_forward(monkeypatch):
    counts = {"n": 0}
    real = learning._forward_cached

    def counted(*args):
        counts["n"] += 1
        return real(*args)

    monkeypatch.setattr(learning, "_forward_cached", counted)
    return counts


@pytest.mark.parametrize("n_slots", [1, U])
@pytest.mark.parametrize("loss_kind", ["mse", "neg_snr"])
def test_one_forward_pass_per_measurement_and_step(monkeypatch, n_slots, loss_kind):
    nets, hs, cfgs = _group_inputs(n_slots, loss_kind=loss_kind)
    counts = _count_forward(monkeypatch)
    if n_slots == 1:
        online_lattice_learning(nets[0], hs[0], hs[0], cfgs[0])
    else:
        _learn_group(nets, hs, hs, cfgs, [None] * n_slots)
    cfg = cfgs[0]
    assert counts["n"] == 1 + cfg.epochs * cfg.batches + 1  # start, steps, final weights


def _fresh_per_slot(monkeypatch, nets, hs, cfgs):
    """Fresh box enumerations charged to each slot of one group run."""
    fresh = [0] * len(nets)
    current = [None]
    position = {cfg.seed: k for k, cfg in enumerate(cfgs)}
    real_enumerate, real_codebook = lattice._enumerate, learning._codebook

    def enumerate_(*args):
        fresh[current[0]] += 1
        return real_enumerate(*args)

    def codebook(raw, slots, k):
        current[0] = position[slots.seeds[k]]
        return real_codebook(raw, slots, k)

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_enumerate", enumerate_)
        patch.setattr(learning, "_codebook", codebook)
        patch.setattr(lattice, "_memo", None)
        _learn_group([n.copy() for n in nets], hs, hs, cfgs, [None] * len(nets))
    return fresh


def test_a_slot_enumerates_no_more_boxes_in_a_group_than_alone(monkeypatch):
    nets, hs, cfgs = _group_inputs(learning_rate=1e-2)
    group = _fresh_per_slot(monkeypatch, nets, hs, cfgs)
    alone = [
        _fresh_per_slot(monkeypatch, [nets[k]], [hs[k]], [cfgs[k]])[0] for k in range(U)
    ]
    assert all(0 < g <= a for g, a in zip(group, alone))


@pytest.mark.parametrize("bad", [float("nan"), -1e-2, float("inf"), 0.0])
def test_learner_config_rejects_a_bad_learning_rate(bad):
    with pytest.raises(ValueError, match="learning_rate"):
        LearnerConfig(learning_rate=bad)


def _stacked_trial(draw, dim):
    gens = np.stack([np.eye(dim) + 0.3 * draw.normal(size=(dim, dim)) for _ in range(U)])
    return gens, np.linalg.inv(gens)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stacked_ops_give_each_slot_its_own_bits(dim):
    # Every op the group learner stacks returns, for each slot, the bits
    # that slot gets alone, at the learner's shapes.
    draw = np.random.default_rng(dim)
    for trial in range(20):
        gens, invs = _stacked_trial(draw, dim)
        rows = int(draw.choice([11, 44, 85, 340]))
        xs = 2.0 * draw.normal(size=(U, rows, dim))
        out, cert = _cube_search(gens, invs, xs, certify=True)
        for k in range(U):
            ref = _cube_search(gens[k], invs[k], xs[k], certify=True)
            assert _same(out[k], ref[0]) and _same(cert[k], ref[1])

        lats = [
            build_lattice(normalize_generator(np.eye(dim) + 0.1 * (g - np.eye(dim)), 2.0), 1.0)
            for g in gens
        ]
        ys = 1.2 * draw.normal(size=(U, rows, dim)) / np.sqrt(dim)
        coef = _quantize_slots(lats, ys)
        for k, lat in enumerate(lats):
            assert _same(coef[k], lat.index_set[quantize_batch(lat, ys[k])])

        blocks = draw.normal(size=(U, rows, dim)) * draw.choice([1e-3, 1.0])
        d = 0.4 * draw.normal(size=(U, rows, dim))
        zeta, pins = _fit_scale_pinned(blocks, 1.0, d, 0.02)
        for k in range(U):
            z, p = _fit_scale_pinned(blocks[k : k + 1], 1.0, d[k : k + 1], 0.02)
            assert zeta[k] == z[0] and pins[k] == p[0]

        theta = np.stack([init_prior_net(dim, seed=trial + k).theta for k in range(U)])
        theta += 0.05 * draw.normal(size=theta.shape)
        raw, cache = _forward_cached(theta, dim)
        dout = draw.normal(size=(U, dim * dim))
        grad = _backward(theta, dim, cache, dout)
        for k in range(U):
            raw_k, cache_k = _forward_cached(theta[k], dim)
            assert _same(raw[k], raw_k)
            assert _same(grad[k], _backward(theta[k], dim, cache_k, dout[k]))
