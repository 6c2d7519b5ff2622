"""Each step of a round has one owner in fl: the learner call, the transmit
codec at both ends of the wire, and the update of a client's state.

The references below are the learner call as client_round and run_fl's
offline phase used to spell it out inline; the payloads must match them bit
for bit.
"""

import warnings

import numpy as np
import pytest

from olala import rng
from olala.config import ExperimentConfig
from olala.data import partition_dataset, synthetic_dataset
from olala.fl import ClientState, client_round, local_train, run_fl, server_round
from olala.learning import LearnerConfig, PriorNet, init_prior_net, online_lattice_learning
from olala.models import init_params, make_objective

warnings.filterwarnings("ignore", category=UserWarning)


def _cfg(**kw):
    base = dict(
        rounds=3, local_steps=20, synthetic_train_size=600, synthetic_test_size=200,
        rate=2.0, lattice_epochs=2, lattice_lr=1e-4, n_users=2,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _clients(cfg):
    data_seed = rng.derive_seed(cfg.master_seed, rng.TAG_DATA)
    train = synthetic_dataset(
        cfg.synthetic_train_size, cfg.synthetic_features, cfg.n_classes,
        cfg.synthetic_noise, seed=data_seed, center_seed=data_seed,
    )
    shards = partition_dataset(
        train, cfg.n_users, seed=rng.derive_seed(cfg.master_seed, rng.TAG_DATA, 1)
    )
    return [
        ClientState(
            uid=u, shard_x=train.features[shards[u]], shard_y=train.labels[shards[u]],
            seed_root=rng.derive_seed(cfg.master_seed, rng.TAG_CLIENT_ROOT, u),
            quantizer_kind=cfg.quantizer,
        )
        for u in range(cfg.n_users)
    ]


def _w0(cfg):
    return init_params(cfg.arch(), rng.derive_seed(cfg.master_seed, rng.TAG_MODEL_INIT))


def _reference_lcfg(cfg, seed):
    return LearnerConfig(
        loss_kind=cfg.loss_kind,
        learning_rate=cfg.lattice_lr,
        epochs=cfg.lattice_epochs,
        batches=cfg.lattice_batches,
        rate=cfg.rate,
        target_overload=cfg.target_overload,
        overload_mode=cfg.overload_mode,
        heuristic_target=cfg.heuristic_target,
        heuristic_filter_sigma=cfg.heuristic_filter_sigma,
        seed=seed,
    )


def _reference_learn(cfg, client, net, w, t):
    h = local_train(
        cfg.arch(), w, client.shard_x, client.shard_y, cfg.local_steps, cfg.model_lr,
        rng.derive_seed(client.seed_root, t, rng.TAG_LOCAL_SGD),
    )
    objective = (
        make_objective(cfg.arch(), client.shard_x, client.shard_y)
        if cfg.loss_kind == "task" else None
    )
    lcfg = _reference_lcfg(cfg, rng.derive_seed(client.seed_root, t, rng.TAG_LATTICE_LEARN))
    return online_lattice_learning(net, w, h, lcfg, objective=objective)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_client_round_leaves_a_fresh_olala_client_as_it_was():
    cfg = _cfg()
    client = _clients(cfg)[0]
    p = client_round(client, _w0(cfg), 0, cfg)
    assert client.net is None and client.gen is None
    assert p.adapted and p.theta is not None and p.gen is not None


@pytest.mark.parametrize("quantizer", ["olala", "static_per_user"])
def test_client_round_reads_an_existing_net_and_writes_none(quantizer):
    cfg = _cfg(quantizer=quantizer)
    client = _clients(cfg)[1]
    w = _w0(cfg)
    first = client_round(client, w, 0, cfg)
    net, gen = PriorNet(cfg.lattice_dim, first.theta.copy()), first.gen.copy()
    client.net, client.gen = net, gen
    theta_bytes, gen_bytes = net.theta.tobytes(), gen.tobytes()

    p = client_round(client, w, 1, cfg)
    assert client.net is net and client.gen is gen
    assert net.theta.tobytes() == theta_bytes and gen.tobytes() == gen_bytes
    if quantizer == "olala":
        learned = _reference_learn(cfg, client, net.copy(), w, 1)
        assert p.adapted
        assert _same(p.theta, learned.theta) and _same(p.gen, learned.gen)
    else:  # static_per_user adapts at t=0 only and keeps sending its state
        assert not p.adapted
        assert _same(p.theta, net.theta) and p.gen is gen


@pytest.mark.parametrize("loss_kind", ["mse", "task"])
def test_payload_equals_the_inline_learner_call(loss_kind):
    cfg = _cfg(loss_kind=loss_kind)
    w = _w0(cfg)
    for client in _clients(cfg):
        p = client_round(client, w, 0, cfg)
        net = init_prior_net(
            cfg.lattice_dim, rng.derive_seed(client.seed_root, rng.TAG_CLIENT_ROOT)
        )
        learned = _reference_learn(cfg, client, net, w, 0)
        assert _same(p.theta, learned.theta)
        assert _same(p.gen, learned.gen)


def _static_global_reference_gen(cfg):
    clients, w = _clients(cfg), _w0(cfg)
    updates = [
        local_train(
            cfg.arch(), w, c.shard_x, c.shard_y, cfg.local_steps, cfg.model_lr,
            rng.derive_seed(c.seed_root, rng.TAG_OFFLINE),
        )
        for c in clients
    ]
    net = init_prior_net(cfg.lattice_dim, rng.derive_seed(cfg.master_seed, rng.TAG_OFFLINE, 1))
    lcfg = _reference_lcfg(cfg, rng.derive_seed(cfg.master_seed, rng.TAG_OFFLINE, 2))
    return online_lattice_learning(net, w, np.concatenate(updates), lcfg).gen


def test_static_global_lattice_equals_the_inline_offline_learner_call():
    cfg = _cfg(quantizer="static_global", rounds=1)
    ref = _static_global_reference_gen(cfg)
    log = run_fl(cfg).lattice_log
    assert [e["u"] for e in log] == list(range(cfg.n_users))
    for entry in log:
        assert np.array_equal(np.array(entry["gen"]), ref.ravel())


@pytest.mark.parametrize("quantizer", ["olala", "static_per_user", "static_global"])
def test_server_round_is_the_mean_of_client_reconstructions(quantizer):
    cfg = _cfg(quantizer=quantizer, n_users=3)
    clients, w = _clients(cfg), _w0(cfg)
    if quantizer == "static_global":
        gen = _static_global_reference_gen(cfg)
        for c in clients:
            c.gen = gen
    for t in (0, 1):
        payloads = [client_round(c, w, t, cfg) for c in clients]
        total = np.zeros_like(w)
        for p in payloads:
            total += p.recon
        expect = w + total / cfg.n_users
        got = server_round(payloads, w, {c.uid: c.seed_root for c in clients}, t, cfg.n_users)
        assert _same(got, expect)
        for c, p in zip(clients, payloads):
            c.net = None if p.theta is None else PriorNet(cfg.lattice_dim, p.theta.copy())
            c.gen = p.gen
        w = got


@pytest.mark.parametrize(
    "kw", [dict(adapt_every=2), dict(quantizer="static_per_user")],
    ids=["adapt_every2", "static_per_user"],
)
def test_payload_state_is_the_same_serial_and_parallel(kw):
    cfg = _cfg(**kw)
    serial = run_fl(cfg)
    parallel = run_fl(_cfg(parallel=2, **kw))
    for rs, rp in zip(serial.records, parallel.records, strict=True):
        for ps, pp in zip(rs.payloads, rp.payloads, strict=True):
            assert _same(ps.theta, pp.theta)
            assert _same(ps.gen, pp.gen)
    assert _same(serial.params, parallel.params)
