"""Client/server protocol, aggregation, bits accounting, determinism."""

import math
import warnings

import numpy as np
import pytest

from olala import rng
from olala.config import ExperimentConfig
from olala.data import partition_dataset, synthetic_dataset
from olala.errors import ProtocolError
from olala.fl import (
    ClientState,
    bits_accounting,
    client_round,
    evaluate,
    load_model,
    local_train,
    run_fl,
    save_model,
    server_round,
    write_lattices_jsonl,
    write_rounds_csv,
)
from olala.models import ModelArch, init_params, loss_and_grad

warnings.filterwarnings("ignore", category=UserWarning)


def _small_cfg(**kw):
    base = dict(
        rounds=3,
        local_steps=20,
        synthetic_train_size=600,
        synthetic_test_size=200,
        rate=2.0,
        lattice_epochs=2,
        lattice_lr=1e-4,
        n_users=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _clients_for(cfg):
    data_seed = rng.derive_seed(cfg.master_seed, rng.TAG_DATA)
    train = synthetic_dataset(
        cfg.synthetic_train_size, cfg.synthetic_features, cfg.n_classes,
        cfg.synthetic_noise, seed=data_seed, center_seed=data_seed,
    )
    shards = partition_dataset(train, cfg.n_users, seed=rng.derive_seed(cfg.master_seed, rng.TAG_DATA, 1))
    clients = []
    for u in range(cfg.n_users):
        sub = train.subset(shards[u])
        clients.append(
            ClientState(
                uid=u, shard_x=sub.features, shard_y=sub.labels,
                seed_root=rng.derive_seed(cfg.master_seed, rng.TAG_CLIENT_ROOT, u),
            )
        )
    return clients


def test_bits_accounting_formula():
    assert bits_accounting(1000, 3.0, 2, include_zeta=False) == 3000 + 256
    assert bits_accounting(1000, 3.0, 2, include_zeta=True) == 3000 + 256 + 64
    # fractional rates round up
    assert bits_accounting(1000, 2.5, 2, include_zeta=False) == 2500 + 256
    assert bits_accounting(7, 2.5, 2, include_zeta=False) == math.ceil(17.5) + 256
    # metadata overhead is negligible for large models
    assert 256 / (64 * 10**6) < 1e-5
    with pytest.raises(ValueError):
        bits_accounting(0, 3.0, 2)
    with pytest.raises(ValueError):
        bits_accounting(10, -1.0, 2)


def test_local_train_zero_lr_gives_zero_update():
    arch = ModelArch("linear", (4, 3))
    params = init_params(arch, seed=0)
    x = np.random.default_rng(0).uniform(size=(20, 4))
    y = np.arange(20) % 3
    h = local_train(arch, params, x, y, steps=10, eta=0.0, seed=5)
    assert np.array_equal(h, np.zeros_like(params))


def test_local_train_single_step_matches_analytic_gradient():
    arch = ModelArch("linear", (4, 3))
    params = init_params(arch, seed=1)
    x = np.random.default_rng(1).uniform(size=(20, 4))
    y = np.arange(20) % 3
    seed = 77
    h = local_train(arch, params, x, y, steps=1, eta=0.2, seed=seed)
    i = int(rng.stream_unit(seed, 0) * 20)
    _, g = loss_and_grad(arch, params, x[i : i + 1], y[i : i + 1])
    assert np.allclose(h, -0.2 * g, atol=1e-15)
    assert not np.array_equal(params, params - h)  # original untouched


def test_client_payload_none_kind():
    cfg = _small_cfg(quantizer="none")
    clients = _clients_for(cfg)
    w = init_params(cfg.arch(), seed=9)
    p = client_round(clients[0], w, 0, cfg)
    assert p.kind == "none"
    assert p.bits == 64 * w.size
    assert p.raw_update is not None and p.raw_update.shape == w.shape
    assert p.distortion == 0.0


def test_client_payload_fixed_hex_index_count():
    cfg = _small_cfg(quantizer="fixed_hex")
    clients = _clients_for(cfg)
    w = init_params(cfg.arch(), seed=9)
    from olala.fl import FIXED_GENERATORS
    from olala.learning import normalize_generator

    for c in clients:
        c.gen = normalize_generator(FIXED_GENERATORS["fixed_hex"], cfg.rate)
    p = client_round(clients[0], w, 0, cfg)
    assert p.indices.shape[0] == math.ceil(w.size / cfg.lattice_dim)
    assert p.bits == bits_accounting(w.size, cfg.rate, cfg.lattice_dim, True)


def test_server_decode_matches_client_reconstruction_bitexactly():
    cfg = _small_cfg(quantizer="fixed_hex")
    clients = _clients_for(cfg)
    from olala.fl import FIXED_GENERATORS
    from olala.learning import normalize_generator

    gen = normalize_generator(FIXED_GENERATORS["fixed_hex"], cfg.rate)
    for c in clients:
        c.gen = gen
    w = init_params(cfg.arch(), seed=9)
    seeds = {c.uid: c.seed_root for c in clients}
    for t in range(2):
        payloads = [client_round(c, w, t, cfg) for c in clients]
        new_w = server_round(payloads, w, seeds, t, cfg.n_users)
        # reconstruct the server's view independently from seeds
        expected = w + sum(p.recon for p in payloads) / cfg.n_users
        assert np.array_equal(new_w, expected)
        w = new_w


def test_server_round_order_invariance_and_errors():
    cfg = _small_cfg(quantizer="none")
    clients = _clients_for(cfg)
    w = init_params(cfg.arch(), seed=9)
    seeds = {c.uid: c.seed_root for c in clients}
    payloads = [client_round(c, w, 0, cfg) for c in clients]
    a = server_round(payloads, w, seeds, 0, cfg.n_users)
    b = server_round(payloads[::-1], w, seeds, 0, cfg.n_users)
    assert np.array_equal(a, b)
    with pytest.raises(ProtocolError):
        server_round(payloads[:-1], w, seeds, 0, cfg.n_users)
    with pytest.raises(ProtocolError):
        server_round(payloads[:-1] + [payloads[0]], w, seeds, 0, cfg.n_users)


def test_uncompressed_matches_plain_fedavg_reference():
    # Straight-line FedAvg reimplementation must match run_fl bit-for-bit
    # when quantization is off.
    cfg = _small_cfg(quantizer="none", rounds=4)
    res = run_fl(cfg)
    clients = _clients_for(cfg)
    arch = cfg.arch()
    w = init_params(arch, rng.derive_seed(cfg.master_seed, rng.TAG_MODEL_INIT))
    for t in range(cfg.rounds):
        updates = []
        for c in clients:
            h = local_train(
                arch, w, c.shard_x, c.shard_y, cfg.local_steps, cfg.model_lr,
                rng.derive_seed(c.seed_root, t, rng.TAG_LOCAL_SGD),
            )
            updates.append(h)
        w = w + sum(updates) / cfg.n_users
    assert np.array_equal(res.params, w)


def test_distortion_bookkeeping_recomputable():
    # Recorded distortion must equal ||h_hat - h||^2 with h_hat decoded
    # offline from the payload and h regenerated from the client seed.
    cfg = _small_cfg(quantizer="fixed_hex", rounds=2)
    res = run_fl(cfg)
    clients = _clients_for(cfg)
    arch = cfg.arch()
    w = init_params(arch, rng.derive_seed(cfg.master_seed, rng.TAG_MODEL_INIT))
    from olala.lattice import build_lattice
    from olala.sdq import DitherStream, SdqCodec, decode_blocks, recombine

    for rec in res.records:
        for p in sorted(rec.payloads, key=lambda q: q.uid):
            c = clients[p.uid]
            h = local_train(
                arch, w, c.shard_x, c.shard_y, cfg.local_steps, cfg.model_lr,
                rng.derive_seed(c.seed_root, rec.t, rng.TAG_LOCAL_SGD),
            )
            lat = build_lattice(p.gen, 1.0)
            codec = SdqCodec(
                lattice=lat, zeta=p.zeta,
                dither=DitherStream(
                    rng.derive_seed(c.seed_root, rec.t, rng.TAG_TRANSMIT_DITHER), p.gen
                ),
            )
            d = codec.dither.draw(p.indices.shape[0])
            h_hat = recombine(decode_blocks(codec, p.indices, d), p.pad)
            assert p.recon.shape == (p.m,)
            assert np.array_equal(h_hat, p.recon)
            assert p.distortion == pytest.approx(float(((h_hat - h) ** 2).sum()), rel=1e-12)
        w = w + sum(q.recon for q in rec.payloads) / cfg.n_users


def test_run_fl_zero_rounds():
    cfg = _small_cfg(rounds=0, quantizer="none")
    res = run_fl(cfg)
    assert res.records == []
    w0 = init_params(cfg.arch(), rng.derive_seed(cfg.master_seed, rng.TAG_MODEL_INIT))
    assert np.array_equal(res.params, w0)


def test_run_fl_heuristic_scale_fit_with_few_blocks():
    # A linear model on 2 features and 3 classes has 9 weights, 5 blocks at
    # L=2: too few for the heuristic, so the client falls back to the plain
    # fit exactly as the learner does.
    cfg = _small_cfg(overload_mode="heuristic_minus1", synthetic_features=2, n_classes=3,
                     rounds=2)
    res = run_fl(cfg)
    assert len(res.records) == 2
    assert all(p.zeta > 0 for rec in res.records for p in rec.payloads)


def test_run_fl_determinism_and_parallel_equivalence(tmp_path):
    cfg = _small_cfg(quantizer="olala", rounds=2, n_users=3)
    r1 = run_fl(cfg)
    r2 = run_fl(cfg)
    assert np.array_equal(r1.params, r2.params)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rounds_csv(r1.records, str(p1))
    write_rounds_csv(r2.records, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    cfg_par = _small_cfg(quantizer="olala", rounds=2, n_users=3, parallel=3)
    r3 = run_fl(cfg_par)
    assert np.array_equal(r1.params, r3.params)
    assert r1.lattice_log == r3.lattice_log


def test_padding_conservation_odd_m():
    # model with odd parameter count: decoded length must equal m
    cfg = _small_cfg(quantizer="fixed_hex", rounds=1, model="mlp", mlp_hidden="5,4",
                     synthetic_features=8)
    m = cfg.arch().n_params
    assert m % 2 == 1
    res = run_fl(cfg)
    for p in res.records[0].payloads:
        assert p.recon.shape == (m,)
        assert p.pad == 1


def test_evaluate_against_accuracy():
    cfg = _small_cfg(quantizer="none", rounds=1)
    res = run_fl(cfg)
    data_seed = rng.derive_seed(cfg.master_seed, rng.TAG_DATA)
    test = synthetic_dataset(
        cfg.synthetic_test_size, cfg.synthetic_features, cfg.n_classes,
        cfg.synthetic_noise, seed=rng.derive_seed(data_seed, 1), center_seed=data_seed,
    )
    assert res.records[0].accuracy == evaluate(res.arch, res.params, test)


def test_adaptation_log_cadence():
    cfg = _small_cfg(quantizer="olala", rounds=4, adapt_every=2, n_users=2)
    res = run_fl(cfg)
    adapt_rounds = sorted({e["t"] for e in res.lattice_log})
    assert adapt_rounds == [0, 2]
    cfg2 = _small_cfg(quantizer="static_per_user", rounds=4, n_users=2)
    res2 = run_fl(cfg2)
    assert sorted({e["t"] for e in res2.lattice_log}) == [0]


def test_model_binary_roundtrip(tmp_path):
    arch = ModelArch("mlp", (9, 5, 4, 10))
    params = init_params(arch, seed=3)
    path = str(tmp_path / "model.bin")
    save_model(arch, params, path)
    arch2, params2 = load_model(path)
    assert arch2 == arch
    assert np.array_equal(params2, params)


def test_lattices_jsonl_format(tmp_path):
    cfg = _small_cfg(quantizer="fixed_hex", rounds=1)
    res = run_fl(cfg)
    path = tmp_path / "lattices.jsonl"
    write_lattices_jsonl(res.lattice_log, str(path))
    import json

    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(res.lattice_log) > 0
    row = json.loads(lines[0])
    assert set(row) == {"t", "u", "gen", "zeta", "codebook_size"}
    assert len(row["gen"]) == cfg.lattice_dim**2
