"""One input-scale fit for the learner and client_round."""

import warnings

import numpy as np
import pytest

import olala.learning as learning
from olala import rng
from olala.config import ExperimentConfig
from olala.data import partition_dataset, synthetic_dataset
from olala.fl import FIXED_GENERATORS, ClientState, client_round, local_train
from olala.lattice import build_lattice
from olala.learning import (
    LearnerConfig,
    _pinned_scale,
    init_prior_net,
    normalize_generator,
    online_lattice_learning,
    overload_heuristic_minus1,
)
from olala.models import init_params
from olala.sdq import DitherStream, fit_scale, split_vector


def _update(n=120, seed=3):
    rng_ = np.random.default_rng(seed)
    cov = np.array([[1.0, 0.6], [0.6, 0.8]])
    return (rng_.normal(size=(n, 2)) @ np.linalg.cholesky(cov).T).ravel()


@pytest.mark.parametrize("loss_kind", ["mse", "neg_snr"])
def test_one_scale_fit_per_measurement_and_step(monkeypatch, loss_kind):
    # Each measurement fits zeta once and each step once; the emitted zeta
    # is the winning measurement's, so emission fits none.
    counts = {"fit": 0, "measure": 0, "step": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(learning, "_fit_scale_pinned", counted("fit", learning._fit_scale_pinned))
    monkeypatch.setattr(learning, "_measure", counted("measure", learning._measure))
    step = "_measured_mse_grad" if loss_kind == "mse" else "_lattice_grad"
    monkeypatch.setattr(learning, step, counted("step", getattr(learning, step)))
    cfg = LearnerConfig(loss_kind=loss_kind, epochs=2, batches=4, rate=3.0, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        online_lattice_learning(init_prior_net(2, seed=1), np.zeros(1), _update(), cfg)
    assert counts["measure"] == 2 and counts["step"] == cfg.epochs * cfg.batches
    assert counts["fit"] == counts["measure"] + counts["step"]


@pytest.mark.parametrize("mode", ["fraction", "heuristic_minus1"])
def test_emitted_zeta_is_the_measured_one(mode):
    h = _update()
    cfg = LearnerConfig(
        loss_kind="mse", learning_rate=1e-4, epochs=3, rate=3.0, seed=7, overload_mode=mode
    )
    out = online_lattice_learning(init_prior_net(2, seed=2), np.zeros(1), h, cfg)
    blocks, _ = split_vector(h, 2)
    assert out.zeta == _pinned_scale(blocks, build_lattice(out.gen, 1.0), cfg)[0]


def _client(cfg):
    data_seed = rng.derive_seed(cfg.master_seed, rng.TAG_DATA)
    train = synthetic_dataset(
        cfg.synthetic_train_size, cfg.synthetic_features, cfg.n_classes,
        cfg.synthetic_noise, seed=data_seed, center_seed=data_seed,
    )
    shards = partition_dataset(
        train, cfg.n_users, seed=rng.derive_seed(cfg.master_seed, rng.TAG_DATA, 1)
    )
    sub = train.subset(shards[0])
    return ClientState(
        uid=0, shard_x=sub.features, shard_y=sub.labels,
        seed_root=rng.derive_seed(cfg.master_seed, rng.TAG_CLIENT_ROOT, 0),
        quantizer_kind=cfg.quantizer,
    )


@pytest.mark.parametrize("quantizer", ["fixed_hex", "olala"])
@pytest.mark.parametrize("mode", ["fraction", "heuristic_minus1"])
def test_client_round_zeta_matches_public_fit_scale(quantizer, mode):
    # client_round's zeta is public fit_scale (or the heuristic's) under the
    # round's probe dither stream, bit for bit.
    cfg = ExperimentConfig(
        quantizer=quantizer, overload_mode=mode, rate=2.0, local_steps=20, n_users=2,
        synthetic_train_size=400, synthetic_test_size=100, lattice_epochs=1,
    )
    client = _client(cfg)
    if quantizer in FIXED_GENERATORS:
        client.gen = normalize_generator(FIXED_GENERATORS[quantizer], cfg.rate)
    w = init_params(cfg.arch(), seed=9)
    t = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = client_round(client, w, t, cfg)
    h = local_train(
        cfg.arch(), w, client.shard_x, client.shard_y, cfg.local_steps, cfg.model_lr,
        rng.derive_seed(client.seed_root, t, rng.TAG_LOCAL_SGD),
    )
    blocks, _ = split_vector(h, cfg.lattice_dim)
    lat = build_lattice(p.gen, 1.0)
    probe = DitherStream(rng.derive_seed(client.seed_root, t, rng.TAG_PROBE_DITHER), p.gen)
    if mode == "fraction":
        ref = fit_scale(blocks, lat, probe, cfg.target_overload)
    else:
        ref = overload_heuristic_minus1(
            blocks, lat, probe, cfg.heuristic_target, cfg.heuristic_filter_sigma
        )
    assert p.zeta == ref
