"""A round's clients run local SGD as one lockstep group (fl._train_group):
each client's update must equal training it alone, bit for bit, for any
group, gather size and shard dtype; a non-finite loss must raise what
training the clients one after another raises; and a chunk gathers at most
_GATHER_STEPS rows across the whole group."""

import tracemalloc

import numpy as np
import pytest

import olala.fl as fl
from olala import rng
from olala.config import ExperimentConfig
from olala.errors import NumericError
from olala.fl import _train_group, local_train, run_fl
from olala.models import ModelArch, init_params, loss_and_grad

ARCHS = {
    "linear": ModelArch("linear", (6, 4)),
    "mlp": ModelArch("mlp", (6, 8, 8, 4)),
}
DTYPES = ("float64", "float32", "uint8")


def _reference_local_train(arch, params, x, y, steps, eta, seed):
    """A plain loop of one-row loss_and_grad steps."""
    n = y.shape[0]
    w = params.copy()
    for s in range(steps):
        i = int(rng.stream_unit(seed, s) * n)
        w -= eta * loss_and_grad(arch, w, x[i : i + 1], y[i : i + 1])[1]
    return w - params


def _shards(count, seed, d=6, c=4):
    """count shards of unequal sizes whose dtypes take turns."""
    g = np.random.default_rng(seed)
    shards = []
    for k in range(count):
        n = 5 + 7 * k + int(g.integers(0, 5))
        if DTYPES[k % 3] == "uint8":
            x = g.integers(0, 256, size=(n, d)).astype(np.uint8)
        else:
            x = (2.0 * g.normal(size=(n, d))).astype(DTYPES[k % 3])
        shards.append((x, g.integers(0, c, size=n)))
    return shards


def _serial_train_group(arch, params, shards, steps, eta, seeds):
    """The clients trained one after another, each as a group of one."""
    return [
        _train_group(arch, params, [shard], steps, eta, [seed])[0]
        for shard, seed in zip(shards, seeds)
    ]


@pytest.mark.parametrize("gather", [1024, 4])
@pytest.mark.parametrize("arch_name", sorted(ARCHS))
@pytest.mark.parametrize("count", range(1, 8))
def test_group_updates_equal_each_client_trained_alone(monkeypatch, count, arch_name, gather):
    monkeypatch.setattr(fl, "_GATHER_STEPS", gather)
    arch = ARCHS[arch_name]
    shards = _shards(count, count)
    params = init_params(arch, count)
    params[np.random.default_rng(count).random(params.size) < 0.2] = -0.0
    seeds = [rng.derive_seed(count, rng.TAG_LOCAL_SGD, k) for k in range(count)]
    for steps in (1, 23):
        got = _train_group(arch, params, shards, steps, 0.2, seeds)
        assert len(got) == count
        for h, (x, y), seed in zip(got, shards, seeds):
            alone = local_train(arch, params, x, y, steps, 0.2, seed)
            looped = _reference_local_train(arch, params, x, y, steps, 0.2, seed)
            assert h.tobytes() == alone.tobytes() == looped.tobytes()


def _payload_bytes(p):
    arrays = (p.gen, p.indices, p.raw_update, p.theta, p.recon)
    return (
        p.uid, p.t, p.m, p.kind, p.bits, repr(p.zeta), p.pad, repr(p.distortion),
        repr(p.snr_db), p.codebook_size, p.adapted,
        *(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays),
    )


def _run_bytes(result):
    return (
        result.params.tobytes(),
        result.lattice_log,
        [(r.t, repr(r.accuracy), r.total_bits, [_payload_bytes(p) for p in r.payloads])
         for r in result.records],
    )


def _cfg(**kw):
    base = dict(
        rounds=2, local_steps=30, synthetic_train_size=400, synthetic_test_size=100,
        rate=2.0, lattice_epochs=1, n_users=4, model="mlp", mlp_hidden="8,8",
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("quantizer", ["static_global", "fixed_hex", "olala"])
def test_a_run_equals_the_run_that_trains_its_clients_one_by_one(monkeypatch, quantizer):
    cfg = _cfg(quantizer=quantizer)
    lockstep = _run_bytes(run_fl(cfg))
    with monkeypatch.context() as mp:
        mp.setattr(fl, "_train_group", _serial_train_group)
        serial = _run_bytes(run_fl(cfg))
    assert lockstep == serial
    assert _run_bytes(run_fl(_cfg(quantizer=quantizer, parallel=2))) == serial


@pytest.mark.parametrize("gather", [1024, 4, 2])
def test_the_lowest_failing_client_names_its_first_failing_step(monkeypatch, gather):
    # Client 0 fails at step 12 and client 2 at step 3: trained one after
    # another, client 0 raises first, so the group must too.
    monkeypatch.setattr(fl, "_GATHER_STEPS", gather)
    arch = ARCHS["mlp"]
    shards = [(x.astype(np.float64), y) for x, y in _shards(3, 5)]
    seeds = []
    for k, fail_at in ((0, 12), (1, None), (2, 3)):
        x, y = shards[k]
        seed = 100 * k
        while True:
            drawn = [int(rng.stream_unit(seed, s) * y.shape[0]) for s in range(20)]
            if fail_at is None or drawn[fail_at] not in drawn[:fail_at]:
                break
            seed += 1
        if fail_at is not None:
            x[drawn[fail_at], 2] = np.inf
        seeds.append(seed)
    params = init_params(arch, 5)
    message = "^non-finite loss at local step 12$"
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=message):
            _serial_train_group(arch, params, shards, 20, 0.1, seeds)
        with pytest.raises(NumericError, match=message):
            _train_group(arch, params, shards, 20, 0.1, seeds)
        with pytest.raises(NumericError, match="^non-finite loss at local step 3$"):
            _train_group(arch, params, shards[1:], 20, 0.1, seeds[1:])


def test_a_chunk_gathers_at_most_the_gather_bound_across_the_group():
    # 40 clients of 784-wide pixels, 100 steps each: gathered per client, the
    # rows alone would take 40 * 100 * 784 * 8 bytes = 25 MB.
    count, steps, d = 40, 100, 784
    arch = ModelArch("linear", (d, 10))
    g = np.random.default_rng(0)
    shards = [
        (g.integers(0, 256, size=(30, d)).astype(np.uint8), g.integers(0, 10, size=30))
        for _ in range(count)
    ]
    params = init_params(arch, 0)
    weights = 3 * count * params.nbytes  # the group's weights, gradient and updates
    rows = fl._GATHER_STEPS * d * 8
    tracemalloc.start()
    try:
        _train_group(arch, params, shards, steps, 1e-4, list(range(count)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weights + 1.5 * rows
