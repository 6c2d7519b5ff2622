"""Local SGD runs one sample per step on prepared layer views and must equal
a plain loop of loss_and_grad steps bit for bit."""

import numpy as np
import pytest

import olala.fl as fl
from olala import rng
from olala.errors import NumericError
from olala.fl import local_train
from olala.models import ModelArch, _sgd_lockstep, init_params, loss_and_grad

ARCHS = {
    "linear": ModelArch("linear", (6, 4)),
    "mlp": ModelArch("mlp", (6, 8, 8, 4)),
}


def _reference_local_train(arch, params, x, y, steps, eta, seed):
    n = y.shape[0]
    w = params.copy()
    for s in range(steps):
        i = int(rng.stream_unit(seed, s) * n)
        try:
            _, grad = loss_and_grad(arch, w, x[i : i + 1], y[i : i + 1])
        except NumericError as exc:
            raise NumericError(f"non-finite loss at local step {s}") from exc
        w -= eta * grad
    return w - params


def _reference_loss_and_grad(arch, params, x, y):
    """loss_and_grad as it was written before local SGD had its own loop."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    n = x.shape[0]
    layers = []
    pos = 0
    for fi, fo in zip(arch.widths[:-1], arch.widths[1:]):
        w = params[pos : pos + fi * fo].reshape(fi, fo)
        pos += fi * fo
        layers.append((w, params[pos : pos + fo]))
        pos += fo
    acts = [x]
    a = x
    for w, b in layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    z = a @ layers[-1][0] + layers[-1][1]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.log(p[np.arange(n), y] + 1e-300).mean())
    dz = p
    dz[np.arange(n), y] -= 1.0
    dz /= n
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        grads.append(((acts[li].T @ dz).ravel(), dz.sum(axis=0)))
        if li > 0:
            dz = (dz @ layers[li][0].T) * (acts[li] > 0)
    return loss, np.concatenate([g for pair in reversed(grads) for g in pair])


def _shard(kind, seed, n=40, d=6, c=4):
    g = np.random.default_rng(seed)
    wide = 2.0 * g.normal(size=(n, d + 3))
    x = {
        "float64": np.ascontiguousarray(wide[:, :d]),
        "float32": wide[:, :d].astype(np.float32),
        "uint8": g.integers(0, 256, size=(n, d)).astype(np.uint8),
        "column_sliced": wide[:, 2 : d + 2],
    }[kind]
    return x, g.integers(0, c, size=n)


def _params_with_negative_zeros(arch, seed):
    # Weights at -0.0 keep the sign of a zero gradient entry visible.
    params = init_params(arch, seed)
    params[np.random.default_rng(seed).random(params.size) < 0.2] = -0.0
    return params


@pytest.mark.parametrize("kind", ["float64", "float32", "uint8", "column_sliced"])
@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_local_train_equals_loss_and_grad_loop_bit_for_bit(arch_name, kind):
    arch = ARCHS[arch_name]
    for seed in range(5):
        x, y = _shard(kind, seed)
        for params in (init_params(arch, seed), _params_with_negative_zeros(arch, seed)):
            for steps in (1, 100):
                got = local_train(arch, params, x, y, steps, 0.3, 1000 + seed)
                want = _reference_local_train(arch, params, x, y, steps, 0.3, 1000 + seed)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_each_step_subtracts_the_loss_and_grad_gradient_bit_for_bit(arch_name):
    # The weights after every step, not the update, so that the sign of each
    # zero gradient entry shows where a weight is still -0.0.
    arch = ARCHS[arch_name]
    for seed in range(5):
        x, y = _shard("float64", seed)
        want = _params_with_negative_zeros(arch, seed)
        got = want.copy()
        for s in range(x.shape[0]):
            want -= 0.3 * loss_and_grad(arch, want, x[s : s + 1], y[s : s + 1])[1]
            bad = _sgd_lockstep(arch, got, x[s : s + 1], y[s : s + 1], 0.3)
            assert got.tobytes() == want.tobytes()
            assert bad.shape == (1,) and not bad.any()


@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_rows_gathered_in_several_batches_train_the_same(monkeypatch, arch_name):
    arch = ARCHS[arch_name]
    x, y = _shard("uint8", 7)
    params = init_params(arch, 7)
    want = _reference_local_train(arch, params, x, y, 30, 0.1, 11)
    monkeypatch.setattr(fl, "_GATHER_STEPS", 7)
    assert local_train(arch, params, x, y, 30, 0.1, 11).tobytes() == want.tobytes()


@pytest.mark.parametrize("gather", [1024, 4])
@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_inf_in_the_row_of_step_k_names_step_k(monkeypatch, arch_name, gather):
    arch = ARCHS[arch_name]
    monkeypatch.setattr(fl, "_GATHER_STEPS", gather)
    x, y = _shard("float64", 3)
    seed, n = 21, y.shape[0]
    drawn = [int(rng.stream_unit(seed, s) * n) for s in range(20)]
    k = next(s for s in range(5, 20) if drawn[s] not in drawn[:s])
    x[drawn[k], 1] = np.inf
    params = init_params(arch, 3)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=f"^non-finite loss at local step {k}$"):
            local_train(arch, params, x, y, 20, 0.1, seed)
        with pytest.raises(NumericError, match=f"^non-finite loss at local step {k}$"):
            _reference_local_train(arch, params, x, y, 20, 0.1, seed)


def test_empty_shard_is_rejected_before_any_step():
    arch = ARCHS["linear"]
    x, y = np.zeros((0, 6)), np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^cannot train on an empty shard$"):
        local_train(arch, init_params(arch, 0), x, y, 5, 0.1, 1)


def test_steps_below_one_still_rejected():
    arch = ARCHS["linear"]
    x, y = _shard("float64", 0)
    with pytest.raises(ValueError, match="at least one local step"):
        local_train(arch, init_params(arch, 0), x, y, 0, 0.1, 1)


@pytest.mark.parametrize("rows", [1, 7, 400])
@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_loss_and_grad_bytes_unchanged(arch_name, rows):
    arch = ARCHS[arch_name]
    g = np.random.default_rng(rows)
    x = g.normal(size=(rows, 6))
    y = g.integers(0, 4, size=rows)
    params = _params_with_negative_zeros(arch, rows)
    loss, grad = loss_and_grad(arch, params, x, y)
    ref_loss, ref_grad = _reference_loss_and_grad(arch, params, x, y)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad.tobytes()
