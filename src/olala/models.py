"""Classification models with hand-rolled gradients on flat parameter vectors.

Keeping parameters as one flat float64 vector makes the update h = w' - w a
plain array and lets the codec treat every model identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .rng import stream_unit_block

MODEL_KINDS = ("linear", "mlp")


@dataclass(frozen=True)
class ModelArch:
    """kind plus layer widths; widths for linear are (d, C)."""

    kind: str
    widths: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        need = 2 if self.kind == "linear" else 4
        if len(self.widths) != need:
            raise ValueError(f"{self.kind} model expects {need} widths, got {self.widths}")

    @property
    def n_params(self) -> int:
        total = 0
        for fi, fo in zip(self.widths[:-1], self.widths[1:]):
            total += fi * fo + fo
        return total


def init_params(arch: ModelArch, seed: int) -> np.ndarray:
    """Symmetric uniform fan-in initialization, zero biases."""
    parts = []
    pos = 0
    for fi, fo in zip(arch.widths[:-1], arch.widths[1:]):
        bound = 1.0 / np.sqrt(fi)
        u = stream_unit_block(seed, pos, fi * fo)
        pos += fi * fo
        parts.append((2.0 * u - 1.0) * bound)
        parts.append(np.zeros(fo))
    return np.concatenate(parts)


def _layers(arch: ModelArch, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views of each layer of a flat vector, W shaped (fan_in, fan_out);
    writing through a view writes the vector.  Leading axes of params, one
    flat vector per slot, carry over to every view."""
    lead = params.shape[:-1]
    layers = []
    pos = 0
    for fi, fo in zip(arch.widths[:-1], arch.widths[1:]):
        w = params[..., pos : pos + fi * fo].reshape(*lead, fi, fo)
        pos += fi * fo
        b = params[..., pos : pos + fo]
        pos += fo
        layers.append((w, b))
    return layers


def _forward(layers, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The input of every layer, x first, and the logits."""
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    w, b = layers[-1]
    return acts, acts[-1] @ w + b


def logits(arch: ModelArch, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward pass; x is (n, d) or (d,)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _forward(_layers(arch, params), x)[1]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(
    arch: ModelArch, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient (flat vector)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    n = x.shape[0]
    layers = _layers(arch, params)
    acts, z = _forward(layers, x)
    p = _softmax(z)
    eps = 1e-300  # log underflow guard only; probabilities stay unnormalized-free
    loss = float(-np.log(p[np.arange(n), y] + eps).mean())
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")
    dz = p
    dz[np.arange(n), y] -= 1.0
    dz /= n
    grad = np.empty(arch.n_params)
    for li, (gw, gb) in reversed(list(enumerate(_layers(arch, grad)))):
        gw[...] = acts[li].T @ dz
        gb[...] = dz.sum(axis=0)
        if li > 0:
            dz = (dz @ layers[li][0].T) * (acts[li] > 0)
    return loss, grad


def _sgd_steps(
    arch: ModelArch,
    w: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    eta: float,
    first_step: int,
) -> None:
    """Single-sample SGD on w in place, one step per row of (x, y) in order.

    Each step subtracts eta times loss_and_grad(arch, w, x[s:s+1],
    y[s:s+1])'s gradient, bit for bit: the same (1, k) @ (k, n) forward and
    dz @ W.T backward products.  A one-row weight gradient is the outer
    product a_k dz_n and a bias gradient is dz, with no sum; loss_and_grad's
    matmul and row sum form 0 + each, which differs only in turning -0.0
    into +0.0, so one `+= 0.0` on the gradient buffer per step does the
    same.  The layer views of w and of that buffer are made once per call,
    and x is converted to float64 once.  The first non-finite loss raises
    NumericError naming its step as first_step + s.
    """
    layers = _layers(arch, w)
    grad = np.empty_like(w)
    grads = _layers(arch, grad)
    w_out, b_out = layers[-1]
    x = np.asarray(x, dtype=np.float64)
    for s, label in enumerate(np.asarray(y, dtype=np.int64).tolist()):
        a = x[s : s + 1]
        acts = [a]
        for wl, bl in layers[:-1]:
            a = a @ wl
            a += bl
            np.maximum(a, 0.0, out=a)
            acts.append(a)
        p = a @ w_out
        p += b_out
        p -= p.max()
        np.exp(p, out=p)
        p /= p.sum()
        if not math.isfinite(math.log(p[0, label] + 1e-300)):
            raise NumericError(f"non-finite loss at local step {first_step + s}")
        p[0, label] -= 1.0
        dz = p
        for li in range(len(layers) - 1, -1, -1):
            gw, gb = grads[li]
            np.multiply(acts[li].T, dz, out=gw)
            gb[...] = dz[0]
            if li > 0:
                dz = dz @ layers[li][0].T
                dz *= acts[li] > 0
        grad += 0.0
        grad *= eta
        w -= grad


def predict(arch: ModelArch, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.argmax(logits(arch, params, x), axis=1)


def accuracy(arch: ModelArch, params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions."""
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return float(np.mean(predict(arch, params, x) == np.asarray(y)))


def make_objective(arch: ModelArch, x: np.ndarray, y: np.ndarray):
    """Full-shard objective closure: params -> (loss, grad)."""

    def objective(params: np.ndarray):
        return loss_and_grad(arch, params, x, y)

    return objective
