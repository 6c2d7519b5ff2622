"""Classification models with hand-rolled gradients on flat parameter vectors.

Keeping parameters as one flat float64 vector makes the update h = w' - w a
plain array and lets the codec treat every model identically.
"""

from __future__ import annotations

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


def _sgd_lockstep(
    arch: ModelArch, w: np.ndarray, x: np.ndarray, y: np.ndarray, eta: float
) -> np.ndarray:
    """Single-sample SGD in place on every slot of w, one step per row of
    (x, y) in order, the slots in lockstep.  w is one flat vector (n,) with
    x (steps, d) and y (steps,), or one per slot, (U, n) with x
    (U, steps, d) and y (U, steps).  Returns a boolean array shaped like
    y: True where that step's loss was non-finite.

    Each slot's step subtracts eta times loss_and_grad(arch, w, x[s:s+1],
    y[s:s+1])'s gradient, bit for bit: every product is a slot-axis matmul
    whose slices are the same (1, k) @ (k, n) forward and dz @ W.T backward
    products, and the softmax's max and sum run along each slot's last
    axis.  A one-row weight gradient is the outer product a_k dz_n and a
    bias gradient is dz, with no sum; loss_and_grad's matmul and row sum
    form 0 + each, which differs only in turning -0.0 into +0.0, so one
    `+= 0.0` on the gradient buffer per step does the same.  Each layer's
    dz is formed in place in its bias slot of that buffer, and the step's
    label entries are reached through one flat index into it.  The layer
    views and activation buffers are made once per call, and x is
    converted to float64 once.  The loss is non-finite exactly when the
    label's probability is NaN, which is when the softmax's sum is NaN;
    those sums are kept and read once, after the last step, and a slot
    whose loss went non-finite trains on, in NaN, without touching the
    others.
    """
    lead = w.shape[:-1]
    layers = _layers(arch, w)
    grad = np.empty_like(w)
    grads = [(gw, gb[..., None, :]) for gw, gb in _layers(arch, grad)]
    biases = [b[..., None, :] for _, b in layers]
    backs = [wl.mT for wl, _ in layers]
    hidden = [np.empty(lead + (1, fo)) for fo in arch.widths[1:-1]]
    hidden_t = [h.mT for h in hidden]
    y = np.asarray(y, dtype=np.int64)
    # Flat index into grad of each step's label entry in the last bias slot.
    labels = y + (arch.n_params - arch.widths[-1])
    if lead:
        labels = (labels + arch.n_params * np.arange(lead[0])[:, None]).T.copy()
    else:
        labels = labels.tolist()
    flat = grad.reshape(-1)
    xs = np.moveaxis(np.asarray(x, dtype=np.float64), -2, 0)[..., None, :]
    sums = np.empty((len(labels),) + lead + (1, 1))
    for a, label, total in zip(xs, labels, sums):
        acts_t = [a.mT] + hidden_t
        for (wl, _), bl, h in zip(layers, biases, hidden):
            np.matmul(a, wl, out=h)
            h += bl
            np.maximum(h, 0.0, out=h)
            a = h
        p = np.matmul(a, layers[-1][0], out=grads[-1][1])
        p += biases[-1]
        p -= np.maximum.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=-1, keepdims=True, out=total)
        flat[label] -= 1.0
        for li in range(len(layers) - 1, -1, -1):
            gw, dz = grads[li]
            np.multiply(acts_t[li], dz, out=gw)
            if li > 0:
                below = np.matmul(dz, backs[li], out=grads[li - 1][1])
                below *= hidden[li - 1] > 0
        grad += 0.0
        grad *= eta
        w -= grad
    return np.isnan(sums.reshape(len(labels), -1).T).reshape(y.shape)


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
