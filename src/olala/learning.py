"""Online gradient-based adaptation of the lattice generator matrix.

The generator is produced by a small fixed-input network (a deep-prior
parameterization): adapting the lattice means running a few epochs of SGD on
the network weights against a quantization loss.  The discrete nearest-point
assignment is frozen per step, which makes the quantizer output linear in
the generator and the resulting gradient exact rather than approximated
through a softened quantizer.

With the mse loss each step descends the very quantity the monotone
safeguard measures: the distortion, in model units, of the batch's blocks
after the generator is normalized to the codeword budget and the input
scale zeta is refitted.  With the dither folds frozen as well, the dither,
the normalization scale and zeta are closed forms of the generator, so
that gradient is exact too.  Under subtractive dither the error is uniform
over the Voronoi cell (Zamir & Feder, "On lattice quantization noise", IEEE
T-IT 1996), so distortion depends on the generator only through the cell
shape, the normalization scale and zeta; a step that held the last two
fixed would descend a quantity nobody measures.  The neg_snr and task
losses step on lattice_grad, which holds the normalization scale and zeta
fixed.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NumericError, ResourceLimitError
from .lattice import (
    GEN_HEXAGONAL,
    TruncatedLattice,
    _build,
    _kth_norm_points,
    check_generator,
    pack_generator,
    quantize_batch,
    unpack_generator,
)
from .models import ModelArch, _layers, init_params
from .rng import derive_seed, stream_permutation
from .sdq import (
    DitherStream,
    _coords,
    _fit_scale_pinned,
    _fold_dithers,
    fit_scale,
    recombine,
    split_vector,
)

PRIOR_INPUT_WIDTH = 16
PRIOR_HIDDEN_WIDTH = 32
SUPPORT_RADIUS = 1.0  # the codebook radius gamma, of the learner and the codec alike

LOSS_KINDS = ("mse", "task", "neg_snr")
OVERLOAD_MODES = ("fraction", "heuristic_minus1")
DEFAULT_LEARNING_RATES = {"mse": 1e-6, "neg_snr": 1e-4, "task": 1e-7}

# Stream labels internal to a single learning run.
_TAG_SHUFFLE = 1
_TAG_BATCH_DITHER = 2
_TAG_BATCH_PROBE = 3
_TAG_MEASURE_PROBE = 4
_TAG_MEASURE_DITHER = 5


@functools.lru_cache(maxsize=None)
def _prior_arch(lattice_dim: int) -> ModelArch:
    """The prior net's layer widths; theta is laid out as models lays out
    an mlp's flat parameters."""
    h = PRIOR_HIDDEN_WIDTH
    return ModelArch("mlp", (PRIOR_INPUT_WIDTH, h, h, lattice_dim * lattice_dim))


@dataclass
class PriorNet:
    """Fixed-input fully-connected net whose output reshapes to a generator.

    Two tanh hidden layers of width 32 on an all-ones input of width 16;
    the input never changes, so the network is simply a smooth, trainable
    parameterization of one L x L matrix.
    """

    lattice_dim: int
    theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        expect = _prior_arch(self.lattice_dim).n_params
        if self.theta.shape != (expect,):
            raise ValueError(f"theta must have shape ({expect},), got {self.theta.shape}")

    def copy(self) -> "PriorNet":
        return PriorNet(self.lattice_dim, self.theta.copy())


def _forward_cached(theta: np.ndarray, lattice_dim: int):
    (w1, b1), (w2, b2), (w3, b3) = _layers(_prior_arch(lattice_dim), theta)
    a1 = np.tanh(w1.sum(axis=0) + b1)  # fixed all-ones input: s @ W1 == column sums
    a2 = np.tanh(a1 @ w2 + b2)
    out = a2 @ w3 + b3
    return out.reshape(lattice_dim, lattice_dim), (a1, a2)


def prior_forward(net: PriorNet) -> np.ndarray:
    """Deterministic forward pass; returns the raw (unnormalized) matrix."""
    if not np.all(np.isfinite(net.theta)):
        raise NumericError("prior network parameters are not finite")
    raw, _ = _forward_cached(net.theta, net.lattice_dim)
    return raw


def _backward(theta: np.ndarray, lattice_dim: int, cache, dout_flat: np.ndarray) -> np.ndarray:
    arch = _prior_arch(lattice_dim)
    _, (w2, _), (w3, _) = _layers(arch, theta)
    a1, a2 = cache
    dtheta = np.empty_like(theta)
    (dw1, dz1), (dw2, dz2), (dw3, dz3) = _layers(arch, dtheta)
    dz3[...] = dout_flat
    np.outer(a2, dout_flat, out=dw3)
    np.multiply(w3 @ dout_flat, 1.0 - a2 * a2, out=dz2)
    np.outer(a1, dz2, out=dw2)
    np.multiply(w2 @ dz2, 1.0 - a1 * a1, out=dz1)
    dw1[...] = dz1  # input is all ones
    return dtheta


def init_prior_net(
    lattice_dim: int, seed: int, warm_start: np.ndarray | None = None
) -> PriorNet:
    """Symmetric uniform fan-in init, then bias the output layer so the
    initial matrix equals warm_start (hexagonal for L=2, identity otherwise).

    Warm-starting at a known-good lattice makes the no-training case a sane
    quantizer and keeps early training rounds comparable to fixed baselines.
    """
    if warm_start is None:
        warm_start = GEN_HEXAGONAL if lattice_dim == 2 else np.eye(lattice_dim)
    warm_start = check_generator(warm_start)
    if warm_start.shape[0] != lattice_dim:
        raise ValueError("warm_start shape does not match lattice_dim")
    theta = init_params(_prior_arch(lattice_dim), seed)
    net = PriorNet(lattice_dim, theta)
    raw, _ = _forward_cached(theta, lattice_dim)
    # Output bias lives in the trailing L^2 slots of theta.
    out_dim = lattice_dim * lattice_dim
    theta[-out_dim:] = warm_start.ravel() - (raw.ravel() - theta[-out_dim:])
    return net


def codeword_budget(lattice_dim: int, rate: float) -> int:
    """Codebook size ceiling 2^(L*R), floored to an integer."""
    budget = int(math.floor(2.0 ** (lattice_dim * rate) + 1e-9))
    if budget < 1:
        raise ValueError(f"rate {rate} gives an empty codeword budget")
    return budget


def normalize_scale(raw: np.ndarray, rate: float, gamma: float = SUPPORT_RADIUS) -> float:
    """Smallest c such that c*raw has at most 2^(L*R) codewords within gamma.

    A point raw@l is a codeword of c*raw when ||raw@l|| <= gamma/c, so the
    count first fits the budget just above c = gamma / r, with r the
    (budget+1)-th smallest norm of the raw lattice (kth_norm).  Where
    rounding leaves that c on the boundary, it steps up one ulp at a time
    until a count over the points that search enumerated (a superset of the
    codewords) agrees.  A raw lattice so fine that r needs a search box
    beyond the enumeration cap raises ResourceLimitError.
    """
    raw = check_generator(raw)
    if not (gamma > 0):
        raise GeometryError(f"support radius must be positive, got {gamma}")
    budget = codeword_budget(raw.shape[0], rate)
    r, _, ls = _kth_norm_points(raw, np.linalg.inv(raw), budget + 1)
    c = gamma / r
    while True:
        pts = ls @ (c * raw).T
        if np.count_nonzero(np.einsum("ij,ij->i", pts, pts) <= gamma * gamma) <= budget:
            return c
        c = math.nextafter(c, math.inf)


def normalize_generator(raw: np.ndarray, rate: float, gamma: float = SUPPORT_RADIUS) -> np.ndarray:
    """raw scaled by normalize_scale (which validates it), the smallest
    scale that respects the 2^(L*R) codeword ceiling."""
    return normalize_scale(raw, rate, gamma) * np.asarray(raw, dtype=np.float64)


@dataclass
class LearnerConfig:
    """Knobs of one online lattice-learning run."""

    loss_kind: str = "mse"
    learning_rate: float | None = None  # None resolves to a per-loss default
    epochs: int = 20
    batches: int = 8
    rate: float = 2.0
    target_overload: float = 0.005
    overload_mode: str = "fraction"  # one of OVERLOAD_MODES
    heuristic_target: float = 0.003
    heuristic_filter_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.loss_kind == "task":
            # The task loss needs the whole update vector, so batching is moot.
            self.batches = 1
        if self.learning_rate is None:
            self.learning_rate = DEFAULT_LEARNING_RATES[self.loss_kind]
        if self.epochs < 0 or self.batches < 1:
            raise ValueError("epochs must be >= 0 and batches >= 1")
        if not (0 <= self.target_overload < 1):
            raise ValueError(f"target_overload must be in [0,1), got {self.target_overload}")
        if self.overload_mode not in OVERLOAD_MODES:
            raise ValueError(f"unknown overload_mode {self.overload_mode!r}")


@dataclass
class LearnedLattice:
    """Output of a learning run: normalized generator, input scale, weights."""

    gen: np.ndarray
    zeta: float
    theta: np.ndarray = field(repr=False)


def pack_learned_lattice(learned: LearnedLattice) -> bytes:
    """Adaptation metadata wire format: pack_generator's blob (u32 L, then
    the row-major float64 generator) followed by the float64 input scale,
    all little-endian."""
    return pack_generator(learned.gen) + struct.pack("<d", learned.zeta)


def unpack_learned_lattice(blob: bytes) -> tuple[np.ndarray, float]:
    gen = unpack_generator(blob[:-8])  # raises ValueError on a short or long blob
    (zeta,) = struct.unpack("<d", blob[-8:])
    if not zeta > 0:
        raise ValueError(f"input scale must be positive, got {zeta}")
    return gen, zeta


def frozen_loss(
    kind: str,
    gen: np.ndarray,
    blocks: np.ndarray,
    dithers: np.ndarray,
    assignments: np.ndarray,
    zeta: float,
    w: np.ndarray | None = None,
    objective=None,
    pad: int = 0,
) -> float:
    """Loss with the nearest-point assignments held fixed.

    blocks are raw (unscaled) subvectors; assignments are integer coefficient
    vectors.  With assignments frozen the reconstruction is linear in gen,
    which is what makes the analytic gradient exact.
    """
    return _frozen_loss_grad_gen(
        kind, gen, blocks, dithers, assignments, zeta, w, objective, pad
    )[0]


def _frozen_loss_grad_gen(kind, gen, blocks, dithers, assignments, zeta, w, objective, pad):
    """(loss, d loss / d gen) with frozen assignments."""
    x = zeta * blocks
    lstar = assignments.astype(np.float64)
    rec_scaled = lstar @ gen.T - dithers
    e = x - rec_scaled
    if kind == "mse":
        loss = float(np.einsum("ij,ij->", e, e))
        dgen = -2.0 * e.T @ lstar
        return loss, dgen
    if kind == "neg_snr":
        sig = float(np.einsum("ij,ij->", x, x))
        dist = float(np.einsum("ij,ij->", e, e))
        loss = -sig / dist
        # d(-S/D)/dD = S/D^2, dD/dgen as in the mse case.
        dgen = (sig / dist**2) * (-2.0 * e.T @ lstar)
        return loss, dgen
    if kind == "task":
        if objective is None or w is None:
            raise ValueError("task loss requires the model vector and a client objective")
        rec = recombine(rec_scaled / zeta, pad)
        loss, grad = objective(w + rec)
        gblocks, _ = split_vector(grad, gen.shape[0])
        dgen = (gblocks.T @ lstar) / zeta
        return float(loss), dgen
    raise ValueError(f"unknown loss kind {kind!r}")


def compute_loss(
    kind: str,
    blocks: np.ndarray,
    codec,
    dithers: np.ndarray,
    w: np.ndarray | None = None,
    objective=None,
    pad: int = 0,
) -> float:
    """Quantization loss of a batch under the codec's current lattice.

    mse and neg_snr are evaluated in the codec's scaled space; the task loss
    evaluates the client objective at the model plus the full reconstructed
    update.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 2 or blocks.shape[0] < 1:
        raise ValueError("batch of subvectors must be a nonempty (M, L) array")
    lat = codec.lattice
    x = codec.zeta * blocks
    idx = quantize_batch(lat, x + dithers)
    return frozen_loss(
        kind, lat.gen, blocks, dithers, lat.index_set[idx], codec.zeta, w, objective, pad
    )


def lattice_grad(
    net: PriorNet,
    blocks: np.ndarray,
    codec,
    kind: str,
    dithers: np.ndarray,
    w: np.ndarray | None = None,
    objective=None,
    pad: int = 0,
) -> tuple[float, np.ndarray]:
    """Loss and its exact gradient over theta with frozen assignments.

    The normalization constant relating the raw network output to the
    codec's generator is treated as a constant of the step (stop gradient),
    as is the assignment argmin; everything else is ordinary backprop.
    """
    return _lattice_grad(
        net.theta, net.lattice_dim, blocks, codec.lattice, codec.zeta, kind, dithers, w,
        objective, pad,
    )


def _lattice_grad(theta, lattice_dim, blocks, lat, zeta, kind, dithers, w, objective, pad):
    """lattice_grad under the codebook lat and input scale zeta."""
    raw, cache = _forward_cached(theta, lattice_dim)
    gen = lat.gen
    denom = float(np.einsum("ij,ij->", raw, raw))
    if denom <= 0:
        raise GeometryError("raw prior output is identically zero")
    scale = float(np.einsum("ij,ij->", gen, raw)) / denom  # gen == scale * raw
    x = zeta * blocks
    idx = quantize_batch(lat, x + dithers)
    loss, dgen = _frozen_loss_grad_gen(
        kind, gen, blocks, dithers, lat.index_set[idx], zeta, w, objective, pad
    )
    dtheta = _backward(theta, lattice_dim, cache, (scale * dgen).ravel())
    return loss, dtheta


def _heuristic_survivors(blocks: np.ndarray, filter_sigma: float) -> np.ndarray:
    """Subvectors within filter_sigma per-coordinate standard deviations of
    the empirical mean; all of them if the filter would remove everything."""
    mu = blocks.mean(axis=0)
    sd = blocks.std(axis=0)
    keep = np.all(np.abs(blocks - mu) < filter_sigma * sd, axis=1)
    return blocks[keep] if keep.any() else blocks


def overload_heuristic_minus1(
    subvectors: np.ndarray,
    lat: TruncatedLattice,
    dither_probe: DitherStream,
    target: float = 0.003,
    filter_sigma: float = 3.0,
) -> float:
    """Scale fit on variance-filtered subvectors.

    Subvectors deviating from the empirical mean by at least filter_sigma
    per-coordinate standard deviations are excluded before fitting, so rare
    outliers no longer pin the scale; if the filter removes everything, the
    fit falls back to the unfiltered data.
    """
    blocks = np.asarray(subvectors, dtype=np.float64)
    if blocks.shape[0] < 10:
        raise ValueError("heuristic scale fit needs at least 10 subvectors")
    return fit_scale(_heuristic_survivors(blocks, filter_sigma), lat, dither_probe, target)


_MEASURE_REPS = 4


def _measure(theta, lattice_dim, blocks, cfg: LearnerConfig):
    """(_measured_mse, the codebook and the input scale zeta it was measured
    under): the loss half of the mse step, over every block."""
    raw, _ = _forward_cached(theta, lattice_dim)
    lat, _ = _lattice_and_shell(normalize_generator(raw, cfg.rate, SUPPORT_RADIUS), SUPPORT_RADIUS)
    zeta, _ = _pinned_scale(blocks, lat, cfg)
    e, _ = _measured_rows(blocks, slice(None), lat, zeta, cfg.seed)
    return float(np.einsum("ij,ij->", e, e)) / _MEASURE_REPS, lat, zeta


def _measured_mse(theta, lattice_dim, blocks, cfg: LearnerConfig) -> float:
    """Safeguard metric: empirical distortion of the full training set, in
    model units, under deterministic probe and dither streams.

    Averaged over a few dither realizations so the accept/revert decision
    tracks expected distortion rather than one draw's luck.
    """
    return _measure(theta, lattice_dim, blocks, cfg)[0]


def _measured_rows(blocks, ids, lat: TruncatedLattice, zeta: float, seed: int):
    """Error rows and reconstruction coefficients a of blocks[ids] under the
    _MEASURE_REPS measurement dither streams of a run's seed: row rep * m + i
    is block ids[i] under stream rep, reconstructed as (codeword - dither) /
    zeta == gen @ a / zeta."""
    gen = lat.gen
    dim = gen.shape[0]
    x = blocks[ids]
    stacked = (_MEASURE_REPS, *x.shape)
    u = _measure_coords(seed, blocks.shape[0], dim)[:, ids].reshape(-1, dim)
    d, fold = _fold_dithers(u, gen, lat.inv)
    idx = quantize_batch(lat, (zeta * x + d.reshape(stacked)).reshape(d.shape))
    a = lat.index_set[idx] + fold - u
    e = (x - (a @ gen.T / zeta).reshape(stacked)).reshape(d.shape)
    return e, a


# The measurement streams are read at every step of a learning run, so they
# are drawn once per run and kept read-only.
@functools.lru_cache(maxsize=2)
def _measure_coords(seed: int, n_rows: int, dim: int) -> np.ndarray:
    """_coords of the _MEASURE_REPS measurement dither streams of a run's
    seed, stacked into shape (_MEASURE_REPS, n_rows, dim)."""
    u = np.stack(
        [_coords(derive_seed(seed, _TAG_MEASURE_DITHER, rep), 0, n_rows, dim)
         for rep in range(_MEASURE_REPS)]
    )
    u.flags.writeable = False
    return u


_PIN_TOL = 1e-9


def _pinned_scale(blocks, lat: TruncatedLattice, cfg, seed: int | None = None):
    """The one input-scale fit of the learner and client_round: zeta, as
    fit_scale (or the heuristic, per cfg.overload_mode) finds it under the
    probe stream rooted at seed (None: cfg.seed's measurement probe), and
    d zeta / d gen.  client_round passes the experiment config as cfg.

    zeta is the overload root of one probe block (see fit_scale): a root of
    that block's quadratic zeta^2 ||x||^2 + 2 zeta <x, d> + ||d||^2 =
    gamma^2, so implicit differentiation with d = gen @ (u - fold) gives the
    derivative.  A scale pinned by no block (the infeasible-scale floor,
    the ceiling, all-zero data) does not move with gen.
    """
    gen = lat.gen
    fit_blocks, target = blocks, cfg.target_overload
    if cfg.overload_mode == "heuristic_minus1" and blocks.shape[0] >= 10:
        fit_blocks = _heuristic_survivors(blocks, cfg.heuristic_filter_sigma)
        target = cfg.heuristic_target
    if seed is None:
        seed = derive_seed(cfg.seed, _TAG_MEASURE_PROBE)
    u = _coords(seed, 0, fit_blocks.shape[0], gen.shape[0])
    d, fold = _fold_dithers(u, gen, lat.inv)
    zeta, p = _fit_scale_pinned(fit_blocks, lat.gamma, d, target)
    if p < 0:
        return zeta, np.zeros_like(gen)
    y = zeta * fit_blocks[p] + d[p]
    slope = float(fit_blocks[p] @ y)  # half of d||y||^2 / d zeta
    return zeta, -np.outer(y, u[p] - fold[p]) / slope


def _lattice_and_shell(gen: np.ndarray, gamma: float) -> tuple[TruncatedLattice, np.ndarray]:
    """The codebook of a normalized generator and its budget shell: one of
    each +-l pair of the points whose norm pins the normalization, which
    normalize_generator leaves within a relative _PIN_TOL above gamma."""
    lat, band = _build(gen, gamma, gamma * (1.0 + _PIN_TOL))
    lead = band[np.arange(band.shape[0]), np.argmax(band != 0, axis=1)]
    return lat, band[lead > 0]


def _budget_shell(gen: np.ndarray, gamma: float) -> np.ndarray:
    """The budget shell of a normalized generator (see _lattice_and_shell)."""
    return _lattice_and_shell(gen, gamma)[1]


def _measured_mse_grad(
    theta: np.ndarray,
    lattice_dim: int,
    blocks: np.ndarray,
    batch_ids: np.ndarray,
    gen: np.ndarray,
    lat: TruncatedLattice,
    cfg: LearnerConfig,
    shell: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """The batch's share of _measured_mse and its exact gradient over theta.

    Everything _measured_mse measures is a closed form of the generator once
    its discrete choices are frozen: the assignments, the dither folds
    (d = gen @ w), the normalization scale c = gamma / ||raw l*|| with l*
    the first lattice point left out of the codeword budget, and zeta as
    the root pinned by one probe block (see _pinned_scale).  gen must be
    the normalized generator of theta, and lat and shell (derived when not
    given) what _lattice_and_shell returns for it.

    When several norms tie at ||raw l*|| (at rate 3 the hexagonal warm
    start keeps 61 codewords and leaves out twelve points of one norm), any
    change of shape that splits the tie moves c by a one-sided amount the
    formula cannot see, so the gradient is projected onto the directions
    that keep the tied norms equal.
    """
    raw, cache = _forward_cached(theta, lattice_dim)
    zeta, dzeta = _pinned_scale(blocks, lat, cfg)
    e, a = _measured_rows(blocks, batch_ids, lat, zeta, cfg.seed)
    loss = float(np.einsum("ij,ij->", e, e)) / _MEASURE_REPS
    dgen = -2.0 / zeta * (e.T @ a)
    dgen += 2.0 / zeta**2 * float(np.einsum("ij,ij->", e, a @ gen.T)) * dzeta
    dgen /= _MEASURE_REPS

    # gen = c * raw with c = gamma / ||raw l*||, so with p = gen @ l*,
    # d c / d raw = -c^2 p l*^T / ||p||^2.
    c = float(np.einsum("ij,ij->", gen, raw)) / float(np.einsum("ij,ij->", raw, raw))
    draw = c * dgen
    shell = _budget_shell(gen, SUPPORT_RADIUS) if shell is None else shell
    if shell.shape[0]:
        p = gen @ shell[0]
        draw -= c * float(np.einsum("ij,ij->", dgen, gen)) / float(p @ p) * np.outer(p, shell[0])
    dtheta = _backward(theta, lattice_dim, cache, draw.ravel())
    if shell.shape[0] > 1:
        # d||raw l||^2 / d raw = 2 (raw l) l^T; keep every tied norm equal to
        # the first.  The constraints span at most L^2 directions of raw, so
        # only a basis of that span goes through backprop.
        ties = np.stack(
            [(np.outer(raw @ l, l) - np.outer(raw @ shell[0], shell[0])).ravel() for l in shell[1:]]
        )
        basis, sv, _ = np.linalg.svd(ties.T, full_matrices=False)
        cons = np.stack(
            [_backward(theta, lattice_dim, cache, v) for v in basis[:, sv > 1e-12 * sv[0]].T]
        )
        coef = np.linalg.lstsq(cons @ cons.T, cons @ dtheta, rcond=None)[0]
        dtheta = dtheta - coef @ cons
    return loss, dtheta


def online_lattice_learning(
    net: PriorNet,
    w_t: np.ndarray,
    h_t: np.ndarray,
    cfg: LearnerConfig,
    objective=None,
) -> LearnedLattice:
    """Adapt the prior network to one update vector and emit the lattice.

    Each epoch shuffles the update's subvectors (seeded), partitions them
    into batches, and applies plain SGD on theta.  With the mse loss each
    step descends the batch's share of the safeguard's own metric,
    _measured_mse (see _measured_mse_grad); neg_snr and task step on
    lattice_grad's frozen loss at the batch's own scale and dither.  If the
    post-training measured distortion exceeds the pre-training one, the
    pre-training weights are kept (monotone safeguard).  Degenerate
    geometry mid-training reverts to the last valid weights and shrinks the
    step size; after three reversions the loop aborts, measures the weights
    each completed epoch ended with, and the best of them and the
    pre-training weights wins.  The emitted lattice and input scale are the
    ones its weights were measured under (the measurement probe's zeta), so
    emission neither normalizes nor fits a scale again.
    """
    if cfg.loss_kind == "task" and objective is None:
        raise ValueError("task loss requires a client objective")
    dim = net.lattice_dim
    blocks, pad = split_vector(np.asarray(h_t, dtype=np.float64), dim)
    n_blocks = blocks.shape[0]
    # Steps rebind theta and never write into it, so weights are shared, not copied.
    theta = last_valid = theta0 = net.theta.copy()
    eta = float(cfg.learning_rate)
    reversions = 0
    aborted = False

    # (measured distortion, the codebook and zeta measured under them, weights)
    start = (*_measure(theta0, dim, blocks, cfg), theta0)
    epoch_ends = []

    for epoch in range(cfg.epochs):
        order = stream_permutation(derive_seed(cfg.seed, _TAG_SHUFFLE, epoch), n_blocks)
        for b, batch_ids in enumerate(np.array_split(order, cfg.batches)):
            if batch_ids.size == 0:
                continue
            try:
                raw, _ = _forward_cached(theta, dim)
                gen = normalize_generator(raw, cfg.rate, SUPPORT_RADIUS)
                lat, shell = _lattice_and_shell(gen, SUPPORT_RADIUS)
                if cfg.loss_kind == "mse":
                    _, dtheta = _measured_mse_grad(
                        theta, dim, blocks, batch_ids, gen, lat, cfg, shell
                    )
                else:
                    # The batch's scale fit and dithers, as fit_scale and
                    # dithers_at draw them, folded with the codebook's inverse.
                    batch = blocks[batch_ids]
                    seed = derive_seed(cfg.seed, _TAG_BATCH_PROBE, epoch, b)
                    zeta, _ = _pinned_scale(batch, lat, cfg, seed)
                    seed = derive_seed(cfg.seed, _TAG_BATCH_DITHER, epoch, b)
                    d, _ = _fold_dithers(_coords(seed, 0, batch.shape[0], dim), gen, lat.inv)
                    _, dtheta = _lattice_grad(
                        theta, dim, batch, lat, zeta, cfg.loss_kind, d, w_t, objective, pad
                    )
            except (GeometryError, ResourceLimitError):
                theta = last_valid
                eta *= 0.1
                reversions += 1
                if reversions > 3:
                    aborted = True
                    break
                continue
            last_valid = theta
            theta = theta - eta * dtheta
        if aborted:
            break
        epoch_ends.append(theta)

    def checkpoint(weights):
        try:
            return (*_measure(weights, dim, blocks, cfg), weights)
        except (GeometryError, ResourceLimitError):
            return math.inf, None, None, weights

    if aborted:
        checkpoints = [start] + [checkpoint(weights) for weights in epoch_ends]
        _, lat, zeta, theta_final = min(checkpoints, key=lambda c: c[0])
    else:
        final = checkpoint(theta)
        _, lat, zeta, theta_final = final if final[0] <= start[0] else start
    return LearnedLattice(gen=lat.gen, zeta=zeta, theta=theta_final.copy())
