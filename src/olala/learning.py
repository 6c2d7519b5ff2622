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

import copy
import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .errors import GeometryError, NumericError, ResourceLimitError
from .lattice import (
    GEN_HEXAGONAL,
    TruncatedLattice,
    _build,
    _kth_norm_points,
    _quantize_slots,
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
    _fold_under,
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
    """The raw matrix of theta (P,) and the hidden activations; theta (U, P)
    gives one of each per slot, every slice as theta alone gives it."""
    (w1, b1), (w2, b2), (w3, b3) = _layers(_prior_arch(lattice_dim), theta)
    a1 = np.tanh(w1.sum(axis=-2) + b1)  # fixed all-ones input: s @ W1 == column sums
    a2 = np.tanh((a1[..., None, :] @ w2)[..., 0, :] + b2)
    out = (a2[..., None, :] @ w3)[..., 0, :] + b3
    return out.reshape(*theta.shape[:-1], lattice_dim, lattice_dim), (a1, a2)


def prior_forward(net: PriorNet) -> np.ndarray:
    """Deterministic forward pass; returns the raw (unnormalized) matrix."""
    if not np.all(np.isfinite(net.theta)):
        raise NumericError("prior network parameters are not finite")
    raw, _ = _forward_cached(net.theta, net.lattice_dim)
    return raw


def _backward(theta: np.ndarray, lattice_dim: int, cache, dout_flat: np.ndarray) -> np.ndarray:
    """d loss / d theta from d loss / d raw (flattened).  Leading axes of
    theta, the cache and dout_flat broadcast: one theta and many output
    gradients give one weight gradient per output gradient."""
    arch = _prior_arch(lattice_dim)
    _, (w2, _), (w3, _) = _layers(arch, theta)
    a1, a2 = cache
    lead = np.broadcast_shapes(theta.shape[:-1], dout_flat.shape[:-1])
    dtheta = np.empty((*lead, theta.shape[-1]))
    (dw1, dz1), (dw2, dz2), (dw3, dz3) = _layers(arch, dtheta)
    dz3[...] = dout_flat
    np.multiply(a2[..., :, None], dout_flat[..., None, :], out=dw3)
    np.multiply((w3 @ dout_flat[..., None])[..., 0], 1.0 - a2 * a2, out=dz2)
    np.multiply(a1[..., :, None], dz2[..., None, :], out=dw2)
    np.multiply((w2 @ dz2[..., None])[..., 0], 1.0 - a1 * a1, out=dz1)
    dw1[...] = dz1[..., None, :]  # input is all ones
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
    return _normalize(raw, rate, gamma)[0]


def _normalize(raw: np.ndarray, rate: float, gamma: float, slot: list | None = None):
    """normalize_scale's c, the normalized generator c * raw and the rows
    its last count scored, its norm search enumerated under the memo holder
    slot (see lattice._points_within).

    The last count scores every enumerated row under c*raw.  When the
    search reached past r (1 + 2 _PIN_TOL), twice the band for the rounding
    of c and of the norms, those rows hold every l with ||c raw l|| <=
    gamma (1 + _PIN_TOL), the codebook with its budget shell, so they come
    back as (ls, sq) for _lattice_and_shell; otherwise rows is None.
    """
    raw = check_generator(raw)
    if not (gamma > 0):
        raise GeometryError(f"support radius must be positive, got {gamma}")
    budget = codeword_budget(raw.shape[0], rate)
    r, _, ls, radius = _kth_norm_points(raw, np.linalg.inv(raw), budget + 1, slot)
    c = gamma / r
    while True:
        gen = c * raw
        pts = ls @ gen.T
        sq = np.einsum("ij,ij->i", pts, pts)
        if np.count_nonzero(sq <= gamma * gamma) <= budget:
            break
        c = math.nextafter(c, math.inf)
    covered = r * (1.0 + 2.0 * _PIN_TOL) <= radius
    return c, gen, ((ls, sq) if covered else None)


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
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
    if not 0 < zeta < math.inf:
        raise ValueError(f"input scale must be finite and positive, got {zeta}")
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


def _lattice_grad(
    theta, lattice_dim, blocks, lat, zeta, kind, dithers, w, objective, pad, fwd=None
):
    """lattice_grad under the codebook lat and input scale zeta; fwd is
    theta's (raw, cache) when the caller has run the forward pass."""
    raw, cache = _forward_cached(theta, lattice_dim) if fwd is None else fwd
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
_PIN_TOL = 1e-9


def _fit_set(blocks: np.ndarray, cfg):
    """The blocks an input scale is fit on and the overload target it
    meets, per cfg.overload_mode: the heuristic's survivors (from 10
    blocks up) and its target, else every block."""
    if cfg.overload_mode == "heuristic_minus1" and blocks.shape[0] >= 10:
        return _heuristic_survivors(blocks, cfg.heuristic_filter_sigma), cfg.heuristic_target
    return blocks, cfg.target_overload


class _Slots:
    """The constants of a lockstep group of learners, one slot each, drawn
    once per learning run and read at every step: the knobs the slots share
    (cfg, whose seed no slot reads), each slot's seed, blocks (U, n, L) and
    measurement dither coordinates (U, _MEASURE_REPS, n, L), and lists of
    its scale fit set, its measurement probe coordinates (one row per fit
    block) and its enumeration-memo holder (a one-item list, see
    lattice._points_within), which starts from the process's memo."""

    def __init__(self, cfg: LearnerConfig, seeds: list[int], blocks: np.ndarray):
        self.cfg = cfg
        self.seeds = list(seeds)
        self.blocks = blocks
        _, n, dim = blocks.shape
        self.measure = np.stack([
            [_coords(derive_seed(seed, _TAG_MEASURE_DITHER, rep), 0, n, dim)
             for rep in range(_MEASURE_REPS)]
            for seed in self.seeds
        ])
        fits = [_fit_set(b, self.cfg) for b in blocks]
        self.fit, self.target = [f for f, _ in fits], fits[0][1]
        self.probe = [
            _coords(derive_seed(seed, _TAG_MEASURE_PROBE), 0, f.shape[0], dim)
            for seed, f in zip(self.seeds, self.fit)
        ]
        self.memos = [[lattice._memo] for _ in self.seeds]

    def take(self, sel: list[int]) -> "_Slots":
        """The group of slots sel (indices into this group; repeats share
        their slot's memo)."""
        if sel == list(range(len(self.seeds))):
            return self
        out = copy.copy(self)
        for name in ("seeds", "blocks", "measure", "fit", "probe", "memos"):
            part = getattr(self, name)
            setattr(out, name, part[sel] if isinstance(part, np.ndarray) else [part[i] for i in sel])
        return out


def _codebook(raw: np.ndarray, slots: _Slots, k: int):
    """normalize_generator's generator of slot k's raw matrix, as its
    codebook and budget shell (see _lattice_and_shell), from the rows its
    normalization scored or enumerated under the slot's memo."""
    _, gen, rows = _normalize(raw, slots.cfg.rate, SUPPORT_RADIUS, slots.memos[k])
    return _lattice_and_shell(gen, SUPPORT_RADIUS, rows, slots.memos[k])


def _codebooks(raw: np.ndarray, group: _Slots) -> list:
    """_codebook of each slot k of group, whose raw matrix is raw[k], or
    the geometry error its normalization raised."""
    out = []
    for k in range(len(group.seeds)):
        try:
            out.append(_codebook(raw[k], group, k))
        except (GeometryError, ResourceLimitError) as exc:
            out.append(exc)
    return out


def _scale_and_slope(
    fits: list[np.ndarray], probes, lats: list[TruncatedLattice], target: float,
    notes: dict | None = None,
):
    """Each slot's zeta and d zeta / d gen (see _pinned_scale) from its fit
    set fits[k] (n, L) and the first n rows of its probe coordinates
    probes[k], folded under its codebook lats[k] (sdq._fold_under).  The
    slots whose fit sets share a size run as one stack.  With notes, each
    slot's scale-fit warning is stored there under its slot instead of
    issued."""
    zeta = np.empty(len(lats))
    dzeta = np.zeros((len(lats), *lats[0].gen.shape))
    by_size: dict[int, list[int]] = {}
    for k, f in enumerate(fits):
        by_size.setdefault(f.shape[0], []).append(k)
    for n, ks in by_size.items():
        fit = np.stack([fits[k] for k in ks])
        u = np.stack([probes[k][:n] for k in ks])
        d, fold = _fold_under(u, [lats[k] for k in ks])
        said = None if notes is None else {}
        z, p = _fit_scale_pinned(fit, lats[0].gamma, d, target, said)
        if said:
            notes.update((ks[i], note) for i, note in said.items())
        zeta[ks] = z
        pinned = np.flatnonzero(p >= 0)
        if pinned.size:
            q = p[pinned]
            x = fit[pinned, q]
            y = z[pinned, None] * x + d[pinned, q]
            slope = (x[:, None, :] @ y[:, :, None])[:, 0, 0]  # half of d||y||^2 / d zeta
            w = u[pinned, q] - fold[pinned, q]
            dzeta[np.array(ks)[pinned]] = -(y[:, :, None] * w[:, None, :]) / slope[:, None, None]
    return zeta, dzeta


def _pinned_scale(blocks, lat: TruncatedLattice, cfg, seed: int | None = None):
    """The one-slot form of _scale_and_slope (which a round's clients fit
    through, in fl._fit_scales), for the neg_snr and task steps' batches:
    zeta, as fit_scale (or the heuristic, per cfg.overload_mode) finds it
    under the probe stream rooted at seed (None: cfg.seed's measurement
    probe), and d zeta / d gen.

    zeta is the overload root of one probe block (see fit_scale): a root of
    that block's quadratic zeta^2 ||x||^2 + 2 zeta <x, d> + ||d||^2 =
    gamma^2, so implicit differentiation with d = gen @ (u - fold) gives the
    derivative.  A scale pinned by no block (the infeasible-scale floor,
    the ceiling, all-zero data) does not move with gen.
    """
    fit, target = _fit_set(blocks, cfg)
    if seed is None:
        seed = derive_seed(cfg.seed, _TAG_MEASURE_PROBE)
    u = _coords(seed, 0, fit.shape[0], lat.dim)
    zeta, dzeta = _scale_and_slope([fit], [u], [lat], target)
    return float(zeta[0]), dzeta[0]


def _measured_rows(slots: _Slots, ids, lats: list[TruncatedLattice], zeta: np.ndarray):
    """Error rows e, reconstruction coefficients a and a @ gen.T of each
    slot's blocks[ids] (ids (U, b); None for every block) under the
    _MEASURE_REPS measurement dither streams of its seed, folded under its
    codebook (sdq._fold_under): row rep * b + i is block ids[i] under
    stream rep, reconstructed as (codeword - dither) / zeta == gen @ a /
    zeta."""
    if ids is None:
        x, u = slots.blocks, slots.measure
    else:
        x = np.take_along_axis(slots.blocks, ids[..., None], axis=1)
        u = np.take_along_axis(slots.measure, ids[:, None, :, None], axis=2)
    stacked = u.shape  # (U, _MEASURE_REPS, b, L)
    u = u.reshape(stacked[0], -1, stacked[-1])
    d, fold = _fold_under(u, lats)
    xs = (zeta[:, None, None, None] * x[:, None] + d.reshape(stacked)).reshape(d.shape)
    a = np.stack([lat.index_set[i] for lat, i in zip(lats, _quantize_slots(lats, xs))]) + fold - u
    ag = a @ np.stack([lat.gen for lat in lats]).mT
    e = (x[:, None] - (ag / zeta[:, None, None]).reshape(stacked)).reshape(d.shape)
    return e, a, ag


def _measure(slots: _Slots, theta: np.ndarray):
    """Each slot's _measured_mse of its weights theta (U, P), with the
    codebook and the zeta it was measured under: the loss half of the mse
    step, over every block.  A slot whose geometry fails measures inf and
    holds its error in place of the codebook."""
    raw, _ = _forward_cached(theta, slots.blocks.shape[-1])
    books = _codebooks(raw, slots)
    lats = [book[0] if isinstance(book, tuple) else book for book in books]
    good = [k for k, lat in enumerate(lats) if isinstance(lat, TruncatedLattice)]
    mse = np.full(len(lats), np.inf)
    zeta = np.zeros(len(lats))
    if good:
        part, fine = slots.take(good), [lats[k] for k in good]
        zeta[good], _ = _scale_and_slope(part.fit, part.probe, fine, part.target)
        e, _, _ = _measured_rows(part, None, fine, zeta[good])
        mse[good] = np.einsum("uij,uij->u", e, e) / _MEASURE_REPS
    return mse, lats, zeta


def _measured_mse(theta, lattice_dim, blocks, cfg: LearnerConfig) -> float:
    """Safeguard metric: empirical distortion of the full training set, in
    model units, under deterministic probe and dither streams.

    Averaged over a few dither realizations so the accept/revert decision
    tracks expected distortion rather than one draw's luck.
    """
    slots = _Slots(cfg, [cfg.seed], np.asarray(blocks, dtype=np.float64)[None])
    mse, lats, _ = _measure(slots, theta[None])
    if not isinstance(lats[0], TruncatedLattice):
        raise lats[0]
    return float(mse[0])


def _lattice_and_shell(
    gen: np.ndarray, gamma: float, rows=None, slot: list | None = None
) -> tuple[TruncatedLattice, np.ndarray]:
    """The codebook of a normalized generator and its budget shell: one of
    each +-l pair of the points whose norm pins the normalization, which
    normalize_generator leaves within a relative _PIN_TOL above gamma.

    rows are the rows _normalize scored under gen for this gamma, which
    hold every point within gamma (1 + _PIN_TOL); filtered, they are a
    fresh enumeration's answer, bit for bit (see _build).  Without them
    the points are enumerated under the memo holder slot."""
    lat, band = _build(gen, gamma, gamma * (1.0 + _PIN_TOL), rows, slot)
    lead = band[np.arange(band.shape[0]), np.argmax(band != 0, axis=1)]
    return lat, np.compress(lead > 0, band, axis=0)


def _measured_mse_grad(group: _Slots, theta, batch_ids, lats, shells, fwd):
    """Each slot's batch share of _measured_mse and its exact gradient over
    its weights theta (U, P): slot k of the group measures its blocks
    batch_ids[k] under its codebook lats[k] and budget shell shells[k] (see
    _lattice_and_shell), with fwd theta's (raw, cache).

    Everything _measured_mse measures is a closed form of the generator once
    its discrete choices are frozen: the assignments, the dither folds
    (d = gen @ w), the normalization scale c = gamma / ||raw l*|| with l*
    the first lattice point left out of the codeword budget, and zeta as
    the root pinned by one probe block (see _pinned_scale).

    When several norms tie at ||raw l*|| (at rate 3 the hexagonal warm
    start keeps 61 codewords and leaves out twelve points of one norm), any
    change of shape that splits the tie moves c by a one-sided amount the
    formula cannot see, so the gradient is projected onto the directions
    that keep the tied norms equal.
    """
    lattice_dim = group.blocks.shape[-1]
    raw, cache = fwd
    gen = np.stack([lat.gen for lat in lats])
    zeta, dzeta = _scale_and_slope(group.fit, group.probe, lats, group.target)
    e, a, ag = _measured_rows(group, batch_ids, lats, zeta)
    loss = np.einsum("uij,uij->u", e, e) / _MEASURE_REPS
    zs = [float(z) for z in zeta]
    along = np.einsum("uij,uij->u", e, ag)
    dgen = np.array([-2.0 / z for z in zs])[:, None, None] * (e.mT @ a)
    dgen += np.array([2.0 / z**2 * float(s) for z, s in zip(zs, along)])[:, None, None] * dzeta
    dgen /= _MEASURE_REPS

    # gen = c * raw with c = gamma / ||raw l*||, so with p = gen @ l*,
    # d c / d raw = -c^2 p l*^T / ||p||^2.
    c = np.einsum("uij,uij->u", gen, raw) / np.einsum("uij,uij->u", raw, raw)
    draw = c[:, None, None] * dgen
    pinned = [k for k, sh in enumerate(shells) if sh.shape[0]]
    if pinned:
        first = np.stack([shells[k][0] for k in pinned])
        p = (gen[pinned] @ first[..., None])[..., 0]
        pp = (p[:, None, :] @ p[:, :, None])[:, 0, 0]
        along = np.einsum("uij,uij->u", dgen[pinned], gen[pinned])
        coef = [float(c[k]) * float(s) / float(q) for k, s, q in zip(pinned, along, pp)]
        draw[pinned] -= np.array(coef)[:, None, None] * (p[:, :, None] * first[:, None, :])
    dtheta = _backward(theta, lattice_dim, cache, draw.reshape(theta.shape[0], -1))
    _project_ties(theta, lattice_dim, raw, cache, shells, dtheta)
    return loss, dtheta


def _project_ties(theta, lattice_dim, raw, cache, shell, dtheta) -> None:
    """Project each slot's dtheta, in place, onto the directions that keep
    its tied budget norms equal: d||raw l||^2 / d raw = 2 (raw l) l^T, and
    every tied norm stays equal to the first.  The constraints span at most
    L^2 directions of raw, so only a basis of that span (the left singular
    vectors above a relative 1e-12) goes through backprop.  Slots with as
    many tied points and the same basis size run as one stack; the
    least-squares solve runs slot by slot."""
    groups: dict[int, list[int]] = {}
    for k, sh in enumerate(shell):
        if sh.shape[0] > 1:
            groups.setdefault(sh.shape[0], []).append(k)
    for ks in groups.values():
        tied = np.stack([shell[k] for k in ks])  # (T, S, L)
        norms = (raw[ks][:, None] @ tied[..., None])[..., 0]  # raw @ l
        grads = norms[..., :, None] * tied[..., None, :]
        ties = (grads[:, 1:] - grads[:, :1]).reshape(len(ks), tied.shape[1] - 1, -1)
        basis, sv, _ = np.linalg.svd(ties.mT, full_matrices=False)
        keep = sv > 1e-12 * sv[:, :1]
        by_keep: dict[bytes, list[int]] = {}
        for j, row in enumerate(keep):
            by_keep.setdefault(row.tobytes(), []).append(j)
        for js in by_keep.values():
            rows = [ks[j] for j in js]
            picked = basis[js][:, :, keep[js[0]]]  # (T, L^2, r), each slot's kept columns
            slot_cache = (cache[0][rows][:, None], cache[1][rows][:, None])
            cons = _backward(
                theta[rows][:, None], lattice_dim, slot_cache, picked.mT
            )
            gram = cons @ cons.mT
            rhs = (cons @ dtheta[rows][..., None])[..., 0]
            coef = np.stack(
                [np.linalg.lstsq(g, b, rcond=None)[0] for g, b in zip(gram, rhs)]
            )
            dtheta[rows] = dtheta[rows] - (coef[:, None, :] @ cons)[:, 0, :]


def _learn_group(
    nets: list[PriorNet],
    w_t: np.ndarray,
    h_ts: list[np.ndarray],
    cfg: LearnerConfig,
    seeds: list[int],
    objectives: list,
) -> list[tuple[LearnedLattice, TruncatedLattice]]:
    """online_lattice_learning for a group of slots in lockstep: each slot's
    LearnedLattice and the codebook it was measured under.

    Slot k learns on the update h_ts[k] under seeds[k] (cfg.seed is not
    read) and, for loss_kind=task, its objective objectives[k] at the
    model w_t.  The slots share cfg and have update vectors of one length,
    so every step runs once for the group with a leading slot axis: the
    prior net's passes, the scale fits, the measured rows and the
    gradient.  Each stacked op acts on every slot's slice as it would on
    that slot alone, so a slot's result does not depend on the group it ran
    in.  The ragged parts run slot by slot: normalization, codebook and
    shell (each slot under its own enumeration memo), the tie projection,
    the neg_snr and task steps, and the step size, reversion and abort of
    the safeguard.
    """
    if cfg.loss_kind == "task" and any(o is None for o in objectives):
        raise ValueError("task loss requires a client objective")
    dim = nets[0].lattice_dim
    split = [split_vector(np.asarray(h, dtype=np.float64), dim) for h in h_ts]
    slots = _Slots(cfg, seeds, np.stack([blocks for blocks, _ in split]))
    n_slots, n_blocks = slots.blocks.shape[:2]
    n_batches = min(cfg.batches, n_blocks)  # no batch is empty
    theta0 = np.stack([net.theta for net in nets])
    theta, last_valid = theta0.copy(), theta0.copy()
    eta = np.full(n_slots, float(cfg.learning_rate))
    reversions = [0] * n_slots
    live = list(range(n_slots))  # the slots that have not aborted
    epoch_ends: list[list[np.ndarray]] = [[] for _ in range(n_slots)]

    # (measured distortion, the codebook measured under, zeta) of each slot
    start = _measure(slots, theta0)
    for lat in start[1]:
        if not isinstance(lat, TruncatedLattice):
            raise lat

    for epoch in range(cfg.epochs):
        batches = {
            k: np.array_split(
                stream_permutation(derive_seed(slots.seeds[k], _TAG_SHUFFLE, epoch), n_blocks),
                n_batches,
            )
            for k in live
        }
        for b in range(n_batches):
            sel = list(live)
            if not sel:
                break
            group = slots.take(sel)
            raw, (a1, a2) = _forward_cached(theta[sel], dim)
            books = _codebooks(raw, group)
            ok = [i for i, book in enumerate(books) if isinstance(book, tuple)]
            for i, k in enumerate(sel):
                if i not in ok:
                    theta[k] = last_valid[k]
                    eta[k] *= 0.1
                    reversions[k] += 1
                    if reversions[k] > 3:
                        live.remove(k)
            if not ok:
                continue
            at = [sel[i] for i in ok]
            lats = [books[i][0] for i in ok]
            if cfg.loss_kind == "mse":
                ids = np.stack([batches[k][b] for k in at])
                fwd = (raw[ok], (a1[ok], a2[ok]))
                shells = [books[i][1] for i in ok]
                _, dtheta = _measured_mse_grad(group.take(ok), theta[at], ids, lats, shells, fwd)
            else:
                grads = []
                for i, k, lat in zip(ok, at, lats):
                    # The batch's scale fit and dithers, as fit_scale and
                    # dithers_at draw them, folded with the codebook's inverse.
                    batch = slots.blocks[k][batches[k][b]]
                    seed = derive_seed(slots.seeds[k], _TAG_BATCH_PROBE, epoch, b)
                    zeta, _ = _pinned_scale(batch, lat, cfg, seed)
                    seed = derive_seed(slots.seeds[k], _TAG_BATCH_DITHER, epoch, b)
                    u = _coords(seed, 0, batch.shape[0], dim)
                    d, _ = _fold_dithers(u, lat.gen, lat.inv)
                    grads.append(_lattice_grad(
                        theta[k], dim, batch, lat, zeta, cfg.loss_kind, d, w_t,
                        objectives[k], split[k][1], fwd=(raw[i], (a1[i], a2[i])),
                    )[1])
                dtheta = np.stack(grads)
            last_valid[at] = theta[at]
            theta[at] -= eta[at, None] * dtheta
        for k in live:
            epoch_ends[k].append(theta[k].copy())

    # A slot that ran to the end keeps its final weights if they measure no
    # worse than its start; one that aborted keeps the best of its start and
    # the weights each completed epoch ended with.
    aborted = [k for k in range(n_slots) if k not in live]
    sel = live + [k for k in aborted for _ in epoch_ends[k]]
    candidates = {k: [(start[0][k], start[1][k], start[2][k], theta0[k])] for k in range(n_slots)}
    if sel:
        weights = np.stack([theta[k] for k in live] + [w for k in aborted for w in epoch_ends[k]])
        mse, lats, zeta = _measure(slots.take(sel), weights)
        for j, k in enumerate(sel):
            candidates[k].append((mse[j], lats[j], zeta[j], weights[j]))
    out = []
    for k in range(n_slots):
        if k in live:
            first, last = candidates[k]
            _, lat, zeta, weights = last if last[0] <= first[0] else first
        else:
            _, lat, zeta, weights = min(candidates[k], key=lambda c: c[0])
        out.append((LearnedLattice(gen=lat.gen, zeta=float(zeta), theta=weights.copy()), lat))
    # Leave the last slot's entry as the process's memo, as a lone learner
    # leaves its last enumeration there for the next query of its lattice.
    lattice._memo = slots.memos[-1][0]
    return out


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
    emission neither normalizes nor fits a scale again.  This is the
    one-slot view of the lockstep group learner, _learn_group.
    """
    return _learn_group([net], w_t, [h_t], cfg, [cfg.seed], [objective])[0][0]
