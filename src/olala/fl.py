"""Deterministic federated simulation with per-client adaptive lattice codecs.

Each round: the server broadcasts the model; every client runs local SGD,
optionally relearns its lattice, scales and SDQ-encodes its update, and
ships integer indices plus (generator, zeta) metadata.  A run has one
quantizer kind and one model size, so a round's clients run local SGD as
one lockstep group (_train_group), relearn together in the rounds their
quantizer adapts in (learning._learn_group), and scale and encode as one
lockstep codec (_encode_group), their updates all of one length.  The
server rebuilds each client's dither stream from the shared seed, a part
of the clients at a time (_transmit_dithers), and decodes.  Everything is
a pure function of the experiment config and master seed: reductions
happen in ascending client id regardless of execution order, and a
client's lattice does not depend on the group it learned in, so results do
not depend on scheduling or on the --parallel setting.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import struct
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .data import Dataset, load_idx_dataset, partition_dataset, synthetic_dataset
from .errors import ConfigError, NumericError, ProtocolError
from .lattice import (
    GEN_A2,
    GEN_D2,
    GEN_HEXAGONAL,
    GEN_IDENTITY_2D,
    TruncatedLattice,
    _quantize_slots,
    build_lattice,
)
from .learning import (
    SUPPORT_RADIUS,
    LearnedLattice,
    LearnerConfig,
    PriorNet,
    _fit_set,
    _learn_group,
    _scale_and_slope,
    init_prior_net,
    normalize_generator,
)
from .models import ModelArch, _sgd_lockstep, accuracy, init_params, make_objective
from .sdq import _coords, _decode, _fold_under, recombine, split_vector

QUANTIZER_KINDS = (
    "none",
    "fixed_identity",
    "fixed_hex",
    "fixed_a2",
    "fixed_d2",
    "static_global",
    "static_per_user",
    "olala",
)

FIXED_GENERATORS = {
    "fixed_identity": GEN_IDENTITY_2D,
    "fixed_hex": GEN_HEXAGONAL,
    "fixed_a2": GEN_A2,
    "fixed_d2": GEN_D2,
}


def bits_accounting(m: int, rate: float, lattice_dim: int, include_zeta: bool = True) -> int:
    """Uplink bits for one quantized update: ceil(m*R) + 64*L^2 (+64 for zeta).

    The 64*L^2 term is the full-precision generator matrix; the optional 64
    covers the input scale, which the base formula leaves implicit.
    """
    if m < 1 or lattice_dim < 1:
        raise ValueError("m and lattice_dim must be positive")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    bits = math.ceil(m * rate) + 64 * lattice_dim * lattice_dim
    return bits + 64 if include_zeta else bits


# Local SGD rows gathered at once across a group: about 6 MB of 784-pixel
# float64 rows, so a default round (5 clients, 50 steps) gathers once.
_GATHER_STEPS = 1024


def local_train(
    arch: ModelArch,
    params: np.ndarray,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    steps: int,
    eta: float,
    seed: int,
) -> np.ndarray:
    """Single-sample SGD for `steps` steps; returns the update h = w' - w.
    The one-client view of _train_group."""
    return _train_group(arch, params, [(shard_x, shard_y)], steps, eta, [seed])[0]


def _train_group(
    arch: ModelArch,
    params: np.ndarray,
    shards: list[tuple[np.ndarray, np.ndarray]],
    steps: int,
    eta: float,
    seeds: list[int],
) -> list[np.ndarray]:
    """Local SGD of a group of clients from one parameter vector, as one
    lockstep computation (models._sgd_lockstep); returns each client's
    update h = w' - w, in the order of shards.

    Client k trains on its shard (x, y) under seeds[k]: its step s uses row
    int(stream_unit(seeds[k], s) * n) of its n-row shard, each step
    bit-identical to descending loss_and_grad on that row, so an update does
    not depend on the group.  The caller's parameter vector is untouched.
    The rows are gathered into float64 a chunk of steps at a time, at most
    _GATHER_STEPS rows across the whole group per chunk (clients beyond
    that many train as further groups), so memory stays bounded for any
    step count and group size.  A group of one trains on 2-D arrays, on
    which a step costs less than on a stack of one.  Steps below one and
    an empty shard are rejected before any step.  A non-finite loss raises
    the NumericError that training the clients one after another would:
    that of the lowest-index failing client, at its first failing step.
    """
    if steps < 1:
        raise ValueError("need at least one local step")
    if any(y.shape[0] == 0 for _, y in shards):
        raise ValueError("cannot train on an empty shard")
    if len(shards) > _GATHER_STEPS:
        return [
            h for lo in range(0, len(shards), _GATHER_STEPS)
            for h in _train_group(
                arch, params, shards[lo : lo + _GATHER_STEPS], steps, eta,
                seeds[lo : lo + _GATHER_STEPS],
            )
        ]
    lead = (len(shards),) if len(shards) > 1 else ()
    w = np.broadcast_to(params, lead + params.shape).copy()
    bad = np.zeros((len(shards), steps), dtype=bool)
    chunk = min(_GATHER_STEPS // len(shards), steps)
    x_rows = np.empty(lead + (chunk, shards[0][0].shape[1]))
    y_rows = np.empty(lead + (chunk,), dtype=np.int64)
    for start in range(0, steps, chunk):
        count = min(chunk, steps - start)
        x, y = x_rows[..., :count, :], y_rows[..., :count]
        for k, ((shard_x, shard_y), seed) in enumerate(zip(shards, seeds)):
            rows = (rng.stream_unit_block(seed, start, count) * shard_y.shape[0]).astype(np.int64)
            slot = k if lead else ...
            x[slot] = shard_x[rows]
            y[slot] = shard_y[rows]
        bad[:, start : start + count] = _sgd_lockstep(arch, w, x, y, eta).reshape(-1, count)
        if bad[0].any():  # no client before the first can fail later
            break
    failing = bad.any(axis=1)
    if failing.any():
        raise NumericError(f"non-finite loss at local step {int(bad[failing.argmax()].argmax())}")
    return list((w - params).reshape(-1, params.size))


def evaluate(arch: ModelArch, params: np.ndarray, test: Dataset) -> float:
    """Deterministic test accuracy in [0, 1]."""
    return accuracy(arch, params, test.features, test.labels)


@dataclass
class Payload:
    """What one client sends up, plus client-side bookkeeping for the logs."""

    uid: int
    t: int
    m: int
    kind: str
    bits: int
    zeta: float = 1.0
    pad: int = 0
    gen: np.ndarray | None = None
    indices: np.ndarray | None = None
    raw_update: np.ndarray | None = None  # uncompressed path only
    distortion: float = 0.0
    snr_db: float = math.inf
    codebook_size: int = 0
    adapted: bool = False
    theta: np.ndarray | None = None  # learner state carried back to the client
    recon: np.ndarray | None = field(default=None, repr=False)  # client-side decode


@dataclass
class ClientState:
    uid: int
    shard_x: np.ndarray
    shard_y: np.ndarray
    seed_root: int  # the per-client root all round seeds derive from
    gen: np.ndarray | None = None
    net: PriorNet | None = None


@dataclass
class RoundRecord:
    t: int
    accuracy: float
    mean_snr_db: float
    mean_distortion: float
    total_bits: int
    payloads: list[Payload] = field(repr=False, default_factory=list)


@dataclass
class FlResult:
    arch: ModelArch
    params: np.ndarray
    records: list[RoundRecord]
    lattice_log: list[dict]


def _learn(nets, w, hs, cfg, seeds, shards=None) -> list[tuple[LearnedLattice, TruncatedLattice]]:
    """The one learner call: the experiment config's learner knobs, one
    slot per net under its seed, as one lockstep group, with each slot's
    task objective on its shard (x, y) for loss_kind=task.  Returns each
    slot's LearnedLattice and the codebook it was measured under."""
    lcfg = LearnerConfig(
        loss_kind=cfg.loss_kind,
        learning_rate=cfg.lattice_lr,
        epochs=cfg.lattice_epochs,
        batches=cfg.lattice_batches,
        rate=cfg.rate,
        target_overload=cfg.target_overload,
        overload_mode=cfg.overload_mode,
        heuristic_target=cfg.heuristic_target,
        heuristic_filter_sigma=cfg.heuristic_filter_sigma,
    )
    objectives = [
        make_objective(cfg.arch(), x, y) if cfg.loss_kind == "task" else None
        for x, y in (shards or [(None, None)] * len(nets))
    ]
    return _learn_group(nets, w, hs, lcfg, seeds, objectives)


def _transmit_dithers(lats: list[TruncatedLattice], roots, t: int, n: int) -> np.ndarray:
    """Round t's first n transmit dithers (U, n, L) of the clients rooted at
    roots, each under its codebook lats[k], in one draw and one fold: the
    encoder's and the decoder's alike, so both ends read one stream per
    client."""
    seeds = rng.derive_seed(list(roots), t, rng.TAG_TRANSMIT_DITHER)
    return _fold_under(_coords(seeds, 0, n, lats[0].dim), lats)[0]


def _adapts_this_round(kind: str, t: int, adapt_every: int) -> bool:
    if kind == "olala":
        return t % max(adapt_every, 1) == 0
    if kind == "static_per_user":
        return t == 0
    return False


def client_round(client: ClientState, w_global: np.ndarray, t: int, cfg) -> Payload:
    """Local training, optional lattice adaptation, scale fit, SDQ encoding:
    the one-client view of _round_group."""
    return _round_group([client], w_global, t, cfg)[0]


def _round_group(clients: list[ClientState], w_global: np.ndarray, t: int, cfg) -> list[Payload]:
    """Round t of a group of clients, in three phases: local training of
    every client, as one lockstep group (_train_group); in the rounds
    cfg.quantizer adapts in, adaptation of every client, as one lockstep
    learner group; scale fit and encoding of every client, as one lockstep
    codec (_encode_group).  Reads the clients and writes none of them:
    run_fl applies each payload's theta and gen.  A client's payload does
    not depend on the group it ran in."""
    hs = _train_group(
        cfg.arch(), w_global, [(c.shard_x, c.shard_y) for c in clients], cfg.local_steps,
        cfg.model_lr, [rng.derive_seed(c.seed_root, t, rng.TAG_LOCAL_SGD) for c in clients],
    )
    learned = None
    if _adapts_this_round(cfg.quantizer, t, cfg.adapt_every):
        nets = [
            init_prior_net(cfg.lattice_dim, rng.derive_seed(c.seed_root, rng.TAG_CLIENT_ROOT))
            if c.net is None or cfg.reset_theta_each_round else c.net
            for c in clients
        ]
        learned = _learn(
            nets, w_global, hs, cfg,
            [rng.derive_seed(c.seed_root, t, rng.TAG_LATTICE_LEARN) for c in clients],
            [(c.shard_x, c.shard_y) for c in clients],
        )
    return _encode_group(clients, hs, t, cfg, learned)


# The process's codebook store: each generator's shape and bytes -> its
# codebook and the last round that coded or decoded under it (see
# _held_codebook).  run_fl starts each run with it empty.
_codebooks: dict[tuple, tuple[TruncatedLattice, int]] = {}


def _held_codebook(gen: np.ndarray, t: int, lat: TruncatedLattice | None = None):
    """build_lattice(gen, SUPPORT_RADIUS) from the store, for coding in
    round t: the stored codebook of gen, else lat (the codebook a learner
    measured gen under, which is build_lattice's bit for bit), else a
    fresh build, which the store then keeps with its cached inv, offsets
    and lookup.  So a held generator is built once per run and process,
    and a learned one not at all on the side that learned it."""
    gen = np.asarray(gen, dtype=np.float64)
    key = (gen.shape, gen.tobytes())
    book = _codebooks[key][0] if key in _codebooks else lat
    if book is None:
        book = build_lattice(gen, SUPPORT_RADIUS)
    _codebooks[key] = (book, t)
    return book


def _keep_round(t: int) -> None:
    """Drop from the store every codebook that round t did not code or
    decode under, so it holds at most one round's generators."""
    for key in [key for key, (_, used) in _codebooks.items() if used != t]:
        del _codebooks[key]


# Update blocks one stacked codec call holds at most across its clients
# (1 MB per float array at L=2): see _parts.
_CODEC_ROWS = 1 << 16


def _parts(count: int, blocks: int) -> list[slice]:
    """The parts both ends of the wire code in: count updates of `blocks`
    blocks each, cut into consecutive runs of at most _CODEC_ROWS blocks
    (at least one update each), whatever their codebooks."""
    step = max(1, _CODEC_ROWS // max(blocks, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _encode_group(clients: list[ClientState], hs: list[np.ndarray], t: int, cfg, learned):
    """Scale fit and SDQ encoding of each client's update hs[k], all of one
    length, under the lattice it learned this round (learned[k]: the
    LearnedLattice and the codebook it was measured under, which enters
    the store; learned is None in a round without adaptation) or else the
    one it holds, both taken from the codebook store (_held_codebook), as
    a lockstep codec (_codec) over each part of the clients (_parts).  The
    store then keeps only the codebooks coded under in round t.  Under
    quantizer=none the updates go up raw.  Each client's payload, and its
    scale-fit warning, is what encoding it alone gives; the warnings come
    out in client order."""
    m = hs[0].size
    if cfg.quantizer == "none":
        return [
            Payload(uid=c.uid, t=t, m=m, kind="none", bits=64 * m,
                    raw_update=h, recon=h.copy(), distortion=0.0, snr_db=math.inf)
            for c, h in zip(clients, hs)
        ]
    if learned is None:
        for c in clients:
            if c.gen is None:
                raise ProtocolError(f"client {c.uid} has no generator configured")
        coded = [(_held_codebook(c.gen, t), c.gen, None if c.net is None else c.net.theta)
                 for c in clients]
    else:
        coded = [(_held_codebook(out.gen, t, lat), out.gen, out.theta) for out, lat in learned]
    bits = bits_accounting(m, cfg.rate, cfg.lattice_dim, cfg.include_zeta_bits)
    payloads, notes = [], []
    for part in _parts(len(clients), -(-m // cfg.lattice_dim)):
        said: dict = {}
        zeta, indices, recon, pad = _codec(
            hs[part], [lat for lat, _, _ in coded[part]],
            [c.seed_root for c in clients[part]], t, cfg, said,
        )
        notes += [said[j] for j in sorted(said)]
        for j, (c, h, (lat, gen, theta)) in enumerate(zip(clients[part], hs[part], coded[part])):
            rec = recombine(recon[j], pad)
            err = h - rec
            distortion = float(err @ err)
            sig = float(h @ h)
            if distortion == 0:
                snr = math.inf
            else:  # an all-zero update carries no signal: -inf dB
                snr = 10.0 * math.log10(sig / distortion) if sig else -math.inf
            payloads.append(Payload(
                uid=c.uid,
                t=t,
                m=m,
                kind=cfg.quantizer,
                bits=bits,
                zeta=float(zeta[j]),
                pad=pad,
                gen=gen,
                indices=indices[j],
                distortion=distortion,
                snr_db=snr,
                codebook_size=lat.size,
                adapted=learned is not None,
                theta=None if theta is None else theta.copy(),
                recon=rec,
            ))
    _keep_round(t)
    for note in notes:
        warnings.warn(note, stacklevel=3)
    return payloads


def _codec(hs: list[np.ndarray], lats: list[TruncatedLattice], roots: list[int], t: int, cfg,
           notes: dict):
    """The scale fit, encoding and client-side decoding of round t's
    updates hs (one length) of the clients rooted at roots, each under its
    codebook lats[k], every client on its own slot: zeta (U,), indices
    (U, n), the reconstructed blocks (U, n, L) and the pad.

    Each client's probe and transmit coordinates come from one draw each
    over the clients' seeds; the probe dithers are folded and zeta fit
    once per size of fit set (_fit_scales), and the transmit dithers
    folded once (_transmit_dithers).  The slots are quantized together
    (lattice._quantize_slots) and each decoded under its own codebook.  A
    slot's scale-fit warning goes to notes under its index."""
    split = [split_vector(h, cfg.lattice_dim) for h in hs]
    blocks, pad = np.stack([b for b, _ in split]), split[0][1]
    zeta = _fit_scales(blocks, lats, roots, t, cfg, notes)
    d = _transmit_dithers(lats, roots, t, blocks.shape[1])
    xs = zeta[:, None, None] * blocks
    xs += d
    indices = _quantize_slots(lats, xs)
    recon = np.stack([_decode(*a) for a in zip(lats, zeta, indices, d)])
    return zeta, indices, recon, pad


def _fit_scales(blocks: np.ndarray, lats: list[TruncatedLattice], roots, t: int, cfg, notes: dict):
    """Each client's zeta for its blocks (U, n, L) under its codebook
    lats[k] and its round-t probe stream: one probe draw, then one fold
    and fit per size of fit set (learning._scale_and_slope).  Apart from
    _codec, so the probe stacks are freed before the quantization."""
    fits = [_fit_set(b, cfg) for b in blocks]
    rows = max(fit.shape[0] for fit, _ in fits)
    probe = _coords(rng.derive_seed(list(roots), t, rng.TAG_PROBE_DITHER), 0, rows, lats[0].dim)
    return _scale_and_slope([fit for fit, _ in fits], probe, lats, fits[0][1], notes)[0]


def server_round(
    payloads: list[Payload],
    w_global: np.ndarray,
    client_seeds: dict[int, int],
    t: int,
    n_users: int,
) -> np.ndarray:
    """Decode every payload from shared seeds and federated-average.

    Requires exactly one payload per registered client (full participation);
    the sum runs in ascending client id so arrival order is irrelevant.
    Each coded payload decodes under its generator's codebook from the
    store (_held_codebook): the one its client coded under when the client
    ran in this process, else one built here once per run; the store then
    keeps only the codebooks decoded under in round t.  The coded payloads,
    in ascending client id, are cut into the encoder's parts (_parts), and
    each part's transmit dithers are drawn and folded in one call
    (_transmit_dithers), whatever their codebooks.  Every payload's shape
    and scale are checked before any codebook or dither (_check_payloads),
    and each one's indices as it decodes.
    """
    if len(payloads) != n_users:
        raise ProtocolError(f"round {t}: expected {n_users} payloads, got {len(payloads)}")
    by_uid = {p.uid: p for p in payloads}
    if len(by_uid) != n_users or set(by_uid) != set(client_seeds):
        raise ProtocolError(f"round {t}: payload client ids do not match the registry")
    order = sorted(by_uid)
    _check_payloads([by_uid[uid] for uid in order], w_global.size, t)
    updates = {uid: p.raw_update for uid, p in by_uid.items() if p.kind == "none"}
    coded = [by_uid[uid] for uid in order if uid not in updates]
    lats = [_held_codebook(p.gen, t) for p in coded]
    n = coded[0].indices.size if coded else 0
    for part in _parts(len(coded), n):
        dithers = _transmit_dithers(lats[part], [client_seeds[p.uid] for p in coded[part]], t, n)
        for p, lat, d in zip(coded[part], lats[part], dithers):
            updates[p.uid] = recombine(_decode(lat, p.zeta, p.indices, d), p.pad)
    _keep_round(t)
    total = np.zeros_like(w_global)
    for uid in order:
        total += updates[uid]
    return w_global + total / n_users


def _check_payloads(payloads: list[Payload], m: int, t: int) -> None:
    """Raise ProtocolError, naming round t and the client, on the first
    payload whose shape does not decode to the model's m parameters: an
    uncompressed payload's raw update must be a vector of length m; every
    other payload needs a finite positive input scale, a square generator
    of the round's one L (the first coded payload's), a 1-D integer index
    array, a pad in [0, L) and len(indices) L - pad == m; and every payload
    must declare m."""
    dim = None
    for p in payloads:
        say = f"round {t}: client {p.uid}:"
        if p.kind == "none":
            shape = np.shape(p.raw_update)
            if shape != (p.m,):
                raise ProtocolError(f"{say} raw update of shape {shape} != ({p.m},)")
        else:
            if not (isinstance(p.zeta, (int, float, np.integer, np.floating))
                    and 0 < p.zeta < math.inf):
                raise ProtocolError(f"{say} input scale {p.zeta!r} is not finite and positive")
            shape = np.shape(p.gen)
            if dim is None and shape:
                dim = shape[-1]
            if shape != (dim, dim):
                raise ProtocolError(f"{say} generator of shape {shape}, the round's L is {dim}")
            idx = p.indices
            if not (isinstance(idx, np.ndarray) and idx.ndim == 1
                    and np.issubdtype(idx.dtype, np.integer)):
                raise ProtocolError(f"{say} indices are not a 1-D integer array")
            if not (isinstance(p.pad, (int, np.integer)) and 0 <= p.pad < dim):
                raise ProtocolError(f"{say} pad {p.pad!r} is outside [0, {dim})")
            if idx.size * dim - p.pad != p.m:
                raise ProtocolError(f"{say} decoded length {idx.size * dim - p.pad} != m={p.m}")
        if p.m != m:
            raise ProtocolError(f"{say} m={p.m}, the model has {m} parameters")


def _build_dataset(cfg) -> tuple[Dataset, Dataset]:
    if cfg.dataset == "idx":
        train = load_idx_dataset(cfg.train_images, cfg.train_labels, cfg.n_classes)
        test = load_idx_dataset(cfg.test_images, cfg.test_labels, cfg.n_classes)
        return train, test
    data_seed = rng.derive_seed(cfg.master_seed, rng.TAG_DATA)
    train = synthetic_dataset(
        cfg.synthetic_train_size, cfg.synthetic_features, cfg.n_classes,
        cfg.synthetic_noise, seed=data_seed, center_seed=data_seed,
    )
    test = synthetic_dataset(
        cfg.synthetic_test_size, cfg.synthetic_features, cfg.n_classes,
        cfg.synthetic_noise, seed=rng.derive_seed(data_seed, 1), center_seed=data_seed,
    )
    return train, test


def run_fl(cfg) -> FlResult:
    """Execute the full experiment described by cfg; see config.py for knobs."""
    cfg.validate()
    _codebooks.clear()
    train, test = _build_dataset(cfg)
    if test.features.shape[1] != train.features.shape[1]:
        raise ValueError(
            f"test features have width {test.features.shape[1]}, "
            f"train features {train.features.shape[1]}"
        )
    cfg = replace(cfg, input_dim=train.features.shape[1])
    arch = cfg.arch()
    shards = partition_dataset(train, cfg.n_users, seed=rng.derive_seed(cfg.master_seed, rng.TAG_DATA, 1))
    w = init_params(arch, rng.derive_seed(cfg.master_seed, rng.TAG_MODEL_INIT))

    clients = []
    for u in range(cfg.n_users):
        if shards[u].size == 0:
            raise ConfigError(f"U: client {u} of {cfg.n_users} gets none of the {len(train)} samples")
        shard = train.subset(shards[u])
        clients.append(
            ClientState(
                uid=u,
                shard_x=shard.features,
                shard_y=shard.labels,
                seed_root=rng.derive_seed(cfg.master_seed, rng.TAG_CLIENT_ROOT, u),
            )
        )

    if cfg.quantizer in FIXED_GENERATORS:
        gen = normalize_generator(FIXED_GENERATORS[cfg.quantizer], cfg.rate, SUPPORT_RADIUS)
        for c in clients:
            c.gen = gen
    elif cfg.quantizer == "static_global":
        # Offline phase: one shared lattice learned from the clients' initial
        # updates, then frozen for the whole run (validate() rejects loss_kind=task).
        updates = _train_group(
            arch, w, [(c.shard_x, c.shard_y) for c in clients], cfg.local_steps, cfg.model_lr,
            [rng.derive_seed(c.seed_root, rng.TAG_OFFLINE) for c in clients],
        )
        net = init_prior_net(
            cfg.lattice_dim, rng.derive_seed(cfg.master_seed, rng.TAG_OFFLINE, 1)
        )
        [(learned, _)] = _learn([net], w, [np.concatenate(updates)], cfg,
                                [rng.derive_seed(cfg.master_seed, rng.TAG_OFFLINE, 2)])
        for c in clients:
            c.gen = learned.gen

    records: list[RoundRecord] = []
    lattice_log: list[dict] = []
    workers = min(cfg.parallel, cfg.n_users)
    # Each worker runs one contiguous chunk of the clients as a round group.
    size, extra = divmod(len(clients), workers)
    bounds = [k * size + min(k, extra) for k in range(workers + 1)]
    chunks = [clients[a:b] for a, b in zip(bounds, bounds[1:])]
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        run_groups = map if pool is None else pool.map
        for t in range(cfg.rounds):
            groups = run_groups(_round_group, chunks, [w] * workers, [t] * workers, [cfg] * workers)
            payloads = [p for group in groups for p in group]
            # The one client-state update, serial and parallel alike.
            for c, p in zip(clients, payloads):
                if p.theta is not None:
                    c.net = PriorNet(cfg.lattice_dim, p.theta.copy())
                if p.gen is not None:
                    c.gen = p.gen
            w = server_round(payloads, w, {c.uid: c.seed_root for c in clients}, t, cfg.n_users)
            acc = evaluate(arch, w, test)
            dists = [p.distortion for p in payloads]
            snrs = [p.snr_db for p in payloads]
            records.append(
                RoundRecord(
                    t=t,
                    accuracy=acc,
                    mean_snr_db=float(np.mean(snrs)),
                    mean_distortion=float(np.mean(dists)),
                    total_bits=int(sum(p.bits for p in payloads)),
                    payloads=payloads,
                )
            )
            for p in payloads:
                if p.adapted or (t == 0 and p.gen is not None):
                    lattice_log.append(
                        {
                            "t": t,
                            "u": p.uid,
                            "gen": [float(v) for v in p.gen.ravel()],
                            "zeta": float(p.zeta),
                            "codebook_size": int(p.codebook_size),
                        }
                    )
    return FlResult(arch=arch, params=w, records=records, lattice_log=lattice_log)


def write_rounds_csv(records: list[RoundRecord], path: str) -> None:
    """One row per round; RFC 4180 CSV with a header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "accuracy", "mean_snr_db", "mean_distortion", "total_bits"])
        for r in records:
            writer.writerow(
                [r.t, repr(r.accuracy), repr(r.mean_snr_db), repr(r.mean_distortion), r.total_bits]
            )


def write_lattices_jsonl(entries: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


_MODEL_MAGIC = b"OLMD"
_MODEL_KIND_CODES = {"linear": 0, "mlp": 1}


def save_model(arch: ModelArch, params: np.ndarray, path: str) -> None:
    """Binary model: magic, kind, layer widths, then float64 parameters."""
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<II", _MODEL_KIND_CODES[arch.kind], len(arch.widths)))
        fh.write(struct.pack(f"<{len(arch.widths)}I", *arch.widths))
        fh.write(struct.pack("<Q", params.size))
        fh.write(params.astype("<f8").tobytes())


def load_model(path: str) -> tuple[ModelArch, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MODEL_MAGIC:
        raise ValueError(f"{path}: not a model file")
    try:
        kind_code, n_widths = struct.unpack_from("<II", blob, 4)
        widths = struct.unpack_from(f"<{n_widths}I", blob, 12)
        (m,) = struct.unpack_from("<Q", blob, 12 + 4 * n_widths)
    except struct.error:
        raise ValueError(f"{path}: model header cut short") from None
    kinds = {v: k for k, v in _MODEL_KIND_CODES.items()}
    if kind_code not in kinds:
        raise ValueError(f"{path}: unknown model kind code {kind_code}")
    offset = 20 + 4 * n_widths
    if len(blob) - offset != 8 * m:
        raise ValueError(f"{path}: parameter count mismatch")
    try:
        arch = ModelArch(kinds[kind_code], tuple(int(wd) for wd in widths))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if m != arch.n_params:
        raise ValueError(
            f"{path}: {arch.kind} widths {arch.widths} need {arch.n_params} parameters, "
            f"the file holds {m}"
        )
    params = np.frombuffer(blob, dtype="<f8", offset=offset).copy()
    return arch, params
