"""Deterministic federated simulation with per-client adaptive lattice codecs.

Each round: the server broadcasts the model; every client runs local SGD,
optionally relearns its lattice, scales and SDQ-encodes its update, and
ships integer indices plus (generator, zeta) metadata.  The clients that
relearn in a round do so as one lockstep group (learning._learn_group).  The
server rebuilds each client's dither stream from the shared seed and
decodes.  Everything is a pure function of the experiment config and master
seed: reductions happen in ascending client id regardless of execution
order, and a client's lattice does not depend on the group it learned in, so
results do not depend on scheduling or on the --parallel setting.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .data import Dataset, load_idx_dataset, partition_dataset, synthetic_dataset
from .errors import ConfigError, ProtocolError
from .lattice import (
    GEN_A2,
    GEN_D2,
    GEN_HEXAGONAL,
    GEN_IDENTITY_2D,
    TruncatedLattice,
    build_lattice,
)
from .learning import (
    SUPPORT_RADIUS,
    LearnedLattice,
    LearnerConfig,
    PriorNet,
    _learn_group,
    _pinned_scale,
    init_prior_net,
    normalize_generator,
)
from .models import ModelArch, _sgd_steps, accuracy, init_params, make_objective
from .sdq import (
    DitherStream,
    SdqCodec,
    decode_blocks,
    encode_blocks,
    recombine,
    split_vector,
)

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


# Local SGD steps whose rows are gathered at once: about 6 MB of 784-pixel
# float64 rows, one gather for every default-sized call.
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

    The caller's parameter vector is untouched; step s trains on row
    int(stream_unit(seed, s) * n) of the n-row shard.  Steps run one sample
    each on layer views prepared once (models._sgd_steps), bit-identical to
    descending loss_and_grad on that row.  Rows are gathered _GATHER_STEPS
    steps at a time, so memory stays bounded for any step count.
    """
    if steps < 1:
        raise ValueError("need at least one local step")
    n = shard_y.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty shard")
    w = params.copy()
    for start in range(0, steps, _GATHER_STEPS):
        count = min(_GATHER_STEPS, steps - start)
        rows = (rng.stream_unit_block(seed, start, count) * n).astype(np.int64)
        _sgd_steps(arch, w, shard_x[rows], shard_y[rows], eta, start)
    return w - params


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
    quantizer_kind: str
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
    lcfgs = [
        LearnerConfig(
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
        for seed in seeds
    ]
    objectives = [
        make_objective(cfg.arch(), x, y) if cfg.loss_kind == "task" else None
        for x, y in (shards or [(None, None)] * len(nets))
    ]
    return _learn_group(nets, [w] * len(nets), hs, lcfgs, objectives)


def _transmit_codec(lat, zeta: float, seed_root: int, t: int) -> SdqCodec:
    """Round t's codec of the client rooted at seed_root: the encoder's and
    the decoder's alike, so both ends read one transmit dither stream."""
    dither = DitherStream(rng.derive_seed(seed_root, t, rng.TAG_TRANSMIT_DITHER), lat.gen)
    return SdqCodec(lattice=lat, zeta=zeta, dither=dither)


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
    """Round t of a group of clients, in three phases: local training per
    client; adaptation of every client that adapts this round, as one
    lockstep learner group; scale fit and encoding per client.  Reads the
    clients and writes none of them: run_fl applies each payload's theta
    and gen.  A client's payload does not depend on the group it ran in."""
    hs = [
        local_train(
            cfg.arch(), w_global, c.shard_x, c.shard_y, cfg.local_steps, cfg.model_lr,
            rng.derive_seed(c.seed_root, t, rng.TAG_LOCAL_SGD),
        )
        for c in clients
    ]
    adapting = [
        k for k, c in enumerate(clients)
        if c.quantizer_kind != "none" and _adapts_this_round(c.quantizer_kind, t, cfg.adapt_every)
    ]
    learned = {}
    if adapting:
        nets = []
        for k in adapting:
            net = clients[k].net
            if net is None or cfg.reset_theta_each_round:
                net = init_prior_net(
                    cfg.lattice_dim, rng.derive_seed(clients[k].seed_root, rng.TAG_CLIENT_ROOT)
                )
            nets.append(net)
        group = _learn(
            nets, w_global, [hs[k] for k in adapting], cfg,
            [rng.derive_seed(clients[k].seed_root, t, rng.TAG_LATTICE_LEARN) for k in adapting],
            [(clients[k].shard_x, clients[k].shard_y) for k in adapting],
        )
        learned = dict(zip(adapting, group))
    return [_encode(c, hs[k], t, cfg, learned.get(k)) for k, c in enumerate(clients)]


def _encode(client: ClientState, h: np.ndarray, t: int, cfg, learned) -> Payload:
    """Scale fit and SDQ encoding of one client's update h, under the
    lattice it learned this round (learned: the LearnedLattice and its
    codebook) or else the one it holds."""
    m = h.size
    if client.quantizer_kind == "none":
        return Payload(
            uid=client.uid, t=t, m=m, kind="none", bits=64 * m,
            raw_update=h, recon=h.copy(), distortion=0.0, snr_db=math.inf,
        )
    if learned is not None:
        out, lat = learned
        gen, theta = out.gen, out.theta
    else:
        gen, theta = client.gen, None if client.net is None else client.net.theta
        if gen is None:
            raise ProtocolError(f"client {client.uid} has no generator configured")
        lat = build_lattice(gen, SUPPORT_RADIUS)

    blocks, pad = split_vector(h, cfg.lattice_dim)
    probe_seed = rng.derive_seed(client.seed_root, t, rng.TAG_PROBE_DITHER)
    zeta, _ = _pinned_scale(blocks, lat, cfg, probe_seed)  # the learner's own scale fit

    codec = _transmit_codec(lat, zeta, client.seed_root, t)
    dithers = codec.dither.draw(blocks.shape[0])
    indices = encode_blocks(codec, zeta * blocks, dithers)
    recon_blocks = decode_blocks(codec, indices, dithers)
    recon = recombine(recon_blocks, pad)
    err = h - recon
    distortion = float(err @ err)
    sig = float(h @ h)
    snr = math.inf if distortion == 0 else 10.0 * math.log10(sig / distortion)
    return Payload(
        uid=client.uid,
        t=t,
        m=m,
        kind=client.quantizer_kind,
        bits=bits_accounting(m, cfg.rate, cfg.lattice_dim, cfg.include_zeta_bits),
        zeta=zeta,
        pad=pad,
        gen=gen,
        indices=indices,
        distortion=distortion,
        snr_db=snr,
        codebook_size=lat.size,
        adapted=learned is not None,
        theta=None if theta is None else theta.copy(),
        recon=recon,
    )


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
    """
    if len(payloads) != n_users:
        raise ProtocolError(f"round {t}: expected {n_users} payloads, got {len(payloads)}")
    by_uid = {p.uid: p for p in payloads}
    if len(by_uid) != n_users or set(by_uid) != set(client_seeds):
        raise ProtocolError(f"round {t}: payload client ids do not match the registry")
    total = np.zeros_like(w_global)
    for uid in sorted(by_uid):
        p = by_uid[uid]
        if p.kind == "none":
            total += p.raw_update
            continue
        codec = _transmit_codec(build_lattice(p.gen, SUPPORT_RADIUS), p.zeta, client_seeds[uid], t)
        dithers = codec.dither.draw(p.indices.shape[0])
        blocks = decode_blocks(codec, p.indices, dithers)
        h_hat = recombine(blocks, p.pad)
        if h_hat.size != p.m:
            raise ProtocolError(f"round {t}: decoded length {h_hat.size} != m={p.m}")
        total += h_hat
    return w_global + total / n_users


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
                quantizer_kind=cfg.quantizer,
            )
        )

    if cfg.quantizer in FIXED_GENERATORS:
        gen = normalize_generator(FIXED_GENERATORS[cfg.quantizer], cfg.rate, SUPPORT_RADIUS)
        for c in clients:
            c.gen = gen
    elif cfg.quantizer == "static_global":
        # Offline phase: one shared lattice learned from the clients' initial
        # updates, then frozen for the whole run (validate() rejects loss_kind=task).
        updates = [
            local_train(
                arch, w, c.shard_x, c.shard_y, cfg.local_steps, cfg.model_lr,
                rng.derive_seed(c.seed_root, rng.TAG_OFFLINE),
            )
            for c in clients
        ]
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
