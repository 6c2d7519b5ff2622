"""A round's clients fit their scales, fold their dithers and quantize as one
slot-axis computation (fl._encode_group), and the server decodes the same
way (fl.server_round).

The references below are the per-client encoder and the per-payload server
loop the lockstep codec replaced, spelled out inline (the encoder's SNR of an
all-zero update is -inf dB, where the per-client encoder raised a math
domain error).  Every payload field, every run output, the scale-fit
warnings and the server's protocol errors must match them bit for bit.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import olala.fl as fl
import olala.lattice as lattice
import olala.sdq as sdq
from olala import rng
from olala.config import ExperimentConfig
from olala.errors import ProtocolError
from olala.fl import FIXED_GENERATORS, ClientState, Payload, bits_accounting, run_fl
from olala.lattice import GEN_HEXAGONAL, build_lattice, quantize_batch
from olala.learning import SUPPORT_RADIUS, _fit_set, _pinned_scale, normalize_generator
from olala.sdq import (
    DitherStream,
    SdqCodec,
    decode_blocks,
    encode_blocks,
    recombine,
    split_vector,
)


def _reference_codebook(codebooks, gen):
    gen = np.asarray(gen, dtype=np.float64)
    key = (gen.shape, gen.tobytes())
    if key not in codebooks:
        codebooks[key] = build_lattice(gen, SUPPORT_RADIUS)
    return codebooks[key]


def _reference_codec(lat, zeta, seed_root, t):
    dither = DitherStream(rng.derive_seed(seed_root, t, rng.TAG_TRANSMIT_DITHER), lat.gen)
    return SdqCodec(lattice=lat, zeta=zeta, dither=dither)


def _reference_encode(client, h, t, cfg, learned, codebooks):
    """One client's scale fit and encoding, on its own."""
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
        lat = _reference_codebook(codebooks, gen)
    blocks, pad = split_vector(h, cfg.lattice_dim)
    probe_seed = rng.derive_seed(client.seed_root, t, rng.TAG_PROBE_DITHER)
    zeta, _ = _pinned_scale(blocks, lat, cfg, probe_seed)
    codec = _reference_codec(lat, zeta, client.seed_root, t)
    dithers = codec.dither.draw(blocks.shape[0])
    indices = encode_blocks(codec, zeta * blocks, dithers)
    recon = recombine(decode_blocks(codec, indices, dithers), pad)
    err = h - recon
    distortion = float(err @ err)
    sig = float(h @ h)
    if distortion == 0:
        snr = math.inf
    else:
        snr = 10.0 * math.log10(sig / distortion) if sig else -math.inf
    return Payload(
        uid=client.uid, t=t, m=m, kind=client.quantizer_kind,
        bits=bits_accounting(m, cfg.rate, cfg.lattice_dim, cfg.include_zeta_bits),
        zeta=zeta, pad=pad, gen=gen, indices=indices, distortion=distortion, snr_db=snr,
        codebook_size=lat.size, adapted=learned is not None,
        theta=None if theta is None else theta.copy(), recon=recon,
    )


def _reference_encode_group(clients, hs, t, cfg, learned):
    codebooks = {}
    return [
        _reference_encode(c, hs[k], t, cfg, learned.get(k), codebooks)
        for k, c in enumerate(clients)
    ]


def _reference_server_round(payloads, w_global, client_seeds, t, n_users):
    """The server, decoding one payload after another in ascending uid."""
    if len(payloads) != n_users:
        raise ProtocolError(f"round {t}: expected {n_users} payloads, got {len(payloads)}")
    by_uid = {p.uid: p for p in payloads}
    if len(by_uid) != n_users or set(by_uid) != set(client_seeds):
        raise ProtocolError(f"round {t}: payload client ids do not match the registry")
    total = np.zeros_like(w_global)
    codebooks = {}
    for uid in sorted(by_uid):
        p = by_uid[uid]
        if p.kind == "none":
            total += p.raw_update
            continue
        codec = _reference_codec(
            _reference_codebook(codebooks, p.gen), p.zeta, client_seeds[uid], t
        )
        dithers = codec.dither.draw(p.indices.shape[0])
        h_hat = recombine(decode_blocks(codec, p.indices, dithers), p.pad)
        if h_hat.size != p.m:
            raise ProtocolError(f"round {t}: client {uid}: decoded length {h_hat.size} != m={p.m}")
        total += h_hat
    return w_global + total / n_users


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
        [(r.t, repr(r.accuracy), repr(r.mean_snr_db), repr(r.mean_distortion), r.total_bits,
          [_payload_bytes(p) for p in r.payloads])
         for r in result.records],
    )


def _reference_run(monkeypatch, cfg):
    with monkeypatch.context() as mp:
        mp.setattr(fl, "_encode_group", _reference_encode_group)
        mp.setattr(fl, "server_round", _reference_server_round)
        return _run_bytes(run_fl(cfg))


def _cfg(**kw):
    base = dict(
        rounds=3, local_steps=20, synthetic_train_size=600, synthetic_test_size=200,
        rate=2.0, lattice_epochs=1, lattice_lr=1e-4, n_users=4,
    )
    base.update(kw)
    return ExperimentConfig(**base)


CASES = {
    "fixed_identity": dict(quantizer="fixed_identity", rate=4.0),
    "fixed_hex": dict(quantizer="fixed_hex"),
    "fixed_hex_r6_mlp": dict(quantizer="fixed_hex", rate=6.0, model="mlp", mlp_hidden="8,8"),
    "fixed_a2": dict(quantizer="fixed_a2"),
    "fixed_d2": dict(quantizer="fixed_d2", rate=3.0),
    "static_global": dict(quantizer="static_global"),
    "static_per_user": dict(quantizer="static_per_user"),
    "olala_adapt_every2": dict(quantizer="olala", adapt_every=2, rounds=4),
    "none": dict(quantizer="none"),
    # m = 3 * (4 + 1) = 15 is odd, so every update is padded by one zero.
    "odd_m": dict(quantizer="fixed_hex", synthetic_features=4, n_classes=3),
    "heuristic": dict(
        quantizer="fixed_hex", rate=5.0, overload_mode="heuristic_minus1", model="mlp",
        mlp_hidden="8,8",
    ),
    "heuristic_olala": dict(quantizer="olala", overload_mode="heuristic_minus1", adapt_every=2),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_run_equals_the_run_that_codes_client_by_client(monkeypatch, name):
    cfg = _cfg(**CASES[name])
    assert _run_bytes(run_fl(cfg)) == _reference_run(monkeypatch, cfg)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["fixed_hex_r6_mlp", "olala_adapt_every2", "heuristic"])
def test_a_parallel_run_equals_the_serial_reference(monkeypatch, name):
    cfg = _cfg(**CASES[name])
    parallel = _cfg(parallel=2, **CASES[name])
    assert _run_bytes(run_fl(parallel)) == _reference_run(monkeypatch, cfg)


def _held_clients(count, gen, kind="fixed_hex"):
    return [
        ClientState(
            uid=u, shard_x=None, shard_y=None, seed_root=rng.derive_seed(5, rng.TAG_CLIENT_ROOT, u),
            quantizer_kind=kind, gen=gen,
        )
        for u in range(count)
    ]


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("mode", ["fraction", "heuristic_minus1"])
def test_scale_fit_warnings_come_once_per_client_in_client_order(mode):
    # A single-codeword lattice: no scale meets a zero overload target
    # (the dither alone overloads), and a zero update fits no scale at all.
    # Under the heuristic the heavy-tailed updates keep fewer blocks than the
    # zero ones, so the fit runs as two stacks, and the warnings still come
    # in client order.
    cfg = _cfg(quantizer="fixed_hex", overload_mode=mode, target_overload=0.0, heuristic_target=0.0)
    clients = _held_clients(5, 5.0 * np.eye(2))
    draw = np.random.default_rng(0)
    hs = [0.01 * draw.standard_t(3, size=201) if u % 2 == 0 else np.zeros(201) for u in range(5)]
    if mode == "heuristic_minus1":
        sizes = {_fit_set(split_vector(h, 2)[0], cfg)[0].shape[0] for h in hs}
        assert len(sizes) == 2, sizes
    got, got_warned = _recorded(fl._encode_group, clients, hs, 1, cfg, {})
    ref, ref_warned = _recorded(_reference_encode_group, clients, hs, 1, cfg, {})
    assert [_payload_bytes(p) for p in got] == [_payload_bytes(p) for p in ref]
    assert got_warned == ref_warned
    assert [message[:8] for _, message in got_warned] == ["no feasi", "all-zero"] * 2 + ["no feasi"]
    assert all(category is UserWarning for category, _ in got_warned)


def _round_payloads(cfg, t=1):
    """Round t's payloads of every client under the fixed generator of cfg,
    the client seeds and the model they were trained from."""
    train, _ = fl._build_dataset(cfg)
    gen = normalize_generator(FIXED_GENERATORS[cfg.quantizer], cfg.rate, SUPPORT_RADIUS)
    clients = []
    for u in range(cfg.n_users):
        part = train.subset(np.arange(u, len(train), cfg.n_users))
        clients.append(ClientState(
            uid=u, shard_x=part.features, shard_y=part.labels,
            seed_root=rng.derive_seed(cfg.master_seed, rng.TAG_CLIENT_ROOT, u),
            quantizer_kind=cfg.quantizer, gen=gen,
        ))
    w = np.zeros(cfg.arch().n_params)
    payloads = fl._round_group(clients, w, t, cfg)
    return payloads, {c.uid: c.seed_root for c in clients}, w


@pytest.mark.parametrize("uid", [0, 2, 3])
@pytest.mark.parametrize("bad", [-1, "size"])
def test_a_corrupt_index_raises_the_per_payload_protocol_error(uid, bad):
    cfg = _cfg(quantizer="fixed_hex", rate=6.0)
    payloads, seeds, w = _round_payloads(cfg)
    p = payloads[uid]
    p.indices = p.indices.copy()
    p.indices[7] = p.codebook_size if bad == "size" else bad
    with pytest.raises(ProtocolError) as ref:
        _reference_server_round(payloads, w, seeds, 1, cfg.n_users)
    with pytest.raises(ProtocolError) as got:
        fl.server_round(payloads[::-1], w, seeds, 1, cfg.n_users)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("codebook index ")


def test_a_short_payload_raises_the_per_payload_length_error():
    cfg = _cfg(quantizer="fixed_hex")
    payloads, seeds, w = _round_payloads(cfg)
    payloads[1].m += 2
    with pytest.raises(ProtocolError) as ref:
        _reference_server_round(payloads, w, seeds, 1, cfg.n_users)
    with pytest.raises(ProtocolError) as got:
        fl.server_round(payloads, w, seeds, 1, cfg.n_users)
    assert str(got.value) == str(ref.value)


def _shorter(p):
    p.indices, p.m = p.indices[:-1], p.m - p.gen.shape[0]


MALFORMED = {
    "negative_pad": lambda p: setattr(p, "pad", -1),
    "pad_of_L": lambda p: setattr(p, "pad", p.gen.shape[0]),
    "3x3_generator": lambda p: setattr(p, "gen", np.eye(3)),
    "float_indices": lambda p: setattr(p, "indices", p.indices.astype(np.float64)),
    "no_indices": lambda p: setattr(p, "indices", None),
    "2d_indices": lambda p: setattr(p, "indices", p.indices[:, None]),
    "m_not_the_model_size": _shorter,
    "none_without_raw_update": lambda p: setattr(p, "kind", "none"),
    "none_with_a_short_raw_update": lambda p: (
        setattr(p, "kind", "none"), setattr(p, "raw_update", np.zeros(p.m - 1))
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_payload_is_refused_before_any_dither(monkeypatch, case):
    cfg = _cfg(quantizer="fixed_hex", n_users=2)
    payloads, seeds, w = _round_payloads(cfg)
    MALFORMED[case](payloads[1])

    def no_dithers(*args):
        raise AssertionError("a dither was folded for a malformed round")

    monkeypatch.setattr(fl, "_transmit_dithers", no_dithers)
    with pytest.raises(ProtocolError, match=r"^round 1: client 1: "):
        fl.server_round(payloads, w, seeds, 1, cfg.n_users)


def test_the_server_decodes_a_chunked_group_as_one_payload_at_a_time(monkeypatch):
    cfg = _cfg(quantizer="fixed_hex", rate=6.0, n_users=5)
    payloads, seeds, w = _round_payloads(cfg)
    ref = _reference_server_round(payloads, w, seeds, 1, cfg.n_users)
    for rows in (1, 2 * payloads[0].indices.size, 1 << 16):
        monkeypatch.setattr(fl, "_CODEC_ROWS", rows)
        assert fl.server_round(payloads, w, seeds, 1, cfg.n_users).tobytes() == ref.tobytes()


@pytest.mark.parametrize("rows", [1, 700, 1 << 16])
def test_encoding_in_chunks_equals_client_by_client(monkeypatch, rows):
    monkeypatch.setattr(fl, "_CODEC_ROWS", rows)
    cfg = _cfg(quantizer="fixed_hex", rate=6.0, n_users=5, overload_mode="heuristic_minus1")
    clients = _held_clients(5, normalize_generator(GEN_HEXAGONAL, cfg.rate, SUPPORT_RADIUS))
    draw = np.random.default_rng(3)
    hs = [0.01 * draw.standard_t(3, size=601) for _ in clients]
    got = fl._encode_group(clients, hs, 2, cfg, {})
    ref = _reference_encode_group(clients, hs, 2, cfg, {})
    assert [_payload_bytes(p) for p in got] == [_payload_bytes(p) for p in ref]


def _run_counts(monkeypatch, cfg):
    """run_fl(cfg)'s dither folds, offset-set derivations and codebook
    builds, keyed by (phase, name): the client's encoder, the server or
    the rest of the run."""
    counts = {}
    phase = ["run"]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            key = (phase[0], name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def staged(name, fn):
        def wrapper(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer

        return wrapper

    monkeypatch.setattr(sdq, "_fold_dithers", counted("fold", sdq._fold_dithers))
    monkeypatch.setattr(lattice, "_offsets", counted("offsets", lattice._offsets))
    monkeypatch.setattr(fl, "build_lattice", counted("codebook", fl.build_lattice))
    monkeypatch.setattr(fl, "_encode_group", staged("client", fl._encode_group))
    monkeypatch.setattr(fl, "server_round", staged("server", fl.server_round))
    run_fl(cfg)
    return counts


def test_one_fold_per_stream_and_one_offset_set_per_codebook(monkeypatch):
    # 5 clients of 1,000+ blocks score enough offsets to prune the cube.
    cfg = _cfg(
        quantizer="fixed_hex", rate=6.0, n_users=5, rounds=3, model="mlp", mlp_hidden="16,16",
        synthetic_features=100,
    )
    counts = _run_counts(monkeypatch, cfg)
    rounds = cfg.rounds
    assert counts[("client", "fold")] == 2 * rounds  # one probe, one transmit fold
    assert counts[("server", "fold")] == rounds
    # One codebook, with its offset set, serves every round at both ends.
    assert counts[("client", "codebook")] == counts[("client", "offsets")] == 1
    assert ("server", "codebook") not in counts and ("server", "offsets") not in counts


def test_the_server_folds_a_round_of_learned_codebooks_at_once(monkeypatch):
    # Each client codes under the codebook it learned, 5 codebooks a round;
    # both ends still fold a round's transmit dithers in one call.
    cfg = _cfg(quantizer="olala", n_users=5, rounds=6)
    counts = _run_counts(monkeypatch, cfg)
    assert counts[("client", "fold")] == 2 * cfg.rounds  # one probe, one transmit fold
    assert counts[("server", "fold")] == cfg.rounds


def test_the_encoder_quantizes_a_round_of_learned_codebooks_at_once(monkeypatch):
    # Five learned codebooks of at most 64 codewords (L=2, R=3): each
    # _codec call quantizes its clients in one padded scan, with no
    # quantize_batch call per client, by whichever name it is reached.
    counts, inside = [], [False]

    def counted(fn):
        def wrapper(*args, **kwargs):
            if inside[0]:
                counts[-1] += 1
            return fn(*args, **kwargs)

        return wrapper

    def codec(*args, **kwargs):
        counts.append(0)
        inside[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            inside[0] = False

    real = fl._codec
    batch = counted(lattice.quantize_batch)
    monkeypatch.setattr(lattice, "quantize_batch", batch)
    monkeypatch.setattr(fl, "quantize_batch", batch, raising=False)
    monkeypatch.setattr(fl, "_codec", codec)
    cfg = _cfg(quantizer="olala", n_users=5, rounds=2, rate=3.0)
    run_fl(cfg)
    assert counts == [0] * cfg.rounds  # one _codec call a round


def test_a_stacked_codec_call_holds_at_most_the_row_bound():
    # 40 clients of 784-wide MLP updates (26,506 parameters, 13,253 blocks
    # each): coded in one stack, the group's temporaries alone would take
    # many times the updates.
    count = 40
    cfg = _cfg(quantizer="fixed_hex", rate=6.0, n_users=count, model="mlp", mlp_hidden="32,32")
    m = 784 * 32 + 32 + 32 * 32 + 32 + 32 * 10 + 10
    clients = _held_clients(count, normalize_generator(GEN_HEXAGONAL, cfg.rate, SUPPORT_RADIUS))
    draw = np.random.default_rng(1)
    hs = [0.01 * draw.standard_normal(m) for _ in range(count)]
    blocks = -(-m // 2)
    outputs = count * (m + blocks) * 8  # each payload's recon and indices
    rows = fl._CODEC_ROWS * 2 * 8  # one float array of a full chunk
    tracemalloc.start()
    try:
        payloads = fl._encode_group(clients, hs, 0, cfg, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(payloads) == count
    assert peak < outputs + 16 * rows


@pytest.mark.parametrize("rate", [3.0, 6.0])
def test_quantize_batch_on_a_slot_axis_is_each_slot_alone(rate):
    # The scan (rate 3) and the certified lookup (rate 6), with rows far
    # outside the box and non-finite rows in some slots.
    lat = build_lattice(normalize_generator(GEN_HEXAGONAL, rate, SUPPORT_RADIUS), SUPPORT_RADIUS)
    draw = np.random.default_rng(4)
    xs = draw.uniform(-1.2, 1.2, size=(4, 500, 2))
    xs[1, 3] = [1e12, -1e12]
    xs[2, 7] = [np.nan, 0.0]
    xs[3, 9] = [np.inf, 1.0]
    with np.errstate(invalid="ignore"):
        got = quantize_batch(lat, xs)
        alone = [quantize_batch(lat, x) for x in xs]
    assert got.shape == (4, 500)
    for row, ref in zip(got, alone):
        assert row.tobytes() == ref.tobytes()
