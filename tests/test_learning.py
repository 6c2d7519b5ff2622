"""Prior network, normalization, stop-gradient losses, online adaptation."""

import math
import warnings

import numpy as np
import pytest

from olala import rng
from olala.errors import GeometryError, NumericError
from olala.lattice import GEN_HEXAGONAL, build_lattice, count_codewords_at_most, quantize_batch
from olala.learning import (
    LearnerConfig,
    PriorNet,
    _forward_cached,
    _lattice_and_shell,
    _measured_mse,
    _measured_mse_grad,
    _pinned_scale,
    _Slots,
    codeword_budget,
    compute_loss,
    frozen_loss,
    init_prior_net,
    lattice_grad,
    normalize_generator,
    normalize_scale,
    online_lattice_learning,
    overload_heuristic_minus1,
    prior_forward,
)
from olala.sdq import DitherStream, SdqCodec, dithers_at, fit_scale, split_vector

# First-run snapshot of the prior forward pass (seed 2024, theta[100] += 0.125).
GOLDEN_RAW = np.array(
    [
        [0.9934039900934489, 0.5001720785490565],
        [-0.003263281234617693, 0.8737745033857168],
    ]
)


def _perturbed_net(seed=2024, bump=0.125):
    net = init_prior_net(2, seed=seed)
    th = net.theta.copy()
    th[100] += bump
    return PriorNet(2, th)


def test_warm_start_outputs_hexagonal():
    net = init_prior_net(2, seed=7)
    assert np.allclose(prior_forward(net), GEN_HEXAGONAL, atol=1e-12)
    net3 = init_prior_net(3, seed=7)
    assert np.allclose(prior_forward(net3), np.eye(3), atol=1e-12)


def test_zero_theta_outputs_zero_matrix():
    net = init_prior_net(2, seed=1)
    zero = PriorNet(2, np.zeros_like(net.theta))
    raw = prior_forward(zero)
    assert np.array_equal(raw, np.zeros((2, 2)))
    with pytest.raises(GeometryError):
        normalize_generator(raw, 2.0)


def test_prior_forward_golden_snapshot():
    raw = prior_forward(_perturbed_net())
    assert np.array_equal(raw, GOLDEN_RAW)


def test_prior_forward_rejects_nonfinite():
    net = init_prior_net(2, seed=1)
    th = net.theta.copy()
    th[0] = np.nan
    with pytest.raises(NumericError):
        prior_forward(PriorNet(2, th))


def test_prior_forward_lipschitz_probe():
    net = _perturbed_net()
    th = net.theta
    k = 321
    eps0 = 1e-6
    tp, tm = th.copy(), th.copy()
    tp[k] += eps0
    tm[k] -= eps0
    lip = np.linalg.norm(prior_forward(PriorNet(2, tp)) - prior_forward(PriorNet(2, tm))) / (
        2 * eps0
    )
    eps = 1e-3
    tb = th.copy()
    tb[k] += eps
    delta = np.linalg.norm(prior_forward(PriorNet(2, tb)) - prior_forward(net))
    assert delta <= (lip + 0.05) * eps


def test_codeword_budget():
    assert codeword_budget(2, 1.0) == 4
    assert codeword_budget(2, 2.5) == 32
    assert codeword_budget(1, 3.0) == 8


def test_normalize_identity_rate1():
    # Grid oracle: counts drop 5 -> 1 exactly at c = 1, so the smallest
    # feasible scale sits just above 1 (codebook budget 4 is unattainable).
    c = normalize_scale(np.eye(2), 1.0)
    assert 1.0 <= c <= 1.0 + 1e-9
    assert count_codewords_at_most(c * np.eye(2), 1.0, 4) <= 4


def test_normalize_minimality_against_grid_oracle():
    raw = GEN_HEXAGONAL
    c = normalize_scale(raw, 3.0)
    budget = 64
    assert count_codewords_at_most(c * raw, 1.0, budget) <= budget
    # any 0.1% smaller scale must violate the budget (minimality)
    assert count_codewords_at_most(0.999 * c * raw, 1.0, budget) > budget


def test_normalize_hexagonal_rate3_tightness():
    gen = normalize_generator(GEN_HEXAGONAL, 3.0)
    size = build_lattice(gen, 1.0).size
    assert 32 < size <= 64


def test_normalize_with_margin_keeps_minimal_scale():
    # already far below budget at c=1: minimal feasible scale is < 1
    raw = 2.0 * np.eye(2)
    c = normalize_scale(raw, 3.0)
    assert c <= 1.0
    assert count_codewords_at_most(c * raw, 1.0, 64) <= 64


def test_normalize_singular_raw_errors():
    with pytest.raises(GeometryError):
        normalize_generator(np.array([[1.0, 1.0], [1.0, 1.0]]), 2.0)


def _setup_codec(seed, rate=3.0, zeta=0.9):
    net = init_prior_net(2, seed=seed)
    rng_ = np.random.default_rng(seed)
    th = net.theta + 0.02 * rng_.normal(size=net.theta.size)
    net = PriorNet(2, th)
    raw, _ = _forward_cached(th, 2)
    gen = normalize_generator(raw, rate)
    lat = build_lattice(gen, 1.0)
    codec = SdqCodec(lattice=lat, zeta=zeta, dither=DitherStream(seed, gen))
    return net, codec


def test_compute_loss_zero_on_codewords():
    _, codec = _setup_codec(5, zeta=1.0)
    blocks = codec.lattice.codebook[:6]
    d = np.zeros_like(blocks)
    assert compute_loss("mse", blocks, codec, d) == 0.0


def test_compute_loss_additivity():
    net, codec = _setup_codec(6)
    rng_ = np.random.default_rng(1)
    blocks = rng_.normal(size=(10, 2)) * 0.3
    d = dithers_at(3, codec.lattice.gen, 0, 10)
    total = compute_loss("mse", blocks, codec, d)
    parts = sum(
        compute_loss("mse", blocks[i : i + 1], codec, d[i : i + 1]) for i in range(10)
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_neg_snr_matches_straight_line_recomputation():
    net, codec = _setup_codec(7)
    rng_ = np.random.default_rng(2)
    blocks = rng_.normal(size=(16, 2)) * 0.3
    d = dithers_at(4, codec.lattice.gen, 0, 16)
    loss = compute_loss("neg_snr", blocks, codec, d)
    x = codec.zeta * blocks
    idx = quantize_batch(codec.lattice, x + d)
    rec = codec.lattice.codebook[idx] - d
    sig = float((x**2).sum())
    dist = float(((x - rec) ** 2).sum())
    assert loss == pytest.approx(-sig / dist, rel=1e-12)


def test_task_loss_requires_objective():
    _, codec = _setup_codec(8)
    with pytest.raises(ValueError):
        compute_loss("task", np.ones((2, 2)), codec, np.zeros((2, 2)))


def test_task_batches_forced_to_one():
    cfg = LearnerConfig(loss_kind="task", batches=8)
    assert cfg.batches == 1


def _quadratic_objective(dim, seed):
    rng_ = np.random.default_rng(seed)
    a = rng_.normal(size=(dim, dim))
    a = a @ a.T / dim + np.eye(dim)
    c = rng_.normal(size=dim) * 0.3

    def objective(w):
        r = w - c
        return 0.5 * float(r @ a @ r), a @ r

    return objective


@pytest.mark.parametrize("kind", ["mse", "neg_snr", "task"])
def test_gen_gradient_matches_frozen_finite_differences(kind):
    net, codec = _setup_codec(11)
    rng_ = np.random.default_rng(3)
    m = 24
    h = rng_.normal(size=m) * 0.2
    blocks, pad = split_vector(h, 2)
    w = rng_.normal(size=m) * 0.1
    objective = _quadratic_objective(m, 4)
    gen = codec.lattice.gen
    d = dithers_at(123, gen, 0, blocks.shape[0])
    idx = quantize_batch(codec.lattice, codec.zeta * blocks + d)
    assign = codec.lattice.index_set[idx]

    from olala.learning import _frozen_loss_grad_gen

    _, dgen = _frozen_loss_grad_gen(kind, gen, blocks, d, assign, codec.zeta, w, objective, pad)
    eps = 1e-6
    fd = np.zeros_like(gen)
    for a in range(2):
        for b in range(2):
            gp, gm = gen.copy(), gen.copy()
            gp[a, b] += eps
            gm[a, b] -= eps
            fd[a, b] = (
                frozen_loss(kind, gp, blocks, d, assign, codec.zeta, w, objective, pad)
                - frozen_loss(kind, gm, blocks, d, assign, codec.zeta, w, objective, pad)
            ) / (2 * eps)
    assert np.abs(fd - dgen).max() <= 1e-4 * max(np.abs(fd).max(), 1e-12)


@pytest.mark.parametrize("kind", ["mse", "neg_snr", "task"])
def test_theta_gradient_matches_frozen_finite_differences(kind):
    net, codec = _setup_codec(13)
    rng_ = np.random.default_rng(5)
    m = 24
    h = rng_.normal(size=m) * 0.2
    blocks, pad = split_vector(h, 2)
    w = rng_.normal(size=m) * 0.1
    objective = _quadratic_objective(m, 6)
    gen = codec.lattice.gen
    d = dithers_at(55, gen, 0, blocks.shape[0])
    _, dtheta = lattice_grad(net, blocks, codec, kind, d, w=w, objective=objective, pad=pad)

    raw, _ = _forward_cached(net.theta, 2)
    scale = float(np.einsum("ij,ij->", gen, raw) / np.einsum("ij,ij->", raw, raw))
    idx = quantize_batch(codec.lattice, codec.zeta * blocks + d)
    assign = codec.lattice.index_set[idx]

    def floss(th):
        r, _ = _forward_cached(th, 2)
        return frozen_loss(kind, scale * r, blocks, d, assign, codec.zeta, w, objective, pad)

    eps = 1e-6
    rng_idx = np.random.default_rng(7).choice(net.theta.size, 120, replace=False)
    scale_ref = max(np.abs(dtheta).max(), 1e-12)
    for k in rng_idx:
        tp, tm = net.theta.copy(), net.theta.copy()
        tp[k] += eps
        tm[k] -= eps
        fd = (floss(tp) - floss(tm)) / (2 * eps)
        assert abs(fd - dtheta[k]) <= 1e-3 * scale_ref


def _one_slot_mse_grad(theta, blocks, ids, lat, cfg):
    """_measured_mse_grad for a group of one slot (seed cfg.seed) on blocks."""
    group = _Slots(cfg, [cfg.seed], np.asarray(blocks, dtype=np.float64)[None])
    shell = _lattice_and_shell(lat.gen, 1.0)[1]
    fwd = _forward_cached(theta[None], 2)
    ids = np.asarray(ids)[None]
    loss, dtheta = _measured_mse_grad(group, theta[None], ids, [lat], [shell], fwd)
    return float(loss[0]), dtheta[0]


@pytest.mark.parametrize(
    "mode, warm_start, rate, target",
    [
        ("fraction", None, 3.0, 0.005),
        ("heuristic_minus1", None, 3.0, 0.005),
        ("fraction", None, 2.0, 0.005),
        # Long thin cells: the dither alone overloads, so no scale meets a
        # zero target and fit_scale falls back to its bracket floor.
        ("fraction", np.diag([1.0, 0.05]), 1.0, 0.0),
        ("heuristic_minus1", np.diag([1.0, 0.05]), 1.0, 0.0),
    ],
)
def test_measured_mse_gradient_matches_finite_differences(mode, warm_start, rate, target):
    # The mse step's gradient is that of the safeguard metric itself, with
    # normalization and scale fit included; away from ties every discrete
    # choice is locally constant, so central differences must agree.
    net = init_prior_net(2, seed=3, warm_start=warm_start)
    jitter = 0.05 if warm_start is None else 0.01
    theta = net.theta + jitter * (
        rng.stream_unit_block(rng.derive_seed(3, 1), 0, net.theta.size) - 0.5
    )
    blocks = np.random.default_rng(3).normal(size=(60, 2)) * np.array([1.0, 0.3])
    cfg = LearnerConfig(loss_kind="mse", rate=rate, overload_mode=mode, seed=17,
                        target_overload=target, heuristic_target=target)
    raw, _ = _forward_cached(theta, 2)
    gen = normalize_generator(raw, rate)
    lat = build_lattice(gen, 1.0)
    assert _lattice_and_shell(gen, 1.0)[1].shape[0] == 1  # no tie at the budget boundary
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zeta, dzeta = _pinned_scale(blocks, lat, cfg)
        loss, dtheta = _one_slot_mse_grad(theta, blocks, np.arange(60), lat, cfg)
        assert loss == pytest.approx(_measured_mse(theta, 2, blocks, cfg), rel=1e-12)
        if target == 0.0:
            assert zeta == pytest.approx(1e-9) and not dzeta.any()
        else:
            assert np.abs(dzeta).max() > 0
        # every output-layer entry, plus a sample of the hidden weights
        ks = np.concatenate([
            np.arange(theta.size - 4, theta.size),
            np.random.default_rng(1).choice(theta.size - 4, 30, replace=False),
        ])
        eps = 1e-6
        fd = np.empty(ks.size)
        for i, k in enumerate(ks):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            fd[i] = (
                _measured_mse(tp, 2, blocks, cfg) - _measured_mse(tm, 2, blocks, cfg)
            ) / (2 * eps)
    assert np.linalg.norm(fd - dtheta[ks]) <= 1e-4 * np.linalg.norm(fd)


def test_measured_mse_gradient_batches_sum_to_full():
    # The batch shares partition the metric: their losses and gradients add
    # up to the whole training set's.
    net = init_prior_net(2, seed=4)
    theta = net.theta + 0.05 * (
        rng.stream_unit_block(rng.derive_seed(4, 1), 0, net.theta.size) - 0.5
    )
    blocks = np.random.default_rng(4).normal(size=(50, 2))
    cfg = LearnerConfig(loss_kind="mse", rate=3.0, seed=19)
    raw, _ = _forward_cached(theta, 2)
    gen = normalize_generator(raw, 3.0)
    lat = build_lattice(gen, 1.0)
    full_loss, full_grad = _one_slot_mse_grad(theta, blocks, np.arange(50), lat, cfg)
    order = np.random.default_rng(5).permutation(50)
    parts = [
        _one_slot_mse_grad(theta, blocks, ids, lat, cfg)
        for ids in np.array_split(order, 4)
    ]
    assert sum(p[0] for p in parts) == pytest.approx(full_loss, rel=1e-12)
    assert np.allclose(
        sum(p[1] for p in parts), full_grad, rtol=1e-9, atol=1e-12 * np.abs(full_grad).max()
    )


def test_measured_mse_gradient_keeps_tied_shell_tied():
    # At the hexagonal warm start the twelve points of norm^2 19 (in units
    # of the shortest vector) tie at the budget boundary; the step must not
    # split them to first order.
    net = init_prior_net(2, seed=1)
    blocks = np.random.default_rng(6).normal(size=(80, 2)) * np.array([1.0, 0.3])
    cfg = LearnerConfig(loss_kind="mse", rate=3.0, seed=23)
    raw, _ = _forward_cached(net.theta, 2)
    gen = normalize_generator(raw, 3.0)
    lat = build_lattice(gen, 1.0)
    shell = _lattice_and_shell(gen, 1.0)[1]
    assert shell.shape[0] == 6  # one of each +-l pair
    _, dtheta = _one_slot_mse_grad(net.theta, blocks, np.arange(80), lat, cfg)
    assert np.linalg.norm(dtheta) > 0
    eps = 1e-7 / np.linalg.norm(dtheta)

    def shell_sq(th):
        r, _ = _forward_cached(th, 2)
        pts = shell @ r.T
        return np.einsum("ij,ij->i", pts, pts)

    rates = (shell_sq(net.theta + eps * dtheta) - shell_sq(net.theta - eps * dtheta)) / (2 * eps)
    assert np.ptp(rates) <= 1e-6 * np.abs(rates).max()


def test_gradient_zero_when_all_assignments_origin():
    net, codec = _setup_codec(17, zeta=1.0)
    # tiny inputs with dither forced to zero all quantize to the origin
    blocks = np.full((5, 2), 1e-6)
    d = np.zeros((5, 2))
    _, dtheta = lattice_grad(net, blocks, codec, "mse", d)
    assert np.array_equal(dtheta, np.zeros_like(dtheta))


def _anisotropic_blocks(n=200, seed=42):
    rng_ = np.random.default_rng(seed)
    cov = np.array([[1.0, 0.8], [0.8, 0.9]])
    chol = np.linalg.cholesky(cov)
    return (rng_.normal(size=(n, 2)) @ chol.T) * np.array([1.0, 0.25]) + np.array([0.3, -0.1])


def test_online_learning_zero_epochs_returns_initial():
    net = init_prior_net(2, seed=1)
    cfg = LearnerConfig(loss_kind="mse", epochs=0, rate=3.0, seed=5)
    out = online_lattice_learning(net, np.zeros(1), _anisotropic_blocks().ravel(), cfg)
    assert np.allclose(out.gen, normalize_generator(GEN_HEXAGONAL, 3.0))
    assert np.array_equal(out.theta, net.theta)


def test_online_learning_deterministic():
    net = init_prior_net(2, seed=1)
    h = _anisotropic_blocks().ravel()
    cfg = LearnerConfig(loss_kind="mse", learning_rate=1e-4, epochs=5, rate=3.0, seed=5)
    a = online_lattice_learning(net.copy(), np.zeros(1), h, cfg)
    b = online_lattice_learning(net.copy(), np.zeros(1), h, cfg)
    assert np.array_equal(a.gen, b.gen)
    assert a.zeta == b.zeta
    assert np.array_equal(a.theta, b.theta)


def test_online_learning_beats_or_ties_hexagonal_start():
    # Head-to-head: emitted lattice's empirical distortion on the training
    # data may not exceed the warm-start hexagonal lattice's (averaged over
    # dither draws so the comparison tracks expected distortion).
    h = _anisotropic_blocks().ravel()
    blocks, _ = split_vector(h, 2)

    def avg_distortion(gen, zeta, seed, reps=10):
        lat = build_lattice(gen, 1.0)
        tot = 0.0
        for r in range(reps):
            d = dithers_at(seed + r, gen, 0, blocks.shape[0])
            idx = quantize_batch(lat, zeta * blocks + d)
            rec = (lat.codebook[idx] - d) / zeta
            tot += float(((blocks - rec) ** 2).sum())
        return tot / reps

    net = init_prior_net(2, seed=1)
    cfg = LearnerConfig(loss_kind="mse", learning_rate=1e-4, epochs=20, rate=3.0, seed=5)
    out = online_lattice_learning(net, np.zeros(1), h, cfg)
    hex_gen = normalize_generator(GEN_HEXAGONAL, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        hex_zeta = fit_scale(blocks, build_lattice(hex_gen, 1.0), DitherStream(900, hex_gen), cfg.target_overload)
    learned = avg_distortion(out.gen, out.zeta, 500)
    baseline = avg_distortion(hex_gen, hex_zeta, 500)
    assert learned <= baseline * 1.02  # small slack for measurement noise


def test_online_learning_rate_ceiling_invariant():
    h = _anisotropic_blocks(seed=9).ravel()
    for rate in (1.0, 2.0, 2.5):
        net = init_prior_net(2, seed=3)
        cfg = LearnerConfig(loss_kind="mse", learning_rate=2e-4, epochs=6, rate=rate, seed=11)
        out = online_lattice_learning(net, np.zeros(1), h, cfg)
        assert build_lattice(out.gen, 1.0).size <= codeword_budget(2, rate)


def test_online_learning_zeta_equivariance_frozen_theta():
    h = _anisotropic_blocks(seed=12).ravel()
    net = init_prior_net(2, seed=4)
    cfg = LearnerConfig(loss_kind="mse", epochs=0, rate=3.0, seed=13)
    z1 = online_lattice_learning(net.copy(), np.zeros(1), h, cfg).zeta
    z2 = online_lattice_learning(net.copy(), np.zeros(1), 3.0 * h, cfg).zeta
    assert z2 == pytest.approx(z1 / 3.0, rel=1e-6)


def test_heuristic_no_outliers_matches_plain_fit():
    rng_ = np.random.default_rng(21)
    blocks = rng_.normal(size=(400, 2))
    # clip to strictly inside 3 empirical sigmas so the filter keeps everything
    blocks = np.clip(blocks, -2.0, 2.0)
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    z_h = overload_heuristic_minus1(blocks, lat, DitherStream(60, GEN_HEXAGONAL), target=0.01)
    z_p = fit_scale(blocks, lat, DitherStream(60, GEN_HEXAGONAL), 0.01)
    assert z_h == z_p


def test_heuristic_ignores_outliers():
    rng_ = np.random.default_rng(22)
    blocks = rng_.normal(size=(1000, 2)) * 0.2
    blocks[::100] *= 40.0  # 1% huge outliers
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    z_h = overload_heuristic_minus1(blocks, lat, DitherStream(61, GEN_HEXAGONAL), target=0.003)
    z_p = fit_scale(blocks, lat, DitherStream(61, GEN_HEXAGONAL), 0.003)
    assert z_h > z_p


def test_heuristic_constant_input_fallback():
    blocks = np.ones((50, 2)) * 0.4  # zero variance: strict filter drops all
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    z = overload_heuristic_minus1(blocks, lat, DitherStream(62, GEN_HEXAGONAL), target=0.01)
    assert math.isfinite(z) and z > 0


def test_heuristic_needs_ten_subvectors():
    lat = build_lattice(GEN_HEXAGONAL, 1.0)
    with pytest.raises(ValueError):
        overload_heuristic_minus1(np.ones((5, 2)), lat, DitherStream(63, GEN_HEXAGONAL))


def test_learner_enumerates_and_validates_once_per_normalization(monkeypatch):
    # From one normalization to the next, the learner enumerates only as
    # often as kth_norm's search for the (budget+1)-th norm does, plus once
    # for the codebook with its budget shell, and it validates only the raw
    # matrix.  Emission reuses the codebook its weights were measured under.
    import collections
    import sys

    import olala.lattice as lattice
    import olala.learning as learning

    net = init_prior_net(2, seed=1)
    h = _anisotropic_blocks().ravel()
    cfg = LearnerConfig(loss_kind="mse", learning_rate=1e-4, epochs=2, batches=4, rate=3.0, seed=5)
    sink = [None]  # the Counter that calls are charged to

    def counted(fn):
        def wrapper(*args, **kwargs):
            if sink[0] is not None:
                sink[0][fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Modules that imported a function by name hold their own reference.
    for fn in (lattice._points_within, lattice.check_generator):
        wrapper = counted(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("olala"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    log = []  # per normalization: its raw matrix and the calls until the next one
    real = learning._normalize

    def normalize(raw, rate, gamma, slot=None):
        sink[0] = collections.Counter()
        log.append((raw.copy(), sink[0]))
        return real(raw, rate, gamma, slot)

    monkeypatch.setattr(learning, "_normalize", normalize)
    online_lattice_learning(net, np.zeros(1), h, cfg)

    assert len(log) == 1 + cfg.epochs * cfg.batches + 1  # start, steps, final weights
    budget = codeword_budget(2, cfg.rate)
    for raw, calls in log:
        sink[0] = search = collections.Counter()
        lattice.kth_norm(raw, budget + 1)
        assert calls["_points_within"] <= search["_points_within"] + 1
        assert calls["check_generator"] == 1


def _count_fresh_enumerations(monkeypatch, cfg, memo=True):
    """Run the counting tests' learner config; return the learned lattice,
    the number of fresh box enumerations and of _points_within calls."""
    import olala.lattice as lattice

    counts = {"fresh": 0, "calls": 0}
    real_enumerate, real_within = lattice._enumerate, lattice._points_within

    def enumerate_(*args):
        counts["fresh"] += 1
        return real_enumerate(*args)

    def within(*args, **kwargs):
        counts["calls"] += 1
        return real_within(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_enumerate", enumerate_)
        patch.setattr(lattice, "_points_within", within)
        patch.setattr(lattice, "_memo", None)
        if not memo:  # every call enumerates its own box, as without the memo
            patch.setattr(lattice, "_memo_covers", lambda *args: False)
            patch.setattr(lattice, "_MEMO_WIDEN", 1.0)
        net = init_prior_net(2, seed=1)
        out = online_lattice_learning(net, np.zeros(1), _anisotropic_blocks().ravel(), cfg)
    return out, counts["fresh"], counts["calls"]


def test_learner_steps_reuse_one_enumeration(monkeypatch):
    # A slowly moving generator is served from the enumeration memo: the
    # whole run enumerates one box, in the first normalization's search,
    # against one box per call without the memo.
    cfg = LearnerConfig(loss_kind="mse", learning_rate=1e-4, epochs=2, batches=4, rate=3.0, seed=5)
    out, fresh, calls = _count_fresh_enumerations(monkeypatch, cfg)
    assert fresh == 1 < calls
    ref, fresh_ref, calls_ref = _count_fresh_enumerations(monkeypatch, cfg, memo=False)
    assert fresh_ref == calls_ref == calls
    assert out.theta.tobytes() == ref.theta.tobytes()
    assert out.gen.tobytes() == ref.gen.tobytes() and out.zeta == ref.zeta


def test_learner_memo_fallback_matches_memo_free_run(monkeypatch):
    # Large steps move the generator past the memo's bound, so the learner
    # enumerates afresh part of the time; the outputs stay those of a run
    # without the memo, bit for bit.
    cfg = LearnerConfig(loss_kind="mse", learning_rate=1e-2, epochs=2, batches=4, rate=3.0, seed=5)
    out, fresh, calls = _count_fresh_enumerations(monkeypatch, cfg)
    assert 2 < fresh < calls
    ref, fresh_ref, _ = _count_fresh_enumerations(monkeypatch, cfg, memo=False)
    assert fresh_ref == calls
    assert out.theta.tobytes() == ref.theta.tobytes()
    assert out.gen.tobytes() == ref.gen.tobytes() and out.zeta == ref.zeta


@pytest.mark.parametrize("loss_kind", ["neg_snr", "task"])
def test_lattice_grad_steps_validate_once_per_normalization(monkeypatch, loss_kind):
    # The neg_snr and task steps fit zeta and fold dithers with the inverse
    # their codebook keeps, as the mse step does: one check_generator call
    # (the raw matrix's, in normalize_scale) per normalization.
    import collections
    import sys

    import olala.lattice as lattice
    import olala.learning as learning

    calls = collections.Counter()
    real_check = lattice.check_generator

    def check(gen):
        calls[len(log)] += 1
        return real_check(gen)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("olala"):
            for attr, value in list(vars(mod).items()):
                if value is real_check:
                    monkeypatch.setattr(mod, attr, check)
    log = []
    real = learning._normalize

    def normalize(raw, rate, gamma, slot=None):
        log.append(raw)
        return real(raw, rate, gamma, slot)

    monkeypatch.setattr(learning, "_normalize", normalize)
    h = _anisotropic_blocks().ravel()
    objective = lambda v: (float(v @ v), 2.0 * v)  # noqa: E731
    cfg = LearnerConfig(loss_kind=loss_kind, epochs=2, batches=4, rate=3.0, seed=5)
    online_lattice_learning(init_prior_net(2, seed=1), np.zeros(h.size), h, cfg, objective)
    assert len(log) == 1 + cfg.epochs * cfg.batches + 1
    assert [calls[i] for i in range(1, len(log) + 1)] == [1] * len(log)
