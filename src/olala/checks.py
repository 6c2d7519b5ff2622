"""Statistical verification of the codec's error law and the convergence
bounds, run as seeded Monte-Carlo experiments on synthetic problems.

Every check reports the inequalities it evaluated with explicit sample
counts and standard errors; pass/fail is a pure function of those recorded
numbers.  Negative controls (premise deliberately violated) are flagged and
never counted toward the suite verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from . import rng
from .config import CONVERGENCE_WINDOWS
from .lattice import (
    GEN_A2,
    GEN_D2,
    GEN_HEXAGONAL,
    _cube_search,
    _offsets,
    _Offsets,
    build_lattice,
    check_generator,
    count_codewords_at_most,
    kth_norm,
    quantize_batch,
)
from .learning import codeword_budget
from .sdq import _coords, _fold_dithers, dithers_at, second_moment

# The checks' tolerances, recorded in each report.  No caller can set them,
# so no seed is made to pass by widening one (the slope window least of all).
_MEAN_SIGMAS = 4.0
_CORR_TOL = 0.02
_DISTORTION_SE_SIGMAS = 5.0
_SCALING_SE_SIGMAS = 3.0
_SLOPE_WINDOW = (-1.3, -0.7)
# Rounds of the convergence check whose noise and dithers are drawn and
# folded at once, for memory: at 20 seeds of 8-dim problems and 4 users the
# check's tracemalloc peak was 2.1, 3.6, 6.8 and 13.2 MB in chunks of 50,
# 100, 200 and 400 rounds, with no gain in speed from the larger chunks,
# and drawing all 2,000 default rounds at once raised a suite run's peak
# RSS from 81 to 108 MB.
_ROUND_CHUNK = 100


@dataclass
class CheckReport:
    """Outcome of one check: measured values, bounds, verdict."""

    name: str
    inequalities: list[dict]  # {"name", "lhs", "op", "rhs"}
    measured: dict
    sample_counts: dict
    tolerances: dict
    negative_control: bool = False
    notes: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = report_passes(self.inequalities)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "negative_control": bool(self.negative_control),
            "inequalities": self.inequalities,
            "measured": self.measured,
            "sample_counts": self.sample_counts,
            "tolerances": self.tolerances,
            "notes": self.notes,
        }


def report_passes(inequalities: list[dict]) -> bool:
    """Pure verdict function: every recorded inequality must hold."""
    ok = True
    for ineq in inequalities:
        lhs, op, rhs = ineq["lhs"], ineq["op"], ineq["rhs"]
        if op == "<=":
            ok &= lhs <= rhs
        elif op == ">=":
            ok &= lhs >= rhs
        elif op == "in":
            ok &= rhs[0] <= lhs <= rhs[1]
        else:
            raise ValueError(f"unknown inequality op {op!r}")
    return bool(ok)


# ---------------------------------------------------------------------------
# Synthetic strongly convex problems


@dataclass
class StronglyConvexProblem:
    """Per-user quadratics F_u(w) = 0.5 (w-c_u)^T A_u (w-c_u).

    Minima, curvature extremes, and the heterogeneity gap are all closed
    form, which is what makes the convergence bounds checkable.
    """

    a_mats: np.ndarray  # (U, m, m) symmetric positive definite
    centers: np.ndarray  # (U, m)
    sigma_users: np.ndarray  # (U,) stochastic-gradient noise scales

    def __post_init__(self):
        eigs = np.linalg.eigvalsh(self.a_mats)
        self.mu = float(eigs.min())
        self.l_smooth = float(eigs.max())
        if self.mu <= 0:
            raise ValueError("quadratic matrices must be positive definite")
        a_bar = self.a_mats.mean(axis=0)
        b_bar = np.einsum("uij,uj->i", self.a_mats, self.centers) / self.n_users
        self.w_opt = np.linalg.solve(a_bar, b_bar)

    @property
    def n_users(self) -> int:
        return self.a_mats.shape[0]

    @property
    def dim(self) -> int:
        return self.a_mats.shape[1]

    def global_value(self, w: np.ndarray) -> float:
        vals = [0.5 * float(r @ a @ r) for a, r in zip(self.a_mats, w - self.centers)]
        return float(np.mean(vals))

    def global_value_batch(self, ws: np.ndarray) -> np.ndarray:
        """Objective at each row of ws, averaged over users."""
        vals = np.zeros(ws.shape[0])
        for u in range(self.n_users):
            r = ws - self.centers[u]
            vals += 0.5 * np.einsum("si,ij,sj->s", r, self.a_mats[u], r)
        return vals / self.n_users

    def user_grad(self, u: int, w: np.ndarray) -> np.ndarray:
        return self.a_mats[u] @ (w - self.centers[u])

    def heterogeneity_gap(self) -> float:
        """Global optimum value minus the mean of per-user optima (each 0)."""
        return self.global_value(self.w_opt)

    def noise_dirs(self, u: int, seed, count: int) -> np.ndarray:
        """Unit-sphere noise directions for user u: E||sigma_u * dir||^2 is
        exactly sigma_u^2 and the noise is surely bounded, so the variance
        assumption holds with equality and overload can be excluded.  A 1-D
        sequence of seeds gives one (count, m) slice per seed, each the
        directions of that seed alone."""
        m = self.dim
        z = rng.normal_block(rng.derive_seed(seed, u, 1), rng.derive_seed(seed, u, 2), count * m)
        z = z.reshape(*z.shape[:-1], count, m)
        norms = np.linalg.norm(z, axis=-1, keepdims=True)
        zero = norms[..., 0] == 0  # an all-zero draw points along the first axis
        z[zero, 0] = norms[zero] = 1.0
        return z / norms


def make_problem(
    dim: int, n_users: int, seed: int = 0, sigma_scale: float = 0.5
) -> StronglyConvexProblem:
    """Random SPD quadratics with eigenvalues in [0.5, 2.0], centers in [-1, 1]^dim."""
    a_mats = np.zeros((n_users, dim, dim))
    centers = np.zeros((n_users, dim))
    for u in range(n_users):
        u_eig = rng.stream_unit_block(rng.derive_seed(seed, 10, u), 0, dim)
        eigs = 0.5 + 1.5 * u_eig
        g = rng.stream_unit_block(rng.derive_seed(seed, 11, u), 0, dim * dim)
        gm = (2.0 * g - 1.0).reshape(dim, dim)
        q, _ = np.linalg.qr(gm + 2.0 * np.eye(dim))
        a_mats[u] = q @ np.diag(eigs) @ q.T
        cu = rng.stream_unit_block(rng.derive_seed(seed, 12, u), 0, dim)
        centers[u] = 2.0 * cu - 1.0
    us = rng.stream_unit_block(rng.derive_seed(seed, 13), 0, n_users)
    sigma_users = sigma_scale * (0.5 + us)
    return StronglyConvexProblem(a_mats, centers, sigma_users)


# ---------------------------------------------------------------------------
# Error-law check


def _ball_samples(dim: int, radius: float, seed: int, count: int) -> np.ndarray:
    """Uniform samples in the Euclidean ball of the given radius."""
    z = rng.normal_block(rng.derive_seed(seed, 1), rng.derive_seed(seed, 2), count * dim)
    z = z.reshape(count, dim)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = rng.stream_unit_block(rng.derive_seed(seed, 3), 0, count) ** (1.0 / dim)
    return z / norms * (radius * r[:, None])


def _dithered_points(gen: np.ndarray, inv: np.ndarray, xs: np.ndarray, seed: int):
    """The dithers d that dithers_at(seed, gen, 0, len(xs)) draws, and the
    coefficient vectors nearest_point_batch(gen, xs + d) returns, bit for
    bit, for a validated generator gen with inverse inv.

    Each search derives its own offset set: holding one set across both
    raised a suite run's peak RSS from 81.3 to 83.4-83.9 MB over master
    seeds 12800-12804 (heap placement: tracemalloc's peak in the
    distortion-bound check rose by 0.12 MB), for a saving of about 70 us
    per call."""
    d = _fold_dithers(_coords(seed, 0, xs.shape[0], gen.shape[0]), gen, inv)[0]
    return d, _cube_search(gen, inv, xs + d)[0]


def _sdq_errors(gen, inv, gamma, xs, seed, require_no_overload: bool):
    """Encode/decode xs under the dithers of the stream rooted at seed
    through the truncated codebook; returns errors and overload fraction.

    In the non-overloaded regime the truncated choice equals the
    infinite-lattice nearest point, which we verify explicitly.
    """
    dithers, l_inf = _dithered_points(gen, inv, xs, seed)
    pts = l_inf @ gen.T
    inside = np.linalg.norm(pts, axis=1) <= gamma + 1e-12
    if require_no_overload and not inside.all():
        raise RuntimeError(
            "overload occurred despite pre-shrunk inputs; check harness geometry"
        )
    if inside.all():
        rec = pts - dithers
    else:
        lat = build_lattice(gen, gamma)
        rec = lat.codebook[quantize_batch(lat, xs + dithers)] - dithers
    return rec - xs, float(np.mean(~inside))


def check_sdq_error_stats(
    gen: np.ndarray,
    gamma: float,
    n: int = 10**5,
    seed: int = 0,
    negative_control: bool = False,
    chi_quantile: float = 0.999,
) -> CheckReport:
    """Error law under dithering: zero mean, matched second moment,
    input independence, and uniformity over the basic cell.

    Inputs are drawn from a ball shrunk by twice the covering radius so the
    quantizer surely does not overload; the negative control instead draws
    from a ball three times the support radius and is expected to violate
    independence.
    """
    gen = check_generator(gen)
    dim = gen.shape[0]
    ref_n = max(n, 10**5)
    ref_d = dithers_at(rng.derive_seed(seed, 20), gen, 0, ref_n)
    r_cov = float(np.linalg.norm(ref_d, axis=1).max())
    if negative_control:
        radius = 3.0 * gamma
    else:
        radius = gamma - 2.0 * r_cov * 1.05
        if radius <= 0:
            raise ValueError("gamma too small for a non-overloaded input region")
    xs = _ball_samples(dim, radius, rng.derive_seed(seed, 21), n)
    errors, overload_frac = _sdq_errors(
        gen, np.linalg.inv(gen), gamma, xs, rng.derive_seed(seed, 22), not negative_control
    )

    mean_e = errors.mean(axis=0)
    se_e = errors.std(axis=0) / math.sqrt(n)
    per_dim_sq = np.einsum("ij,ij->i", errors, errors) / dim
    mom = float(per_dim_sq.mean())
    mom_se = float(per_dim_sq.std() / math.sqrt(n))
    ref_mom, ref_se = second_moment(gen, ref_n, rng.derive_seed(seed, 23))
    comb_se = math.hypot(mom_se, ref_se)

    corr = np.zeros((dim, dim))
    for j in range(dim):
        for k in range(dim):
            corr[j, k] = np.corrcoef(errors[:, j], xs[:, k])[0, 1]
    max_corr = float(np.abs(corr).max())

    # Uniformity: two-sample chi-square between the error cloud and a fresh
    # reference dither cloud over a 5-per-axis grid spanning the basic cell.
    bins = [
        np.linspace(ref_d[:, j].min(), ref_d[:, j].max() + 1e-12, 6) for j in range(dim)
    ]
    h_err, _ = np.histogramdd(np.clip(errors, [b[0] for b in bins], [b[-1] - 1e-9 for b in bins]), bins=bins)
    h_ref, _ = np.histogramdd(ref_d, bins=bins)
    e_counts = h_err.ravel()
    r_counts = h_ref.ravel()
    keep = (e_counts + r_counts) > 0
    e_counts, r_counts = e_counts[keep], r_counts[keep]
    n_e, n_r = e_counts.sum(), r_counts.sum()
    exp_e = (e_counts + r_counts) * n_e / (n_e + n_r)
    exp_r = (e_counts + r_counts) * n_r / (n_e + n_r)
    chi2 = float((((e_counts - exp_e) ** 2) / exp_e + ((r_counts - exp_r) ** 2) / exp_r).sum())
    dof = int(keep.sum()) - 1
    chi2_crit = float(2.0 * gammaincinv(dof / 2, chi_quantile))  # the chi2(dof) quantile

    inequalities = [
        {
            "name": f"zero_mean_dim{j}",
            "lhs": abs(float(mean_e[j])),
            "op": "<=",
            "rhs": _MEAN_SIGMAS * float(se_e[j]),
        }
        for j in range(dim)
    ]
    inequalities += [
        {"name": "moment_match", "lhs": abs(mom - ref_mom), "op": "<=",
         "rhs": _MEAN_SIGMAS * comb_se},
        {"name": "input_independence", "lhs": max_corr, "op": "<=", "rhs": _CORR_TOL},
        {"name": "cell_uniformity_chi2", "lhs": chi2, "op": "<=", "rhs": chi2_crit},
    ]
    return CheckReport(
        name="sdq_error_stats" + ("_overloaded_control" if negative_control else ""),
        inequalities=inequalities,
        measured={
            "mean_error": [float(v) for v in mean_e],
            "second_moment": mom,
            "reference_moment": ref_mom,
            "max_abs_corr": max_corr,
            "chi2": chi2,
            "chi2_dof": dof,
            "overload_fraction": overload_frac,
            "covering_radius_estimate": r_cov,
        },
        sample_counts={"errors": n, "reference_dithers": ref_n},
        tolerances={
            "mean_sigmas": _MEAN_SIGMAS,
            "corr_tol": _CORR_TOL,
            "chi_quantile": chi_quantile,
        },
        negative_control=negative_control,
    )


# ---------------------------------------------------------------------------
# Distortion-bound check


def sdq_vector_moment(gen: np.ndarray, vec_dim: int, n: int, seed: int) -> tuple[float, float]:
    """Second moment of the full-vector SDQ error for a vec_dim-long input
    split into lattice blocks: padded length times the per-dimension moment."""
    dim = gen.shape[0]
    padded = math.ceil(vec_dim / dim) * dim
    est, se = second_moment(gen, n, seed)
    return padded * est, padded * se


def rhs_distortion_bound(sigma_users: np.ndarray, sdq_moments: np.ndarray) -> float:
    """(1/U^2) * sum_u (sigma_u^2 + sdq_moment_u)."""
    sigma_users = np.asarray(sigma_users, dtype=np.float64)
    sdq_moments = np.asarray(sdq_moments, dtype=np.float64)
    n_users = sigma_users.shape[0]
    return float((sigma_users**2 + sdq_moments).sum() / n_users**2)


def _user_generators(problem: StronglyConvexProblem, gens: list[np.ndarray]):
    """The validated generators of problem's users, one each, their inverses
    and their one lattice dimension, which must divide problem.dim."""
    if len(gens) != problem.n_users:
        raise ValueError(f"{len(gens)} generators for {problem.n_users} users: need one per user")
    gens = [check_generator(g) for g in gens]
    dims = sorted({g.shape[0] for g in gens})
    if len(dims) > 1:
        raise ValueError(f"generators must share one lattice dimension, got {dims}")
    if problem.dim % dims[0]:
        raise ValueError(f"problem dim {problem.dim} is not a multiple of lattice dim {dims[0]}")
    return gens, [np.linalg.inv(g) for g in gens], dims[0]


def check_distortion_bound(
    problem: StronglyConvexProblem,
    gens: list[np.ndarray],
    n: int = 10**5,
    seed: int = 0,
    moment_samples: int = 2 * 10**5,
) -> CheckReport:
    """Mean squared deviation of the averaged quantized stochastic gradient
    from the full gradient, against its closed-form-plus-Monte-Carlo bound.

    Support radii are set to three times the largest realized input norm, so
    the no-overload premise holds by construction (and is asserted).
    """
    m = problem.dim
    n_users = problem.n_users
    gens, invs, dim = _user_generators(problem, gens)
    w = problem.w_opt + 1.0 / math.sqrt(m)  # fixed evaluation point off optimum
    g_full = np.stack([problem.user_grad(u, w) for u in range(n_users)])
    g_bar = g_full.mean(axis=0)
    blocks_per = m // dim

    avg_rec = np.zeros((n, m))
    moments = np.zeros(n_users)
    moment_ses = np.zeros(n_users)
    for u, (gen, inv) in enumerate(zip(gens, invs)):
        dirs = problem.noise_dirs(u, rng.derive_seed(seed, 30), n)
        ghat = g_full[u] + problem.sigma_users[u] * dirs
        blocks = ghat.reshape(n * blocks_per, dim)
        d, l_inf = _dithered_points(gen, inv, blocks, rng.derive_seed(seed, 31, u))
        pts = l_inf @ gen.T
        gamma_u = 3.0 * float(np.linalg.norm(blocks + d, axis=1).max())
        if not (np.linalg.norm(pts, axis=1) <= gamma_u).all():
            raise RuntimeError("overload in distortion-bound check harness")
        rec = (pts - d).reshape(n, m)
        avg_rec += rec
        moments[u], moment_ses[u] = sdq_vector_moment(
            gen, m, moment_samples, rng.derive_seed(seed, 32, u)
        )
    avg_rec /= n_users
    dev = avg_rec - g_bar
    sq = np.einsum("ij,ij->i", dev, dev)
    lhs = float(sq.mean())
    lhs_se = float(sq.std() / math.sqrt(n))
    rhs = rhs_distortion_bound(problem.sigma_users, moments)
    rel_se = lhs_se / lhs if lhs > 0 else 0.0

    return CheckReport(
        name=f"distortion_bound_U{n_users}",
        inequalities=[
            {"name": "lhs_below_bound", "lhs": lhs, "op": "<=",
             "rhs": rhs * (1.0 + _DISTORTION_SE_SIGMAS * rel_se)}
        ],
        measured={
            "lhs": lhs,
            "lhs_se": lhs_se,
            "rhs": rhs,
            "sdq_moments": [float(v) for v in moments],
            "sigma_users": [float(v) for v in problem.sigma_users],
        },
        sample_counts={"trials": n, "moment_samples": moment_samples},
        tolerances={"se_sigmas": _DISTORTION_SE_SIGMAS},
    )


# ---------------------------------------------------------------------------
# Convergence-rate check


def step_size_schedule(problem: StronglyConvexProblem, horizon: int):
    """kappa, nu, and the 2/(mu*(nu+t)) step sizes for t = 1..horizon."""
    kappa = problem.l_smooth / problem.mu
    nu = max(8.0 * kappa, 1.0)
    etas = 2.0 / (problem.mu * (nu + np.arange(1, horizon + 1)))
    return kappa, nu, etas


def convergence_bound_rhs(
    problem: StronglyConvexProblem, b_running_max: np.ndarray, nu: float,
    kappa: float, init_gap_sq: float, ts: np.ndarray
) -> np.ndarray:
    """Bound on the optimality gap at each round t (1-indexed)."""
    return (kappa / (nu + ts - 1.0)) * (
        (2.0 / problem.mu) * b_running_max + (problem.mu * nu / 2.0) * init_gap_sq
    )


def _round_draws(
    problem: StronglyConvexProblem, gens, invs, seed: int, ts, n_seeds: int, offsets
):
    """The noise directions (T, U, n_seeds, m) and folded dithers (T, U,
    n_seeds * m / L, L) of the rounds ts of check_convergence_rate, each
    round's and user's as noise_dirs and _dithered_points draw them alone:
    one draw and one fold per user for all of ts.  offsets are the users'
    stacked offset sets (U, ...)."""
    dim = gens[0].shape[0]
    rows = n_seeds * problem.dim // dim
    roots = [rng.derive_seed(seed, 41, t) for t in ts]
    dither_roots = [rng.derive_seed(seed, 42, t) for t in ts]
    dirs, dithers = [], []
    for u, (gen, inv) in enumerate(zip(gens, invs)):
        dirs.append(problem.noise_dirs(u, roots, n_seeds))
        coords = _coords(rng.derive_seed(dither_roots, u), 0, rows, dim)
        user = _Offsets(*(a[u] for a in offsets))
        dithers.append(_fold_dithers(coords, gen, inv, user)[0])
    return np.stack(dirs, axis=1), np.stack(dithers, axis=1)


def _descent_gaps(
    problem: StronglyConvexProblem, gens, invs, w0: np.ndarray, etas: np.ndarray,
    n_seeds: int, seed: int, gamma_u: float,
) -> np.ndarray:
    """Optimality gaps (len(etas), n_seeds) before each round of n_seeds
    runs of quantized-gradient descent from w0 with step sizes etas, every
    user's gradient quantized at support radius gamma_u.  The rounds' noise
    and dithers are drawn _ROUND_CHUNK rounds at a time, and every user of
    a round is quantized in one stacked search; each user's offset set is
    derived once, for every fold and search of the call."""
    n_users, m = problem.n_users, problem.dim
    dim = gens[0].shape[0]
    ws = np.tile(w0, (n_seeds, 1))
    gaps = np.zeros((len(etas), n_seeds))
    f_opt = problem.global_value(problem.w_opt)
    gen_all, inv_all = np.stack(gens), np.stack(invs)
    offsets = _offsets(gen_all, inv_all)
    sigmas = problem.sigma_users[:, None, None]
    for first in range(1, len(etas) + 1, _ROUND_CHUNK):
        ts = range(first, min(first + _ROUND_CHUNK, len(etas) + 1))
        dirs, dithers = _round_draws(problem, gens, invs, seed, ts, n_seeds, offsets)
        for t, noise, d in zip(ts, dirs, dithers):
            gaps[t - 1] = problem.global_value_batch(ws) - f_opt
            g = (ws - problem.centers[:, None]) @ problem.a_mats.mT
            blocks = (g + sigmas * noise).reshape(n_users, -1, dim)
            pts = _cube_search(gen_all, inv_all, blocks + d, offsets=offsets)[0] @ gen_all.mT
            if not (np.linalg.norm(pts, axis=-1) <= gamma_u).all():
                raise RuntimeError("overload in convergence check harness")
            rec = (pts - d).reshape(n_users, n_seeds, m)
            avg_q = np.zeros((n_seeds, m))
            for r in rec:  # user by user from zero: the sum's order sets its bits
                avg_q += r
            ws = ws - etas[t - 1] * (avg_q / n_users)
    return gaps


def check_convergence_rate(
    problem: StronglyConvexProblem,
    gens: list[np.ndarray],
    horizon: int = 2000,
    n_seeds: int = 20,
    seed: int = 0,
    moment_samples: int = 2 * 10**5,
) -> CheckReport:
    """Quantized-gradient descent on the quadratics under the prescribed
    diminishing step sizes: the mean optimality gap must decay like 1/t and
    stay under the explicit bound at every logged round."""
    if horizon < CONVERGENCE_WINDOWS:
        raise ValueError(
            f"horizon must be >= {CONVERGENCE_WINDOWS}, one round per divergence "
            f"window, got {horizon}"
        )
    m = problem.dim
    n_users = problem.n_users
    gens, invs, _ = _user_generators(problem, gens)
    kappa, nu, etas = step_size_schedule(problem, horizon)
    if etas[0] > 1.0 / (2.0 * problem.l_smooth) + 1e-15:
        raise ValueError("step-size precondition eta_1 <= 1/(2L) violated")

    moments = np.array([
        sdq_vector_moment(g, m, moment_samples, rng.derive_seed(seed, 40, u))[0]
        for u, g in enumerate(gens)
    ])
    gamma_gap = problem.heterogeneity_gap()
    b_const = rhs_distortion_bound(problem.sigma_users, moments) + 2.0 * problem.l_smooth * gamma_gap

    w0 = problem.w_opt + np.ones(m) / math.sqrt(m)
    init_gap_sq = float(np.sum((w0 - problem.w_opt) ** 2))
    # Support radius: generous multiple of the worst-case initial gradient.
    g_norm0 = max(
        np.linalg.norm(problem.user_grad(u, w0)) + problem.sigma_users[u]
        for u in range(n_users)
    )
    gaps = _descent_gaps(problem, gens, invs, w0, etas, n_seeds, seed, 3.0 * (g_norm0 + 1.0))

    mean_gap = gaps.mean(axis=1)
    ts = np.arange(1, horizon + 1, dtype=np.float64)
    rhs = convergence_bound_rhs(
        problem, np.full(horizon, b_const), nu, kappa, init_gap_sq, ts
    )
    # Slope of log mean-gap vs log(nu+t) over the last half, with the window
    # binned first: per-round means over finitely many seeds are noisy, and
    # averaging within log-spaced bins estimates the same regression with
    # far less variance.
    half = horizon // 2
    log_x = np.log(nu + ts[half:])
    edges = np.linspace(log_x[0], log_x[-1], 26)
    which = np.clip(np.digitize(log_x, edges) - 1, 0, 24)
    xs, ys = [], []
    for b in range(25):
        sel = which == b
        if sel.any():
            xs.append(log_x[sel].mean())
            ys.append(math.log(max(mean_gap[half:][sel].mean(), 1e-300)))
    slope = float(np.polyfit(xs, ys, 1)[0])

    # Divergence monitor: five consecutive increasing window means fail hard.
    windows = np.array_split(mean_gap, CONVERGENCE_WINDOWS)
    wmeans = np.array([w.mean() for w in windows])
    increases = np.diff(wmeans) > 0
    run = 0
    diverged = False
    for inc in increases:
        run = run + 1 if inc else 0
        if run >= 5:
            diverged = True
            break

    inequalities = [
        {"name": "slope_in_window", "lhs": slope, "op": "in", "rhs": list(_SLOPE_WINDOW)},
        {"name": "gap_below_bound_all_t", "lhs": float(np.max(mean_gap / rhs)), "op": "<=",
         "rhs": 1.0},
        {"name": "no_divergence", "lhs": float(diverged), "op": "<=", "rhs": 0.0},
    ]
    notes = "" if not diverged else f"window means: {wmeans.tolist()}"
    return CheckReport(
        name="convergence_rate",
        inequalities=inequalities,
        measured={
            "slope": slope,
            "kappa": kappa,
            "nu": nu,
            "b_const": float(b_const),
            "heterogeneity_gap": gamma_gap,
            "final_gap": float(mean_gap[-1]),
            "final_bound": float(rhs[-1]),
            "max_gap_to_bound_ratio": float(np.max(mean_gap / rhs)),
        },
        sample_counts={"rounds": horizon, "seeds": n_seeds},
        tolerances={"slope_window": list(_SLOPE_WINDOW)},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Radius-scaling check


def minimal_enclosing_radius(shape: np.ndarray, count: int) -> tuple[float, int]:
    """Smallest radius r with |{l : ||shape @ l|| <= r}| >= count.

    Returns (r, points_at_radius): ties at the threshold radius are all
    included, so points_at_radius can exceed count.
    """
    return kth_norm(shape, count)


def check_gamma_scaling(
    shape: np.ndarray,
    rate: float,
    gammas: list[float],
    n: int = 2 * 10**5,
    seed: int = 0,
) -> CheckReport:
    """Distortion of the budget-normalized lattice scales as gamma^2.

    The generator for each gamma is (gamma / r_A(R)) * A with r_A(R) the
    minimal radius enclosing 2^(L*R) integer points under the unit-
    determinant shape A; the per-dimension moment divided by gamma^2 must be
    constant, and the codeword count at radius gamma must equal the budget
    (ties at the threshold radius are flagged, not failed).
    """
    shape = check_generator(shape)
    det = float(np.linalg.det(shape))
    if abs(abs(det) - 1.0) > 1e-9:
        raise ValueError(f"shape matrix must have unit determinant, got {det}")
    dim = shape.shape[0]
    budget = codeword_budget(dim, rate)
    r_shape, tied_count = minimal_enclosing_radius(shape, budget)

    ratios = []
    ratio_ses = []
    counts = []
    for i, gamma in enumerate(gammas):
        gen = (gamma / r_shape) * shape
        est, se = second_moment(gen, n, rng.derive_seed(seed, 50, i))
        ratios.append(est / gamma**2)
        ratio_ses.append(se / gamma**2)
        counts.append(count_codewords_at_most(gen, gamma * (1.0 + 1e-9), 4 * budget))

    inequalities = []
    for i in range(1, len(gammas)):
        tol = _SCALING_SE_SIGMAS * math.hypot(ratio_ses[i], ratio_ses[0])
        inequalities.append(
            {"name": f"ratio_match_g{gammas[i]}_vs_g{gammas[0]}",
             "lhs": abs(ratios[i] - ratios[0]), "op": "<=", "rhs": tol}
        )
    for i, gamma in enumerate(gammas):
        inequalities.append(
            {"name": f"count_at_g{gamma}", "lhs": float(counts[i]), "op": "in",
             "rhs": [float(budget), float(tied_count)]}
        )
    return CheckReport(
        name="gamma_scaling",
        inequalities=inequalities,
        measured={
            "normalized_ratios": [float(v) for v in ratios],
            "ratio_ses": [float(v) for v in ratio_ses],
            "counts": [int(c) for c in counts],
            "minimal_radius": r_shape,
            "budget": budget,
            "tied_count": tied_count,
        },
        sample_counts={"moment_samples": n},
        tolerances={"se_sigmas": _SCALING_SE_SIGMAS},
        notes="" if tied_count == budget else "radius ties include extra codewords",
    )


def check_shape_comparison(
    shape_a: np.ndarray,
    shape_b: np.ndarray,
    rate: float,
    gamma: float,
    n: int = 2 * 10**5,
    seed: int = 0,
    label: str = "shape_comparison",
) -> CheckReport:
    """At equal (gamma, R), shape_a's distortion must not exceed shape_b's."""
    moments = []
    ses = []
    for i, shape in enumerate((shape_a, shape_b)):
        shape = check_generator(shape)
        dim = shape.shape[0]
        budget = codeword_budget(dim, rate)
        r_shape, _ = minimal_enclosing_radius(shape, budget)
        est, se = second_moment((gamma / r_shape) * shape, n, rng.derive_seed(seed, 60, i))
        moments.append(est)
        ses.append(se)
    tol = _SCALING_SE_SIGMAS * math.hypot(*ses)
    return CheckReport(
        name=label,
        inequalities=[
            {"name": "a_no_worse_than_b", "lhs": moments[0], "op": "<=",
             "rhs": moments[1] + tol}
        ],
        measured={"moment_a": moments[0], "moment_b": moments[1],
                  "se_a": ses[0], "se_b": ses[1]},
        sample_counts={"moment_samples": n},
        tolerances={"se_sigmas": _SCALING_SE_SIGMAS},
    )


# ---------------------------------------------------------------------------
# Suite driver


def run_all_checks(cfg) -> list[CheckReport]:
    """Every check at the configured sample sizes, deterministically seeded."""
    seed = cfg.master_seed
    n_sdq = cfg.check_sdq_samples
    unit_hex = GEN_HEXAGONAL / math.sqrt(np.linalg.det(GEN_HEXAGONAL))
    reports = []
    for i, (name, gen, gamma) in enumerate(
        (
            ("identity", np.eye(2), 4.0),
            ("hexagonal", GEN_HEXAGONAL, 4.0),
            ("d2", GEN_D2, 8.0),
            ("a2", GEN_A2, 6.0),
        )
    ):
        rep = check_sdq_error_stats(gen, gamma, n_sdq, rng.derive_seed(seed, 70, i))
        rep.name = f"sdq_error_stats_{name}"
        reports.append(rep)
    reports.append(
        check_sdq_error_stats(
            np.eye(2), 2.0, n_sdq, rng.derive_seed(seed, 71), negative_control=True
        )
    )

    for n_users in (1, 2, 4):
        problem = make_problem(2, n_users, seed=rng.derive_seed(seed, 72, n_users))
        gens = [0.25 * GEN_HEXAGONAL for _ in range(n_users)]
        reports.append(
            check_distortion_bound(
                problem, gens, cfg.check_distortion_trials, rng.derive_seed(seed, 73, n_users)
            )
        )

    problem = make_problem(8, 4, seed=rng.derive_seed(seed, 74), sigma_scale=0.8)
    gens = [0.25 * GEN_HEXAGONAL, 0.25 * np.eye(2), 0.325 * GEN_HEXAGONAL, 0.2875 * np.eye(2)]
    reports.append(
        check_convergence_rate(
            problem, gens, cfg.check_convergence_rounds, cfg.check_convergence_seeds,
            rng.derive_seed(seed, 75),
        )
    )

    for i, (label, shape) in enumerate((("square", np.eye(2)), ("hexagonal", unit_hex))):
        rep = check_gamma_scaling(
            shape, 2.0, [1.0, 2.0, 4.0], cfg.check_gamma_samples, rng.derive_seed(seed, 76, i)
        )
        rep.name = f"gamma_scaling_{label}"
        reports.append(rep)
    reports.append(
        check_shape_comparison(
            unit_hex, np.eye(2), 3.0, 1.0, cfg.check_gamma_samples,
            rng.derive_seed(seed, 77), label="hexagonal_vs_square_distortion",
        )
    )
    # At a 16-codeword budget the square lattice's 8-point tie shell at
    # radius sqrt(5) hands it 21 codewords, inverting the usual hexagonal
    # advantage; recorded as a flagged exhibit, not a suite verdict.
    exhibit = check_shape_comparison(
        unit_hex, np.eye(2), 2.0, 1.0, cfg.check_gamma_samples,
        rng.derive_seed(seed, 78), label="hexagonal_vs_square_rate2_tie_shell",
    )
    exhibit.negative_control = True
    exhibit.notes = (
        "tie shells at the 2^(L*R)=16 budget favor the square lattice; "
        "the hexagonal advantage re-emerges at larger budgets"
    )
    reports.append(exhibit)
    return reports


def all_non_control_passed(reports: list[CheckReport]) -> bool:
    return all(r.passed for r in reports if not r.negative_control)
