"""Lattice geometry: truncated codebooks, nearest-point search, rates.

A lattice is the set {G @ l : l integer} for a nonsingular generator matrix
G: the columns of G are the basis vectors, in every stock GEN_* constant
too.  Truncating to points with Euclidean norm at most gamma yields the
finite codebook used by the codec.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, ResourceLimitError

# Stock 2-D generator matrices used as fixed-quantizer baselines.  Their
# columns are the basis vectors: GEN_D2's are (2, 0) and (1, -1), spanning
# {x : x1 + x2 even}, and GEN_A2's have the Gram matrix [[2, -1], [-1, 2]]
# to four digits.
GEN_IDENTITY_2D = np.eye(2)
GEN_HEXAGONAL = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
GEN_D2 = np.array([[2.0, 1.0], [0.0, -1.0]])
GEN_A2 = np.array([[math.sqrt(2.0), -0.7071], [0.0, 1.2247]])

_ENUM_CAP_DEFAULT = 10**7
_ENUM_CHUNK = 1 << 18
# Scores (rows x candidates) per chunk of the offset-cube search and the
# codebook scan: 2^14 to 2^18 time alike, while chunks of 2^18 rows took 2.3
# times as long and 90 times the memory on 100k rows at L=4.
_SCORE_CHUNK = 1 << 16
_CUBE_CACHE_MAX = 1 << 14
# Scores per chunk of a stacked search over lockstep slots: on a 2-core VM,
# 5 slots of 340 rows scanned against 64 codewords took 0.69 ms in stacked
# chunks of 2^16 scores and 0.28 ms slot by slot (2^14 scores each).
_SLOT_CHUNK = 1 << 14

# quantize_batch looks indices up once the codebook holds more than this many
# offset cubes (5^L candidates each).  Median time per call, lookup vs scan,
# 965 rows inside the ball, one BLAS thread on a 2-core VM: L=2 |C|=61
# 420 vs 151 us, 253 553 vs 2235 us; L=3 |C|=179 1146 vs 576 us, 491 1274 vs
# 4430 us; L=4 |C|=873 7121 vs 2521 us, 2297 7954 vs 7055 us, 3969 8375 vs
# 11344 us.  The rule errs toward the lookup at L=1 (|C|=31 and 63: 440 vs
# 216 and 448 vs 400 us), at L=2 |C|=127 (494 vs 324 us), and at 300 rows or
# fewer for L=2 |C|=253 (257 vs 164 us), where the lookup's fixed cost of
# about 0.1 ms per call dominates.
_LOOKUP_CUBES = 4
# Squared-distance margin, relative to (||x|| + distance)^2, by which a
# certified nearest point must beat every other lattice point: far above the
# rounding of either search, so the scan's floating-point argmin agrees.
_TIE_REL = 1e-9
# Relative slack on the certificates' bounds for the rounding of G^-1.
_CERT_SLACK = 1e-9
# The Babai slack a pruned offset set is derived for: it serves a batch
# whose proven bound on ||G^-1 r||_inf - 1/2 is at most half of it (see
# _cube_search).
_BABAI_SLACK = 1e-6
# A search on a generator no caller derived offsets for derives them when a
# slot scores at least this many rows x 5^L offsets, else it scores the
# whole cube.  Best of 5 x 200 calls, deriving vs the whole cube, at 2^15
# and 2^16 scores per slot, one BLAS thread on a 2-core VM: one slot, L=2
# 360 vs 315 and 558 vs 1178 us, L=4 238 vs 120 and 240 vs 612 us; five
# slots, L=2 808 vs 1062 and 1466 vs 2664 us, L=4 402 vs 418 and 522 vs
# 1479 us.
_PRUNE_SCORES = 1 << 16
# kth_norm's search radius grows by this factor per request.
_KTH_GROW = 1.25
# A fresh enumeration covers this multiple of the radius asked for, so the
# memo answers the next queries of a slowly moving generator.
_MEMO_WIDEN = 1.1

_cube_cache: dict[int, np.ndarray] = {}
# The last fresh enumeration (B, R, ls, sq) of calls without a slot; see
# _points_within.
_memo: tuple[np.ndarray, float, np.ndarray, np.ndarray] | None = None


def check_generator(gen: np.ndarray) -> np.ndarray:
    """Validate a generator matrix: square, finite, nonsingular."""
    gen = np.asarray(gen, dtype=np.float64)
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1] or gen.shape[0] < 1:
        raise GeometryError(f"generator must be a square matrix, got shape {gen.shape}")
    if not np.all(np.isfinite(gen)):
        raise GeometryError("generator has non-finite entries")
    # Guard against exact and near singularity before taking the inverse.
    sign, logdet = np.linalg.slogdet(gen)
    if sign == 0 or not np.isfinite(logdet):
        raise GeometryError("generator matrix is singular")
    return gen


def _lex_block(block_ids: np.ndarray, side: int, dim: int, bound: int) -> np.ndarray:
    """Decode flat candidate ids into integer vectors in [-bound, bound]^dim.

    Candidate id ordering is lexicographic in the decoded vector, which fixes
    codebook order (and hence wire indices) deterministically.
    """
    out = np.empty((block_ids.size, dim), dtype=np.int64)
    rem = block_ids.astype(np.int64)
    for j in range(dim - 1, -1, -1):
        out[:, j] = rem % side - bound
        rem //= side
    return out


def _offset_cube(dim: int) -> np.ndarray:
    """The offsets {-2..2}^L of every nearest-point search, in lexicographic
    order, cached up to _CUBE_CACHE_MAX of them."""
    cube = _cube_cache.get(dim)
    if cube is None:
        cube = _lex_block(np.arange(5**dim), 5, dim, 2)
        if cube.shape[0] <= _CUBE_CACHE_MAX:
            _cube_cache[dim] = cube
    return cube


@dataclass(frozen=True)
class TruncatedLattice:
    """Finite codebook: all lattice points with norm <= gamma.

    index_set holds the integer coefficient vectors in lexicographic order;
    codebook[i] == gen @ index_set[i].  inv, offsets and lookup are derived
    once, on first use.
    """

    gen: np.ndarray
    gamma: float
    index_set: np.ndarray = field(repr=False)
    codebook: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.gen.shape[0]

    @property
    def size(self) -> int:
        return self.codebook.shape[0]

    @functools.cached_property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.gen)

    @functools.cached_property
    def offsets(self) -> _Offsets:
        """The offsets that searches under this codebook's generator of at
        least _PRUNE_SCORES scores in all score (see _search_offsets)."""
        return _offsets(self.gen, self.inv)

    @functools.cached_property
    def lookup(self) -> tuple[int, np.ndarray]:
        """(bound, table), which maps lattice points to codebook indices:
        table holds, at the flat mixed-radix id (_box_ids) of each vector in
        the box [-bound, bound]^L that holds the codewords' coefficient
        vectors, the lowest codebook index of that vector, or -1 where no
        codeword has it."""
        bound = int(np.abs(self.index_set).max())
        table = np.full((2 * bound + 1) ** self.dim, self.size, dtype=np.int64)
        np.minimum.at(table, _box_ids(self.index_set, bound), np.arange(self.size))
        table[table == self.size] = -1
        return bound, table


def _points_within(
    gen: np.ndarray, inv: np.ndarray, radius: float, enum_cap: int = _ENUM_CAP_DEFAULT,
    slot: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors l with ||gen @ l|| <= radius, in lexicographic
    order, and their squared norms.  inv is gen^-1.

    The integer search box comes from the inverse matrix's row norms: any
    point gen@l with ||gen@l|| <= radius has ||l||_inf bounded by
    ceil(radius * max_i ||row_i(gen^-1)||).  A box of more than enum_cap
    candidates raises ResourceLimitError; that check comes first, so a call
    raises exactly when the box it would enumerate is too large.

    The process keeps its last fresh enumeration as a one-entry memo
    (B, R, ls, sq): every l with ||B l|| <= R, in lexicographic order.  A
    call is answered from it when a bound proves it complete.  With
    alpha = <gen, B> / <gen, gen>, every l with ||gen @ l|| <= radius has
    ||B l|| <= radius (|alpha| + ||alpha gen - B|| ||gen^-1||), Frobenius
    norms bounding the spectral ones.  When that bound, times 1 +
    _CERT_SLACK for rounding, is at most R, the answer is the memo rows
    whose squared norm under gen, computed row by row as the box computes
    it, is at most radius^2: the same vectors in the same order, with the
    same bits.  One entry serves a generator and its rescaled copies, so a
    learner step's normalization search and codebook come from it while
    the generator moves little.  Otherwise the box is enumerated at
    _MEMO_WIDEN times the radius, or at the widest radius whose box fits
    enum_cap when that box would not (see _widest_radius), stored, and
    filtered back to the radius.  Results never depend on the memo's
    state.  The entry read and written is slot[0] when a slot (a one-item
    list: a lockstep learner slot's memo holder) is given, so slots
    interleaved in one process keep their own entries, else the process's
    _memo.  Rows are kept by index gathers, which copy the same rows in
    the same order several times faster than a boolean mask does on 2-D
    rows.
    """
    global _memo
    dim = gen.shape[0]
    reach = float(np.linalg.norm(inv, axis=1).max())
    total = _box_size(reach, radius, dim)
    if total > enum_cap:
        raise ResourceLimitError(
            f"lattice enumeration box has {total} candidates (cap {enum_cap})"
        )
    # read once: the answer and its certificate use one entry
    memo = _memo if slot is None else slot[0]
    if memo is not None and _memo_covers(memo, gen, inv, radius):
        ls = memo[2]
        pts = ls @ gen.T
        sq = np.einsum("ij,ij->i", pts, pts)
    else:
        wide = radius * _MEMO_WIDEN
        if _box_size(reach, wide, dim) > enum_cap:
            wide = _widest_radius(reach, dim, enum_cap, radius)
        ls, sq = _enumerate(gen, int(math.ceil(wide * reach)), wide)
        entry = (gen.copy(), wide, ls, sq)
        if slot is None:
            _memo = entry
        else:
            slot[0] = entry
    at = np.flatnonzero(sq <= radius * radius)
    return ls.take(at, axis=0), sq.take(at)


def _widest_radius(reach: float, dim: int, enum_cap: int, radius: float) -> float:
    """The widest radius, at least radius, whose _points_within box fits
    enum_cap: b / reach for the largest b with (2b + 1)^L <= enum_cap,
    stepped down until the box it rounds to is [-b, b]^L.  The caller has
    checked that radius's box fits."""
    bound = (int(round(enum_cap ** (1.0 / dim))) - 1) // 2
    while (2 * bound + 3) ** dim <= enum_cap:
        bound += 1
    while (2 * bound + 1) ** dim > enum_cap:
        bound -= 1
    wide = bound / reach
    while math.ceil(wide * reach) > bound:
        wide = math.nextafter(wide, 0.0)
    return max(wide, radius)


def _box_size(reach: float, radius: float, dim: int) -> int:
    """Candidates in _points_within's box for radius, reach being the
    largest row norm of gen^-1."""
    return (2 * int(math.ceil(radius * reach)) + 1) ** dim


def _memo_covers(memo, gen: np.ndarray, inv: np.ndarray, radius: float) -> bool:
    """Whether the memo holds every l with ||gen @ l|| <= radius (see
    _points_within)."""
    base, memo_radius = memo[0], memo[1]
    if base.shape != gen.shape:
        return False
    base, g, w = base.ravel(), gen.ravel(), inv.ravel()
    alpha = float(g @ base) / float(g @ g)
    diff = alpha * g - base
    drift = math.sqrt(float(diff @ diff) * float(w @ w))
    return radius * (abs(alpha) + drift) * (1.0 + _CERT_SLACK) <= memo_radius


def _enumerate(gen: np.ndarray, bound: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The l in the box [-bound, bound]^L with ||gen @ l|| <= radius, in
    lexicographic order, and their squared norms, in chunks of
    _ENUM_CHUNK candidates."""
    dim = gen.shape[0]
    side = 2 * bound + 1
    total = side**dim
    gen_t = gen.T
    kept_ls: list[np.ndarray] = []
    kept_sq: list[np.ndarray] = []
    for start in range(0, total, _ENUM_CHUNK):
        ls = _lex_block(np.arange(start, min(start + _ENUM_CHUNK, total)), side, dim, bound)
        pts = ls @ gen_t
        sq = np.einsum("ij,ij->i", pts, pts)
        at = np.flatnonzero(sq <= radius * radius)
        kept_ls.append(ls.take(at, axis=0))
        kept_sq.append(sq.take(at))
    return np.concatenate(kept_ls), np.concatenate(kept_sq)


def build_lattice(gen: np.ndarray, gamma: float) -> TruncatedLattice:
    """Enumerate the codebook of lattice points within radius gamma."""
    gen = check_generator(gen)
    if not (gamma > 0):
        raise GeometryError(f"support radius must be positive, got {gamma}")
    return _build(gen, gamma, gamma)[0]


def _build(gen: np.ndarray, gamma: float, outer: float, rows=None, slot=None):
    """The codebook of a validated generator within gamma and, from the same
    enumeration at radius outer >= gamma, the lexicographic coefficient
    vectors of the points with gamma < norm <= outer.

    rows, when the caller already holds them, stand in for the enumeration:
    lexicographic coefficient vectors that include every l with
    ||gen @ l|| <= outer, and their squared norms computed row by row as
    _points_within computes them (ls @ gen.T).  Filtered to outer, they are
    _points_within's answer, bit for bit.  Otherwise _points_within
    enumerates them under the memo holder slot (None: the process's).

    The codebook's index_set, codebook and inv are read-only: one codebook
    serves the learner that measured it, the encoder and the decoder.
    """
    inv = np.linalg.inv(gen)
    ls, sq = _points_within(gen, inv, outer, slot=slot) if rows is None else rows
    inside = sq <= gamma * gamma
    index_set = np.compress(inside, ls, axis=0)
    codebook = index_set @ gen.T
    for a in (index_set, codebook, inv):
        a.flags.writeable = False
    lat = TruncatedLattice(gen=gen, gamma=float(gamma), index_set=index_set, codebook=codebook)
    object.__setattr__(lat, "inv", inv)  # derived once, as lat.inv would be
    return lat, np.compress(~inside & (sq <= outer * outer), ls, axis=0)


def _box_ids(ls: np.ndarray, bound: int) -> np.ndarray:
    """Flat mixed-radix ids of coefficient vectors inside [-bound, bound]^L."""
    radix = (2 * bound + 1) ** np.arange(ls.shape[-1] - 1, -1, -1, dtype=np.int64)
    return (ls + bound) @ radix


def count_codewords_at_most(gen: np.ndarray, gamma: float, limit: int) -> int:
    """Count codewords within gamma, capped at limit+1.

    Returns min(true count, limit+1).  A search box beyond the enumeration
    cap is reported as limit+1: boxes that size only arise from lattices far
    too fine to satisfy any small codebook budget.
    """
    gen = check_generator(gen)
    try:
        _, sq = _points_within(gen, np.linalg.inv(gen), gamma)
    except ResourceLimitError:
        return limit + 1
    return min(sq.size, limit + 1)


def kth_norm(gen: np.ndarray, k: int) -> tuple[float, int]:
    """The k-th smallest norm r over the lattice points, and the number of
    points with norm at most r.

    Points are counted with multiplicity, the origin first, so the count can
    exceed k when norms tie at r; a norm within a relative 1e-12 of r counts
    as tied.  The search asks first for _KTH_GROW times the radius whose
    ball holds k fundamental cells by volume (that radius itself when the
    wider box would pass the enumeration cap), and grows by _KTH_GROW until
    k points, and every point tied with the k-th, lie inside;
    ResourceLimitError if the box outgrows the enumeration cap first.
    """
    gen = check_generator(gen)
    return _kth_norm_points(gen, np.linalg.inv(gen), k)[:2]


def _kth_norm_points(gen: np.ndarray, inv: np.ndarray, k: int, slot: list | None = None):
    """kth_norm of a validated generator, then its last enumeration: the
    radius it asked for, at least r (1 + 1e-12), and the coefficient
    vectors of every point within it, in lexicographic order, each search
    under the memo holder slot (see _points_within).

    The volume radius fell short of the k-th norm in every learner
    normalization counted near the hexagonal start, so the first request
    is one growth step beyond it; in the learner's runs that step also
    reaches past the band above r whose rows learning._normalize hands on.  It
    falls back to the volume radius when that step's box is over the cap,
    so the search raises ResourceLimitError on no input it returned on when
    it started there: where it returns, so does every wider request, with
    the same r and count."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    dim = gen.shape[0]
    ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    volume = (k * abs(float(np.linalg.det(gen))) / ball) ** (1.0 / dim)
    radius = volume * _KTH_GROW
    if _box_size(float(np.linalg.norm(inv, axis=1).max()), radius, dim) > _ENUM_CAP_DEFAULT:
        radius = volume
    while True:
        ls, sq = _points_within(gen, inv, radius, slot=slot)
        if sq.size >= k:
            norms = np.sqrt(sq)
            r = float(np.partition(norms, k - 1)[k - 1])
            tied = r * (1.0 + 1e-12)
            if tied <= radius:
                return r, int(np.count_nonzero(norms <= tied)), ls, radius
        radius *= _KTH_GROW


def nearest_point(gen: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Closest infinite-lattice coefficient vector to x, as far as the
    offset cube reaches.

    Babai rounding l0 = round(G^-1 x) refined by exhaustive search over the
    offset cube {-2..2}^L around l0.  Ties resolve to the lexicographically
    smallest l.  The answer is exact when the nearest point lies in the
    cube, which holds on the stock 2-D generators and Z^L, but not always
    on skewed ones: over 33 generators eye(3) + 0.4 N(0, 1) with 2000
    inputs uniform in [-2, 2]^3 each, it missed the nearest point on 744
    rows of 5 generators (checked by brute force over {-6..6}^3).
    quantize_batch certifies each row before relying on it.

    Only the cube offsets that can win are scored (see _cube_search): an
    offset k, c = G k, is dropped when Delta_k(rho) = ||c||^2 - 2 rho
    ||G^T c||_1, less a rounding margin of _CERT_SLACK (||c||^2 + 2 rho
    sum_i ||row_i(G)||_1 |c_i|), is positive, which proves its score above
    the zero offset's 0.0 for every residual with ||G^-1 r||_inf <= rho.
    rho is 1/2 + _BABAI_SLACK, where the slack is proven to cover the
    rounding of G^-1, of the Babai coordinates and of the residual for
    inputs up to a max |x| derived from G; larger or non-finite inputs
    score the whole cube.  The identity, hexagonal and A2 generators keep
    9 of the 25 offsets, D2 keeps 11.  Certified runs take the runner-up
    as the smaller of the kept offsets' and the least bound over the
    dropped ones, so they certify no row the whole cube would not.
    """
    x = np.asarray(x, dtype=np.float64)
    return nearest_point_batch(gen, x[None, :])[0]


def nearest_point_batch(gen: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Vectorized nearest_point over rows of xs; returns (n, L) int array."""
    gen = check_generator(gen)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != gen.shape[0]:
        raise ValueError(f"expected points of dimension {gen.shape[0]}, got {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise ValueError("nearest_point requires finite inputs")
    return _cube_search(gen, np.linalg.inv(gen), xs)[0]


class _Offsets(NamedTuple):
    """The offsets a nearest-point search scores (see _offsets): with an
    optional leading slot axis, each slot's offsets k (K, L) in cube order,
    padded to the longest slot; their displacements G k (K, L) and squared
    norms (K,), +inf on the padding; the lowest bound on the score of an
    offset the set dropped (+inf when none); and the largest max |x| of a
    batch the set serves."""

    cube: np.ndarray
    cand: np.ndarray
    sq: np.ndarray
    floor: np.ndarray
    x_max: np.ndarray


def _whole_cube(gen: np.ndarray) -> _Offsets:
    """Every offset of the cube, for any batch."""
    cube = _offset_cube(gen.shape[-1])
    cand = cube @ gen.mT
    inf = np.full(gen.shape[:-2], np.inf)
    return _Offsets(cube, cand, np.einsum("...ij,...ij->...i", cand, cand), inf, inf)


def _offsets(gen: np.ndarray, inv: np.ndarray, whole=False) -> _Offsets:
    """The cube offsets that can be a search's first minimum for a batch
    with max |x| <= x_max, each slot of gen (L, L) or (U, L, L) with its
    own set, and the slots marked in whole with the whole cube.

    An offset is dropped when the proven lower bound on its computed score
    (see _cube_search), at rho = 1/2 + _BABAI_SLACK, is positive.  The rows
    and squared norms of the kept offsets are those of the whole cube's
    computation, so each score keeps its bits.  x_max is the largest X
    with 2 (N X + 1) (eta + 3 g (1 + N M)) <= _BABAI_SLACK / 2, -inf when
    eta > 1/4."""
    lone = gen.ndim == 2
    if lone:
        gen, inv = gen[None], inv[None]
    full = _whole_cube(gen)
    dim = gen.shape[-1]
    rho = 0.5 + _BABAI_SLACK
    g = (dim + 2) * 2.0**-53
    rows = np.abs(gen).sum(axis=-1)  # ||row_i(G)||_1
    n_inv = np.abs(inv).sum(axis=-1).max(axis=-1)
    cond = n_inv * rows.max(axis=-1)
    eta = 2.0 * (np.abs(np.eye(dim) - inv @ gen).sum(axis=-1).max(axis=-1) + g * cond)
    beta = 2.0 * (eta + 3.0 * g * (1.0 + cond))
    x_max = np.where(eta <= 0.25, (_BABAI_SLACK / (2.0 * beta) - 1.0) / n_inv, -np.inf)
    # ||G^T c||_1, and the bound sum_i ||row_i(G)||_1 |c_i| on the rounding of r.c
    w = np.abs(full.cand @ gen).sum(axis=-1)
    v = (np.abs(full.cand) @ rows[..., None])[..., 0]
    low = full.sq - 2.0 * rho * w - _CERT_SLACK * (full.sq + 2.0 * rho * v)
    whole = np.broadcast_to(whole, x_max.shape)
    keep = ~(low > 0.0) | whole[:, None]
    order = np.argsort(~keep, axis=-1, kind="stable")[:, : int(keep.sum(axis=-1).max())]
    slot = np.arange(gen.shape[0])[:, None]
    sq = full.sq[slot, order]
    sq[~keep[slot, order]] = np.inf
    out = _Offsets(
        full.cube[order], full.cand[slot, order], sq,
        np.where(keep, np.inf, low).min(axis=-1), np.where(whole, np.inf, x_max),
    )
    return _Offsets(*(a[0] for a in out)) if lone else out


def _cube_search(
    gen: np.ndarray, inv: np.ndarray, xs: np.ndarray, certify: bool = False,
    offsets: _Offsets | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Babai point refined over the offset cube; returns the coefficient
    vectors and, with certify, a per-row certificate (else all False).

    gen, inv (U, L, L) and xs (U, n, L) may carry a leading slot axis, or
    one gen, inv serve every slot of xs; every op acts on each slot's slice
    as it would on that slot alone.  offsets are _offsets(gen, inv), which
    a caller whose generator is fixed derives once; without them a search
    of at least _PRUNE_SCORES scores per slot derives its own and a smaller
    one scores the whole cube.  A slot whose max |x| passes its set's
    x_max, or is not finite, scores the whole cube.  The offsets are
    scored by _first_min.

    Pruning.  Let l0 = rint(G^-1 x) be the Babai point, r the computed
    residual x - G l0 and t = G^-1 r, exactly.  The score of an offset k
    with displacement c = G k is ||c||^2 - 2 r.c, and r.c = t.(G^T c), so
    when ||t||_inf <= rho it is at least
        Delta_k(rho) = ||c||^2 - 2 rho ||G^T c||_1,
    while the zero offset scores exactly 0.0.  The computed score is within
    2 g (||c||^2 + 2 rho sum_i ||row_i(G)||_1 |c_i|) of the exact one, g =
    (L + 2) 2^-53 (a dot of length L, then one subtraction, whose result
    has the sign of the exact difference of its operands), and computing
    Delta and that margin rounds by less again; _CERT_SLACK times the
    margin covers all of it with a factor above 10^4 for any L whose cube
    fits in memory.  So an offset whose Delta less that slack is positive
    scores above 0.0 and never wins, nor ties the winner: _offsets drops
    exactly those, keeps the rest in cube order, and the first minimum
    over them is the whole cube's.

    Slack of rho.  t would be within 1/2 of the Babai coordinates if G^-1,
    x @ inv.T and the residual were exact.  With u = 2^-53, X = max |x|,
    N = ||inv||_inf and M = ||G||_inf (largest row sums of |.|), and eta
    at least ||I - inv G||_inf (the computed product's, plus g N M, doubled
    for its own rounding): G^-1 - inv = (I - inv G) G^-1 gives ||G^-1 -
    inv||_inf <= eta N / (1 - eta) and ||G^-1||_inf <= N / (1 - eta); the
    computed coordinates y are within g N X of inv x and l0 within 1/2 of
    y; G l0 is computed within g M (N X (1 + g) + 1/2) and the
    subtraction from x within u of its result.  For eta <= 1/4 these sum
    to ||t||_inf <= 1/2 + sigma, sigma <= 2 (N X + 1)(eta + 3 g (1 + N M)).
    A set derived at rho = 1/2 + _BABAI_SLACK serves a batch with sigma <=
    _BABAI_SLACK / 2, the factor 2 covering the rounding of sigma itself:
    that is x_max.  There N X stays far below 2^53, so l0 is exact.

    Certificate.  Let r be the Babai residual x - G l0 and d the distance
    to the answer.  Any lattice point l within distance e of x has
    ||l - l0||_inf <= mu (e + ||r||), mu = max_i ||row_i(G^-1)||
    (Agrell, Eriksson, Vardy and Zeger, "Closest point search in lattices",
    IEEE T-IT 2002).  A row is certified when mu (e + ||r||) < 3 for
    e^2 = d^2 + tau and the cube's runner-up is farther than e: then every
    lattice point within e lies in the cube, and the answer is the unique
    nearest point with a squared-distance margin tau = _TIE_REL
    (||x|| + d)^2.  The runner-up taken is the smaller of the kept
    offsets' and the set's floor, the least bound on a dropped offset's
    score, so it never exceeds the whole cube's: a pruned search certifies
    only rows the whole cube certifies.
    """
    if offsets is None and xs.shape[-2] * 5 ** gen.shape[-1] < _PRUNE_SCORES:
        offsets = _whole_cube(gen)
    else:
        if offsets is None:
            offsets = _offsets(gen, inv)
        axes = tuple(range(xs.ndim - 2 if gen.ndim == 3 else 0, xs.ndim))
        x_abs = np.maximum(xs.max(axis=axes, initial=0.0), -xs.min(axis=axes, initial=0.0))
        past = ~(x_abs <= offsets.x_max)
        if past.any():
            offsets = _whole_cube(gen) if past.all() else _offsets(gen, inv, past)
    cube = offsets.cube
    l0 = np.rint(xs @ inv.mT).astype(np.int64)
    resid = xs - l0 @ gen.mT
    if not certify:
        best = _first_min(offsets.cand, offsets.sq, resid)
        return l0 + _at(cube, best), np.zeros(xs.shape[:-1], dtype=bool)
    best, low, second = _first_min(offsets.cand, offsets.sq, resid, runner_up=True)
    second = np.minimum(second, offsets.floor[..., None])
    # ||r - c||^2 = ||r||^2 + the score ||c||^2 - 2 r.c
    r_sq = np.einsum("...ij,...ij->...i", resid, resid)
    d_sq = np.maximum(low + r_sq, 0.0)
    x_norm = np.sqrt(np.einsum("...ij,...ij->...i", xs, xs))
    tau = _TIE_REL * (x_norm + np.sqrt(d_sq)) ** 2
    mu = np.linalg.norm(inv, axis=-1).max(axis=-1)[..., None]
    reach = mu * (np.sqrt(d_sq + tau) + np.sqrt(r_sq))
    cert = (second - low > tau) & (reach < 3.0 * (1.0 - _CERT_SLACK))
    return l0 + _at(cube, best), cert


def _at(cube: np.ndarray, best: np.ndarray) -> np.ndarray:
    """The offsets best indexes, in one shared (K, L) list or per slot."""
    return cube[best] if cube.ndim == 2 else np.take_along_axis(cube, best[..., None], axis=-2)


def _first_min(cands: np.ndarray, sq: np.ndarray, xs: np.ndarray, runner_up: bool = False):
    """Per row x of xs, the index of the first minimum of ||c||^2 - 2 x.c
    over the candidates c, the rows of cands with squared norms sq (ties go
    to the lowest index; a candidate whose sq is +inf never wins), and with
    runner_up also that minimum score and the least score of the others.

    cands (U, K, L), sq (U, K) and xs (U, n, L) may carry a leading slot
    axis, or one cands, sq serve every slot of xs, each slot scored as it is
    alone.  Rows run in chunks of at most
    _SCORE_CHUNK scores per slot, and slots in chunks that keep a chunk of
    scores within _SLOT_CHUNK.
    """
    if xs.ndim == 2:
        out = _first_min(cands[None], sq[None], xs[None], runner_up)
        return tuple(a[0] for a in out) if runner_up else out[0]
    slots, n = xs.shape[:2]
    if cands.ndim == 2:
        cands = np.broadcast_to(cands, (slots, *cands.shape))
        sq = np.broadcast_to(sq, (slots, *sq.shape))
    step = max(1, _SCORE_CHUNK // cands.shape[1])
    per = max(1, _SLOT_CHUNK // (cands.shape[1] * max(1, min(n, step))))
    best = np.empty((slots, n), dtype=np.int64)
    low, second = (np.empty((slots, n)), np.empty((slots, n))) if runner_up else (None, None)
    for s in range(0, slots, per):
        u = slice(s, s + per)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            scores = sq[u, None, :] - 2.0 * (xs[u, rows] @ cands[u].mT)
            top = best[u, rows]
            np.argmin(scores, axis=-1, out=top)
            if runner_up:
                low[u, rows] = np.take_along_axis(scores, top[..., None], -1)[..., 0]
                np.put_along_axis(scores, top[..., None], np.inf, -1)
                second[u, rows] = scores.min(axis=-1)
    return (best, low, second) if runner_up else best


def quantize(lat: TruncatedLattice, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Nearest codeword to x; returns (index, point).

    Inputs outside the support radius clamp to the nearest retained codeword
    (overload is allowed, not an error).  Ties go to the lowest index.  One
    row of quantize_batch: a large codebook answers through the certified
    nearest lattice point and an index lookup, a small one by a scan.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = int(quantize_batch(lat, x[None, :])[0])
    return idx, lat.codebook[idx]


def quantize_batch(lat: TruncatedLattice, xs: np.ndarray) -> np.ndarray:
    """Vectorized quantize over rows of xs; returns codebook indices.

    xs (U, n, L) may carry a leading slot axis, each slot quantized as it
    is alone.  Each index equals the plain scan's: the first minimum over
    the codebook of ||c||^2 - 2 x.c, so ties go to the lowest index.
    Codebooks of at most _LOOKUP_CUBES * 5^L codewords are scanned.  Larger
    ones first find each row's nearest lattice point with _cube_search; a
    certified point (the unique nearest, with a margin that outweighs
    rounding) that is a codeword is the answer, and its index is read from
    the lattice's box table (lookup).  Only the other rows
    (overload, uncertified, non-finite) are scanned, by _first_min, slot by
    slot.
    """
    if lat.size == 0:
        raise GeometryError("cannot quantize against an empty codebook")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim not in (2, 3) or xs.shape[-1] != lat.dim:
        raise ValueError(f"expected points of dimension {lat.dim}, got {xs.shape}")
    book = lat.codebook
    book_sq = np.einsum("ij,ij->i", book, book)
    if lat.size <= _LOOKUP_CUBES * 5**lat.dim:
        return _first_min(book, book_sq, xs)
    out = _lookup(lat, xs)
    for row, x in zip(np.atleast_2d(out), xs if xs.ndim == 3 else xs[None]):
        miss = np.flatnonzero(row < 0)
        if miss.size:
            row[miss] = _first_min(book, book_sq, x[miss])
    return out


def _quantize_slots(lats: list[TruncatedLattice], xs: np.ndarray) -> np.ndarray:
    """Each slot's quantize_batch indices of its rows xs (U, m, L) under its
    codebook lats[u].

    Slots that all hold one codebook run one quantize_batch.  Where every
    codebook is scanned, the codebooks are padded to one size and scored by
    one _first_min: each slot's scores are its own scan's, because the
    scores of a real codeword do not depend on the columns after it, and a
    padded row never wins, because it lies outside the support ball (so it
    repeats no codeword) and its squared norm is taken as +inf.  Otherwise
    each slot runs quantize_batch."""
    sizes = np.array([lat.size for lat in lats])
    if sizes.min() == 0:
        raise GeometryError("cannot quantize against an empty codebook")
    if all(lat is lats[0] for lat in lats):
        return quantize_batch(lats[0], xs)
    dim, size = xs.shape[-1], int(sizes.max())
    if size > _LOOKUP_CUBES * 5**dim:
        return np.stack([quantize_batch(lat, x) for lat, x in zip(lats, xs)])
    book = np.zeros((len(lats), size, dim))
    book[:, :, 0] = 2.0 * max(lat.gamma for lat in lats)
    for k, lat in enumerate(lats):
        book[k, : lat.size] = lat.codebook
    book_sq = np.einsum("uij,uij->ui", book, book)
    book_sq[np.arange(size) >= sizes[:, None]] = np.inf
    return _first_min(book, book_sq, xs)


def _search_offsets(lat: TruncatedLattice, rows: int) -> _Offsets | None:
    """lat.offsets for a search of rows rows in all under lat's generator,
    when they are enough that a fresh search would derive offsets (see
    _PRUNE_SCORES), else None: a learner's codebook serves one small
    lookup, a check's many large ones."""
    return lat.offsets if rows * 5**lat.dim >= _PRUNE_SCORES else None


def _lookup(lat: TruncatedLattice, xs: np.ndarray) -> np.ndarray:
    """The codebook index of each row of xs (n, L), or of each slot's rows
    (U, n, L), whose certified nearest lattice point is a codeword; -1 for
    every other row."""
    bound, table = lat.lookup
    # A row whose Babai coordinates leave the box by more than the cube's
    # reach cannot land in it; such rows (and non-finite ones) are zeroed
    # for the search, which keeps every row in its place, so none reaches
    # the integer cast.
    near = np.all(np.abs(xs @ lat.inv.mT) <= bound + 3, axis=-1)
    search = np.where(near[..., None], xs, 0.0)
    offsets = _search_offsets(lat, search.size // lat.dim)
    ls, cert = _cube_search(lat.gen, lat.inv, search, certify=True, offsets=offsets)
    hit = near & cert & np.all(np.abs(ls) <= bound, axis=-1)
    keys = _box_ids(np.where(hit[..., None], ls, 0), bound)  # a missed row keys the origin
    return np.where(hit, table[keys], -1)


def rate_of(lat: TruncatedLattice) -> float:
    """Quantization rate in bits per sample: log2(codebook size) / L."""
    return math.log2(lat.size) / lat.dim


def pack_generator(gen: np.ndarray) -> bytes:
    """Wire format: u32 little-endian L, then row-major float64 entries."""
    gen = check_generator(gen)
    dim = gen.shape[0]
    return struct.pack("<I", dim) + gen.astype("<f8").tobytes(order="C")


def unpack_generator(blob: bytes) -> np.ndarray:
    if len(blob) < 4:
        raise ValueError("generator blob too short")
    (dim,) = struct.unpack_from("<I", blob, 0)
    expect = 4 + 8 * dim * dim
    if len(blob) != expect:
        raise ValueError(f"generator blob length {len(blob)}, expected {expect}")
    gen = np.frombuffer(blob, dtype="<f8", offset=4).reshape(dim, dim).copy()
    return check_generator(gen)


def pack_indices(indices: np.ndarray) -> bytes:
    """Codebook indices as unsigned 32-bit little-endian integers."""
    arr = np.asarray(indices)
    if arr.size and (arr.min() < 0 or arr.max() >= 2**32):
        raise ValueError("index out of u32 range")
    return arr.astype("<u4").tobytes()


def unpack_indices(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<u4").astype(np.int64)
