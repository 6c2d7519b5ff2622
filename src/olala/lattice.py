"""Lattice geometry: truncated codebooks, nearest-point search, rates.

A lattice is the set {G @ l : l integer} for a nonsingular generator matrix
G (columns are the basis vectors).  Truncating to points with Euclidean norm
at most gamma yields the finite codebook used by the codec.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError, ResourceLimitError

# Stock 2-D generator matrices used as fixed-quantizer baselines.
GEN_IDENTITY_2D = np.eye(2)
GEN_HEXAGONAL = np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
GEN_D2 = np.array([[2.0, 0.0], [1.0, -1.0]])
GEN_A2 = np.array([[math.sqrt(2.0), 0.0], [-0.7071, 1.2247]])

_ENUM_CAP_DEFAULT = 10**7
_ENUM_CHUNK = 1 << 18
_GRID_CACHE_MAX = 1 << 14

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
# Relative slack on the certificate's bound for the rounding of G^-1.
_CERT_SLACK = 1e-9

_offset_cube_cache: dict[int, np.ndarray] = {}
_grid_cache: dict[tuple[int, int], np.ndarray] = {}


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


def _full_grid(side: int, dim: int) -> np.ndarray:
    """Whole lexicographic grid for small boxes, cached: every learner step
    enumerates boxes of the same few sizes."""
    key = (side, dim)
    grid = _grid_cache.get(key)
    if grid is None:
        grid = _lex_block(np.arange(side**dim), side, dim, side // 2)
        if side**dim <= _GRID_CACHE_MAX:
            _grid_cache[key] = grid
    return grid


class IndexLookup(NamedTuple):
    """Map from lattice points to codebook indices.

    ids are the sorted flat mixed-radix ids of the codewords' coefficient
    vectors inside the box [-bound, bound]^L; index[k] is the codebook index
    of ids[k], or None when the two orders agree.
    """

    inv: np.ndarray
    bound: int
    ids: np.ndarray
    index: np.ndarray | None


@dataclass(frozen=True)
class TruncatedLattice:
    """Finite codebook: all lattice points with norm <= gamma.

    index_set holds the integer coefficient vectors in lexicographic order;
    codebook[i] == gen @ index_set[i].  lookup caches what quantize_batch
    needs to map lattice points to indices; it is derived on first use.
    """

    gen: np.ndarray
    gamma: float
    index_set: np.ndarray = field(repr=False)
    codebook: np.ndarray = field(repr=False)
    lookup: IndexLookup | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.gen.shape[0]

    @property
    def size(self) -> int:
        return self.codebook.shape[0]


def _points_within(
    gen: np.ndarray, radius: float, enum_cap: int = _ENUM_CAP_DEFAULT
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors l with ||gen @ l|| <= radius, in lexicographic
    order, and their squared norms.

    The integer search box comes from the inverse matrix's row norms: any
    point gen@l with ||gen@l|| <= radius has ||l||_inf bounded by
    ceil(radius * max_i ||row_i(gen^-1)||).  A box of more than enum_cap
    candidates raises ResourceLimitError.
    """
    dim = gen.shape[0]
    bound = int(math.ceil(radius * float(np.linalg.norm(np.linalg.inv(gen), axis=1).max())))
    side = 2 * bound + 1
    total = side**dim
    if total > enum_cap:
        raise ResourceLimitError(
            f"lattice enumeration box has {total} candidates (cap {enum_cap})"
        )
    gen_t = gen.T
    kept_ls: list[np.ndarray] = []
    kept_sq: list[np.ndarray] = []
    for start in range(0, total, _ENUM_CHUNK):
        if total <= _ENUM_CHUNK:
            ls = _full_grid(side, dim)
        else:
            ls = _lex_block(np.arange(start, min(start + _ENUM_CHUNK, total)), side, dim, bound)
        pts = ls @ gen_t
        sq = np.einsum("ij,ij->i", pts, pts)
        ok = sq <= radius * radius
        kept_ls.append(ls[ok])
        kept_sq.append(sq[ok])
    return np.concatenate(kept_ls), np.concatenate(kept_sq)


def build_lattice(
    gen: np.ndarray, gamma: float, enum_cap: int = _ENUM_CAP_DEFAULT
) -> TruncatedLattice:
    """Enumerate the codebook of lattice points within radius gamma."""
    gen = check_generator(gen)
    if not (gamma > 0):
        raise GeometryError(f"support radius must be positive, got {gamma}")
    index_set, _ = _points_within(gen, gamma, enum_cap)
    if index_set.shape[0] == 0:
        raise GeometryError("empty codebook: no lattice point within the support radius")
    return TruncatedLattice(
        gen=gen, gamma=float(gamma), index_set=index_set, codebook=index_set @ gen.T
    )


def _index_lookup(lat: TruncatedLattice) -> IndexLookup:
    """The lattice's lookup, derived on first use and kept on the lattice."""
    if lat.lookup is None:
        bound = int(np.abs(lat.index_set).max())
        ids = _box_ids(lat.index_set, bound)
        index = None
        if np.any(ids[1:] <= ids[:-1]):  # not lexicographic, as build_lattice's is
            index = np.argsort(ids, kind="stable")
            ids = ids[index]
        object.__setattr__(lat, "lookup", IndexLookup(np.linalg.inv(lat.gen), bound, ids, index))
    return lat.lookup


def _box_ids(ls: np.ndarray, bound: int) -> np.ndarray:
    """Flat mixed-radix ids of coefficient vectors inside [-bound, bound]^L."""
    radix = (2 * bound + 1) ** np.arange(ls.shape[1] - 1, -1, -1, dtype=np.int64)
    return (ls + bound) @ radix


def count_codewords_at_most(
    gen: np.ndarray, gamma: float, limit: int, enum_cap: int = _ENUM_CAP_DEFAULT
) -> int:
    """Count codewords within gamma, capped at limit+1.

    Returns min(true count, limit+1).  A search box larger than enum_cap is
    reported as limit+1: boxes that size only arise from lattices far too
    fine to satisfy any small codebook budget.
    """
    try:
        _, sq = _points_within(check_generator(gen), gamma, enum_cap)
    except ResourceLimitError:
        return limit + 1
    return min(sq.size, limit + 1)


def kth_norm(gen: np.ndarray, k: int) -> tuple[float, int]:
    """The k-th smallest norm r over the lattice points, and the number of
    points with norm at most r.

    Points are counted with multiplicity, the origin first, so the count can
    exceed k when norms tie at r; a norm within a relative 1e-12 of r counts
    as tied.  The search starts at the radius whose ball holds k fundamental
    cells by volume and grows until k points, and every point tied with the
    k-th, lie inside; ResourceLimitError if the box outgrows the
    enumeration cap first.
    """
    gen = check_generator(gen)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    dim = gen.shape[0]
    ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    radius = (k * abs(float(np.linalg.det(gen))) / ball) ** (1.0 / dim)
    while True:
        _, sq = _points_within(gen, radius)
        if sq.size >= k:
            norms = np.sqrt(sq)
            r = float(np.partition(norms, k - 1)[k - 1])
            tied = r * (1.0 + 1e-12)
            if tied <= radius:
                return r, int(np.count_nonzero(norms <= tied))
        radius *= 1.25


def _offset_cube(dim: int) -> np.ndarray:
    """All integer offsets in {-2..2}^dim, lexicographic order."""
    cube = _offset_cube_cache.get(dim)
    if cube is None:
        cube = _lex_block(np.arange(5**dim), 5, dim, 2)
        _offset_cube_cache[dim] = cube
    return cube


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


def _cube_search(
    gen: np.ndarray, inv: np.ndarray, xs: np.ndarray, certify: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Babai point refined over the offset cube; returns the coefficient
    vectors and, with certify, a per-row certificate (else all False).

    Let r be the Babai residual x - G l0 and d the distance to the answer.
    Any lattice point l within distance e of x has
    ||l - l0||_inf <= mu (e + ||r||), mu = max_i ||row_i(G^-1)||
    (Agrell, Eriksson, Vardy and Zeger, "Closest point search in lattices",
    IEEE T-IT 2002).  A row is certified when mu (e + ||r||) < 3 for
    e^2 = d^2 + tau and the cube's runner-up is farther than e: then every
    lattice point within e lies in the cube, and the answer is the unique
    nearest point with a squared-distance margin tau = _TIE_REL
    (||x|| + d)^2.
    """
    cube = _offset_cube(gen.shape[0])
    cand = cube @ gen.T  # (K, L) lattice displacements of the cube offsets
    cand_sq = np.einsum("ij,ij->i", cand, cand)
    l0 = np.rint(xs @ inv.T).astype(np.int64)
    resid = xs - l0 @ gen.T
    out = np.empty_like(l0)
    cert = np.zeros(xs.shape[0], dtype=bool)
    if certify:
        mu = float(np.linalg.norm(inv, axis=1).max())
    for start in range(0, xs.shape[0], _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, xs.shape[0])
        r = resid[start:stop]
        # ||r - c_k||^2 = ||r||^2 - 2 r.c_k + ||c_k||^2; drop the constant ||r||^2.
        scores = cand_sq[None, :] - 2.0 * (r @ cand.T)
        best = np.argmin(scores, axis=1)  # first minimum == lexicographically smallest
        out[start:stop] = l0[start:stop] + cube[best]
        if certify:
            rows = np.arange(stop - start)
            low = scores[rows, best]
            r_sq = np.einsum("ij,ij->i", r, r)
            d_sq = np.maximum(low + r_sq, 0.0)
            x_norm = np.sqrt(np.einsum("ij,ij->i", xs[start:stop], xs[start:stop]))
            tau = _TIE_REL * (x_norm + np.sqrt(d_sq)) ** 2
            scores[rows, best] = np.inf
            unique = scores.min(axis=1) - low > tau
            reach = mu * (np.sqrt(d_sq + tau) + np.sqrt(r_sq))
            cert[start:stop] = unique & (reach < 3.0 * (1.0 - _CERT_SLACK))
    return out, cert


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

    Each index equals the plain scan's: the first minimum over the codebook
    of ||c||^2 - 2 x.c, so ties go to the lowest index.  Codebooks of at
    most _LOOKUP_CUBES * 5^L codewords are scanned.  Larger ones first find
    each row's nearest lattice point with _cube_search; a certified point
    (the unique nearest, with a margin that outweighs rounding) that is a
    codeword is the answer, and its index is found by binary search in the
    lattice's sorted box ids.  Only the other rows (overload, uncertified,
    non-finite) are scanned.  The scan is chunked so that rows x |C| stays
    within _ENUM_CHUNK scores.
    """
    if lat.size == 0:
        raise GeometryError("cannot quantize against an empty codebook")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != lat.dim:
        raise ValueError(f"expected points of dimension {lat.dim}, got {xs.shape}")
    if lat.size <= _LOOKUP_CUBES * 5**lat.dim:
        return _scan(lat.codebook, xs)
    out = np.full(xs.shape[0], -1, dtype=np.int64)
    rows, index = _lookup(lat, xs)
    out[rows] = index
    miss = np.flatnonzero(out < 0)
    out[miss] = _scan(lat.codebook, xs[miss])
    return out


def _lookup(lat: TruncatedLattice, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of xs whose certified nearest lattice point is a codeword, and
    that codeword's index."""
    table = _index_lookup(lat)
    # A row whose Babai coordinates leave the box by more than the cube's
    # reach cannot land in it; dropping such rows (and non-finite ones)
    # first also keeps them out of the integer cast.
    near = np.flatnonzero(np.all(np.abs(xs @ table.inv.T) <= table.bound + 3, axis=1))
    ls, cert = _cube_search(lat.gen, table.inv, xs[near], certify=True)
    keys = _box_ids(ls, table.bound)
    pos = np.minimum(np.searchsorted(table.ids, keys), table.ids.size - 1)
    hit = cert & np.all(np.abs(ls) <= table.bound, axis=1) & (table.ids[pos] == keys)
    pos = pos[hit]
    return near[hit], pos if table.index is None else table.index[pos]


def _scan(codebook: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Index of the first minimum of ||c||^2 - 2 x.c over the codebook, per
    row, in chunks of at most _ENUM_CHUNK scores."""
    cb_sq = np.einsum("ij,ij->i", codebook, codebook)
    out = np.empty(xs.shape[0], dtype=np.int64)
    step = max(1, _ENUM_CHUNK // codebook.shape[0])
    for start in range(0, xs.shape[0], step):
        stop = min(start + step, xs.shape[0])
        scores = cb_sq[None, :] - 2.0 * (xs[start:stop] @ codebook.T)
        out[start:stop] = np.argmin(scores, axis=1)
    return out


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
