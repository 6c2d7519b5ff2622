"""Lattice geometry: truncated codebooks, nearest-point search, rates.

A lattice is the set {G @ l : l integer} for a nonsingular generator matrix
G (columns are the basis vectors).  Truncating to points with Euclidean norm
at most gamma yields the finite codebook used by the codec.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TruncatedLattice:
    """Finite codebook: all lattice points with norm <= gamma.

    index_set holds the integer coefficient vectors in lexicographic order;
    codebook[i] == gen @ index_set[i].
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
    """Closest infinite-lattice coefficient vector to x.

    Babai rounding l0 = round(G^-1 x) refined by exhaustive search over the
    offset cube {-2..2}^L around l0; exact for the small, well-conditioned
    generators used here.  Ties resolve to the lexicographically smallest l.
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
    inv = np.linalg.inv(gen)
    cube = _offset_cube(gen.shape[0])
    cand = cube @ gen.T  # (K, L) lattice displacements of the cube offsets
    cand_sq = np.einsum("ij,ij->i", cand, cand)
    l0 = np.rint(xs @ inv.T).astype(np.int64)
    resid = xs - l0 @ gen.T
    out = np.empty_like(l0)
    for start in range(0, xs.shape[0], _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, xs.shape[0])
        r = resid[start:stop]
        # ||r - c_k||^2 = ||r||^2 - 2 r.c_k + ||c_k||^2; drop the constant ||r||^2.
        scores = cand_sq[None, :] - 2.0 * (r @ cand.T)
        best = np.argmin(scores, axis=1)  # first minimum == lexicographically smallest
        out[start:stop] = l0[start:stop] + cube[best]
    return out


def quantize(lat: TruncatedLattice, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Nearest codeword to x by exhaustive scan; returns (index, point).

    Inputs outside the support radius clamp to the nearest retained codeword
    (overload is allowed, not an error).  Ties go to the lowest index.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = int(quantize_batch(lat, x[None, :])[0])
    return idx, lat.codebook[idx]


def quantize_batch(lat: TruncatedLattice, xs: np.ndarray) -> np.ndarray:
    """Vectorized quantize over rows of xs; returns codebook indices."""
    if lat.size == 0:
        raise GeometryError("cannot quantize against an empty codebook")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != lat.dim:
        raise ValueError(f"expected points of dimension {lat.dim}, got {xs.shape}")
    cb = lat.codebook
    cb_sq = np.einsum("ij,ij->i", cb, cb)
    out = np.empty(xs.shape[0], dtype=np.int64)
    for start in range(0, xs.shape[0], _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, xs.shape[0])
        scores = cb_sq[None, :] - 2.0 * (xs[start:stop] @ cb.T)
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
