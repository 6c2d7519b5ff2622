"""Subtractive dithered quantization over truncated lattices.

The codec adds a dither uniform over the basic (Voronoi) cell of the origin
before quantizing and subtracts it after, which makes the error independent
of the input and zero-mean whenever the quantizer is not overloaded.  Dither
is reproduced on the server from a shared seed, so only codebook indices and
a small metadata block cross the wire.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ProtocolError
from .lattice import (
    TruncatedLattice,
    _cube_search,
    _offsets,
    _search_offsets,
    check_generator,
    quantize_batch,
)

_SCALE_FLOOR = 1e-9
_SCALE_CEIL = 1e9
# Fewest samples second_moment estimates from.
_MOMENT_MIN_SAMPLES = 10**3


class DitherStream:
    """Seed-synchronized dither source, uniform over the basic cell.

    The k-th dither is a pure function of (seed, k, generator): client and
    server instantiate the stream independently and read identical vectors.
    A stream is owned by one logical consumer; distinct streams never
    interact.
    """

    def __init__(self, seed: int, gen: np.ndarray, counter: int = 0):
        if counter < 0:
            raise ValueError(f"counter must be >= 0, got {counter}")
        self.seed = int(seed)
        self.gen = check_generator(gen)
        self.counter = int(counter)

    @property
    def dim(self) -> int:
        return self.gen.shape[0]

    def draw(self, count: int) -> np.ndarray:
        """Next `count` dithers as a (count, L) array; advances the counter."""
        out = dithers_at(self.seed, self.gen, self.counter, count)
        self.counter += count
        return out

    def next(self) -> np.ndarray:
        return self.draw(1)[0]


def dithers_at(seed: int, gen: np.ndarray, start: int, count: int) -> np.ndarray:
    """Dithers number start .. start+count-1 of the stream rooted at seed.

    A uniform sample of the fundamental parallelepiped (gen @ u with u in
    [0,1)^L) is folded onto the Voronoi cell of the origin by subtracting its
    nearest lattice point.  Folding a fundamental-cell sample this way is
    measure-preserving, so the result is uniform over the basic cell.
    """
    for name, value in (("start", start), ("count", count)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    gen = check_generator(gen)
    return _fold_dithers(_coords(seed, start, count, gen.shape[0]), gen, np.linalg.inv(gen))[0]


def _coords(seed, start: int, count: int, dim: int) -> np.ndarray:
    """Parallelepiped coordinates u of dithers start .. start+count-1 of the
    stream rooted at seed, one row of dim consecutive uniforms per dither:
    the layout client and server share, and the u that dithers_at folds.
    A 1-D sequence of seeds gives one (count, dim) slice per seed."""
    u = rng.stream_unit_block(seed, start * dim, count * dim)
    return u.reshape(*u.shape[:-1], count, dim)


def _fold_dithers(u: np.ndarray, gen: np.ndarray, inv: np.ndarray, offsets=None):
    """Dithers from parallelepiped coordinates u (rows in [0,1)^L), folded
    onto the basic cell, and the integer fold (nearest_point_batch's point)
    subtracted from each; gen is validated and inv is its inverse.  u
    (U, n, L) and gen, inv (U, L, L) may carry a leading slot axis, or one
    gen, inv fold every slot of u.  offsets, when given, are
    lattice._offsets(gen, inv), derived once by a caller whose generator is
    fixed.

    d == (u - fold) @ gen.T, so with the fold held fixed a dither is linear
    in the generator.
    """
    d0 = u @ gen.mT
    fold = _cube_search(gen, inv, d0, offsets=offsets)[0]
    return d0 - fold @ gen.mT, fold


def _fold_under(u: np.ndarray, lats: list[TruncatedLattice]):
    """_fold_dithers of each slot's coordinates u (U, n, L) under its
    codebook lats[k]: where every slot holds one codebook, its generator
    broadcast, with its offsets once the fold is large enough to use them
    (lattice._search_offsets); else the slots' generators stacked."""
    lat = lats[0]
    if all(other is lat for other in lats):
        return _fold_dithers(u, lat.gen, lat.inv, _search_offsets(lat, u.size // lat.dim))
    gen = np.stack([other.gen for other in lats])
    return _fold_dithers(u, gen, np.stack([other.inv for other in lats]))


def split_vector(x: np.ndarray, dim: int) -> tuple[np.ndarray, int]:
    """Zero-pad x to a multiple of dim and cut into (M, dim) blocks.

    Returns (blocks, pad) where pad is the number of appended zeros; the
    decoder strips them after reassembly.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 1:
        raise ValueError("cannot split an empty vector")
    pad = (-x.size) % dim
    if pad:
        x = np.concatenate([x, np.zeros(pad)])
    return x.reshape(-1, dim), pad


def recombine(blocks: np.ndarray, pad: int) -> np.ndarray:
    """Inverse of split_vector."""
    flat = np.asarray(blocks, dtype=np.float64).ravel()
    return flat[: flat.size - pad] if pad else flat


@dataclass
class SdqCodec:
    """A truncated lattice plus input scale and synchronized dither stream."""

    lattice: TruncatedLattice
    zeta: float
    dither: DitherStream = field(repr=False)

    def __post_init__(self):
        if not (self.zeta > 0):
            raise ValueError(f"input scale must be positive, got {self.zeta}")


def sdq_encode(codec: SdqCodec, x: np.ndarray, d: np.ndarray) -> int:
    """Index of the nearest codeword to x + d (x already scaled by zeta)."""
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if x.shape != (codec.lattice.dim,) or d.shape != x.shape:
        raise ValueError(
            f"expected length-{codec.lattice.dim} vectors, got {x.shape} and {d.shape}"
        )
    return int(quantize_batch(codec.lattice, (x + d)[None, :])[0])


def sdq_decode(codec: SdqCodec, index: int, d: np.ndarray) -> np.ndarray:
    """Reconstruct: (codeword - dither) / zeta, one row of decode_blocks."""
    return decode_blocks(codec, np.array([index]), np.asarray(d, dtype=np.float64)[None])[0]


def encode_blocks(codec: SdqCodec, blocks: np.ndarray, dithers: np.ndarray) -> np.ndarray:
    """Vectorized sdq_encode over pre-scaled blocks."""
    return quantize_batch(codec.lattice, blocks + dithers)


def decode_blocks(codec: SdqCodec, indices: np.ndarray, dithers: np.ndarray) -> np.ndarray:
    """Reconstruct each block as (codeword - dither) / zeta; both sides of
    the wire run this same routine (_decode)."""
    return _decode(codec.lattice, codec.zeta, indices, dithers)


def _decode(lat: TruncatedLattice, zeta, indices: np.ndarray, dithers: np.ndarray) -> np.ndarray:
    """(codeword - dither) / zeta of each index under the codebook lat, once
    the scale and every index are checked: indices (n,) and dithers (n, L)
    under one scale, or a slot stack (U, n) and (U, n, L) with zeta (U, 1, 1)."""
    if not np.all(zeta > 0):
        raise ValueError(f"input scale must be positive, got {zeta}")
    indices = np.asarray(indices)
    size = lat.size
    if indices.size and (indices.min() < 0 or indices.max() >= size):
        bad = indices[(indices < 0) | (indices >= size)][0]
        raise ProtocolError(f"codebook index {bad} out of range [0, {size})")
    return (lat.codebook[indices] - dithers) / zeta


def second_moment(
    gen: np.ndarray, n_samples: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo per-dimension second moment of the basic cell.

    Estimates (1/L) E||d||^2 for d uniform over the Voronoi cell of the
    origin; returns (estimate, standard error of the mean).  The dithers are
    dithers_at(seed, gen, 0, n_samples), drawn 2^17 at a time from one
    validated generator, its inverse and its offset set.
    """
    if n_samples < _MOMENT_MIN_SAMPLES:
        raise ValueError(f"need at least {_MOMENT_MIN_SAMPLES} samples for a usable estimate")
    gen = check_generator(gen)
    inv = np.linalg.inv(gen)
    offsets = _offsets(gen, inv)
    dim = gen.shape[0]
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 1 << 17
    while done < n_samples:
        take = min(chunk, n_samples - done)
        d = _fold_dithers(_coords(seed, done, take, dim), gen, inv, offsets)[0]
        s = np.einsum("ij,ij->i", d, d) / dim
        total += float(s.sum())
        total_sq += float((s * s).sum())
        done += take
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, (var / n_samples) ** 0.5


def fit_scale(
    subvectors: np.ndarray,
    lat: TruncatedLattice,
    dither_probe: DitherStream,
    target_overload: float,
) -> float:
    """Largest input scale keeping the probe overload fraction within target.

    A subvector x with probe dither d overloads when ||zeta*x + d|| exceeds
    the support radius gamma, which for zeta > 0 happens exactly above the
    positive root of zeta^2 ||x||^2 + 2 zeta <x, d> + ||d||^2 = gamma^2.
    A subvector whose dither alone overloads (||d|| > gamma) counts as
    overloading at every scale (root 0); any other all-zero subvector never
    overloads (root +inf).  With k the largest overload count whose
    fraction meets the target, the answer is the (k+1)-th smallest root,
    clamped to [1e-9, 1e9] and stepped down by an ulp or two where rounding
    leaves its block just outside the radius.  Probe dithers come from the
    dedicated stream passed in, leaving transmission streams untouched.
    """
    blocks = np.asarray(subvectors, dtype=np.float64)
    if blocks.ndim != 2 or blocks.shape[0] < 1 or blocks.shape[1] != lat.dim:
        raise ValueError(f"expected (M, {lat.dim}) subvectors, got {blocks.shape}")
    d = dither_probe.draw(blocks.shape[0])
    return float(_fit_scale_pinned(blocks[None], lat.gamma, d[None], target_overload)[0][0])


def _fit_scale_pinned(
    blocks: np.ndarray, gamma: float, d: np.ndarray, target_overload: float,
    notes: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """fit_scale of each slot's blocks (U, n, L) under its probe dithers d
    (U, n, L), and the index of the block whose overload root the scale is
    (-1 when no block pins it: all-zero blocks, the floor, the ceiling).
    Each slot is fit as alone; the ragged step-down runs slot by slot.  A
    slot's warning (all-zero blocks, or no feasible scale) is issued in
    slot order, or, with notes, stored there under the slot's index for
    the caller to issue."""
    if not (0 <= target_overload < 1):
        raise ValueError(f"target_overload must be in [0, 1), got {target_overload}")
    slots, n = blocks.shape[:2]
    zeta = np.ones(slots)
    pins = np.full(slots, -1)
    nonzero = np.any(blocks, axis=(1, 2))
    said = dict.fromkeys(
        np.flatnonzero(~nonzero).tolist(), "all-zero subvectors: scale fit defaulting to 1.0"
    )
    gamma_sq = gamma * gamma
    xx = np.einsum("uij,uij->ui", blocks, blocks)
    xd = np.einsum("uij,uij->ui", blocks, d)
    dd = np.einsum("uij,uij->ui", d, d)

    # The overload fraction k/n meets the target exactly when the count k
    # does not exceed the largest k whose fraction, formed as np.mean forms
    # it, meets it.
    allowed = min(int(target_overload * n), n)
    while allowed < n and (allowed + 1) / n <= target_overload:
        allowed += 1
    while allowed > 0 and allowed / n > target_overload:
        allowed -= 1

    # Positive root of xx z^2 + 2 xd z - (gamma^2 - dd) = 0, in the form
    # that avoids cancellation for either sign of xd.
    slack = gamma_sq - dd
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(xd * xd + xx * slack)
        roots = np.where(xd > 0, slack / (xd + disc), (disc - xd) / xx)
    roots[xx == 0] = np.inf
    roots[slack < 0] = 0.0
    p = np.argpartition(roots, allowed, axis=-1)[:, allowed]
    root = roots[np.arange(slots), p]
    fit = np.minimum(np.maximum(root, _SCALE_FLOOR), _SCALE_CEIL)
    zeta[nonzero] = fit[nonzero]
    pins[nonzero] = np.where(fit == root, p, -1)[nonzero]

    def overloads(s: int, z: float) -> int:
        y = z * blocks[s] + d[s]
        return int(np.count_nonzero(np.einsum("ij,ij->i", y, y) > gamma_sq))

    # Counted the way the codec measures overload: at the root itself,
    # rounding can put the pinning block an ulp outside the radius.
    y = zeta[:, None, None] * blocks + d
    over = np.count_nonzero(np.einsum("uij,uij->ui", y, y) > gamma_sq, axis=1)
    for s in np.flatnonzero(nonzero & (over > allowed)):
        z = float(zeta[s])
        while overloads(s, z) > allowed:
            if z <= _SCALE_FLOOR:
                said[int(s)] = (
                    "no feasible scale meets the overload target; returning bracket floor"
                )
                z, pins[s] = _SCALE_FLOOR, -1
                break
            z = math.nextafter(z, 0.0)
        zeta[s] = z
    if notes is None:
        for s in sorted(said):
            warnings.warn(said[s], stacklevel=3)
    else:
        notes.update(said)
    return zeta, pins
