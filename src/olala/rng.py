"""Counter-based deterministic random streams.

All randomness that must be reproducible across client and server goes
through the splitmix64-style generator defined here.  The k-th output of a
stream is a pure function of (seed, k), so a stream can be re-created at any
position without replaying earlier draws, and interleaving several streams
never perturbs any of them.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer (scalar, pure Python ints)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def stream_u64(seed: int, index: int) -> int:
    """The index-th 64-bit output of the stream rooted at seed."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK)


def stream_unit(seed: int, index: int) -> float:
    """The index-th uniform double in [0, 1)."""
    return (stream_u64(seed, index) >> 11) * 2.0**-53


def stream_unit_block(seed, start: int, count: int) -> np.ndarray:
    """Vectorized [0,1) uniforms for indices start .. start+count-1.

    Bit-identical to calling stream_unit in a loop.  seed may be a 1-D
    sequence of seeds: then row i holds the block of stream seed[i].
    """
    if np.ndim(seed) == 1:
        root = np.array([int(s) & _MASK for s in seed], dtype=np.uint64)[:, None]
    else:
        root = np.uint64(seed & _MASK)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix_block((root + idx * np.uint64(_GOLDEN)).astype(np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _mix_block(z: np.ndarray) -> np.ndarray:
    """mix64 of each entry of a uint64 array, wrapping as mix64 masks."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def normal_block(seed_a, seed_b, count: int) -> np.ndarray:
    """count standard normals by Box-Muller from uniforms 0 .. count-1 of
    the streams rooted at seed_a (radius) and seed_b (angle), so a corpus
    drawn from them does not depend on any library generator's layout.
    With 1-D sequences of seeds, row i is the block of seed_a[i], seed_b[i]."""
    u1 = stream_unit_block(seed_a, 0, count)
    u2 = stream_unit_block(seed_b, 0, count)
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


def stream_permutation(seed: int, count: int) -> np.ndarray:
    """A seeded shuffle of range(count): the stable argsort of uniforms
    0 .. count-1 of the stream rooted at seed."""
    return np.argsort(stream_unit_block(seed, 0, count), kind="stable")


def derive_seed(root, *parts: int):
    """Derive a child seed from a root and a tuple of integer labels.

    Order-sensitive; used to give every (client, round, purpose) its own
    independent stream so that no consumer's draws depend on another's.
    root may be a 1-D sequence of roots: then the result is a uint64 array
    holding each root's child seed, bit-identical to the scalar call.
    """
    if np.ndim(root) != 1:
        h = root & _MASK
        for p in parts:
            h = mix64(((h ^ mix64(p & _MASK)) + _GOLDEN) & _MASK)
        return h
    h = np.array([int(r) & _MASK for r in root], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for p in parts:
            h = _mix_block((h ^ np.uint64(mix64(p & _MASK))) + np.uint64(_GOLDEN))
    return h


# Purpose labels for derive_seed. Distinct labels give disjoint streams.
TAG_CLIENT_ROOT = 1
TAG_LOCAL_SGD = 2
TAG_TRANSMIT_DITHER = 3
TAG_PROBE_DITHER = 4
TAG_LATTICE_LEARN = 5
TAG_MODEL_INIT = 6
TAG_DATA = 7
TAG_OFFLINE = 8
