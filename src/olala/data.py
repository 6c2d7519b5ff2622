"""Datasets: IDX file ingestion, a seeded synthetic corpus, non-iid sharding."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import PartitionError
from .rng import derive_seed, normal_block, stream_permutation, stream_unit_block

_IDX_DTYPES = {0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2", 0x0C: ">i4", 0x0D: ">f4", 0x0E: ">f8"}


@dataclass
class Dataset:
    """Feature matrix in [0,1] with integer labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    source: str = "synthetic"

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, d) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with features")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.n_classes, self.source)


def read_idx(path: str) -> np.ndarray:
    """Read a canonical IDX file (big-endian magic, dims, raw values)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[0] != 0 or blob[1] != 0:
        raise ValueError(f"{path}: not an IDX file")
    dtype_code, ndim = blob[2], blob[3]
    if dtype_code not in _IDX_DTYPES:
        raise ValueError(f"{path}: unsupported IDX dtype 0x{dtype_code:02x}")
    try:
        dims = struct.unpack_from(f">{ndim}I", blob, 4)
    except struct.error:
        raise ValueError(f"{path}: IDX header cut short") from None
    data = np.frombuffer(blob, dtype=_IDX_DTYPES[dtype_code], offset=4 + 4 * ndim)
    expect = int(np.prod(dims))
    if data.size != expect:
        raise ValueError(f"{path}: payload has {data.size} values, header says {expect}")
    return data.reshape(dims)


def write_idx(path: str, arr: np.ndarray) -> None:
    """Write a uint8 array in IDX format (used for fixtures and exports)."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    header = struct.pack(f">BBBB{arr.ndim}I", 0, 0, 0x08, arr.ndim, *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header + arr.tobytes())


def load_idx_dataset(images_path: str, labels_path: str, n_classes: int = 10) -> Dataset:
    """Image/label IDX pair -> flattened features in [0,1]: integer pixels over
    their type's maximum (255 for uint8), so files share one scale; floats as stored."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim == 0:
        raise ValueError(f"{images_path}: images have no sample axis")
    if labels.ndim != 1 or images.shape[0] != labels.shape[0]:
        raise ValueError(f"{images_path} and {labels_path} disagree on sample count")
    feats = images.reshape(images.shape[0], -1).astype(np.float64)
    if np.issubdtype(images.dtype, np.integer):
        feats /= np.iinfo(images.dtype).max
    if not (feats.min() >= 0.0 and feats.max() <= 1.0):  # also catches NaN
        raise ValueError(f"{images_path}: pixel values leave [0, 1] after scaling")
    return Dataset(feats, labels.astype(np.int64), n_classes, source="idx_files")


def synthetic_dataset(
    n_samples: int,
    n_features: int = 16,
    n_classes: int = 10,
    noise: float = 0.12,
    seed: int = 0,
    center_seed: int | None = None,
) -> Dataset:
    """Seeded Gaussian-mixture corpus with one cluster center per class.

    Centers sit in [0.2, 0.8]^d; samples are center + isotropic noise,
    clipped to [0,1].  Classes are balanced up to remainder.  Train and test
    splits share centers by passing the same center_seed with different
    seeds.
    """
    if n_samples < 1 or n_classes < 2:
        raise ValueError("need n_samples >= 1 and n_classes >= 2")
    if center_seed is None:
        center_seed = seed
    center_u = stream_unit_block(derive_seed(center_seed, 1), 0, n_classes * n_features)
    centers = 0.2 + 0.6 * center_u.reshape(n_classes, n_features)
    labels = np.arange(n_samples, dtype=np.int64) % n_classes
    normal = normal_block(derive_seed(seed, 2), derive_seed(seed, 3), n_samples * n_features)
    feats = centers[labels] + noise * normal.reshape(n_samples, n_features)
    np.clip(feats, 0.0, 1.0, out=feats)
    order = stream_permutation(derive_seed(seed, 4), n_samples)
    return Dataset(feats[order], labels[order], n_classes, source="synthetic")


def partition_dataset(ds: Dataset, n_users: int, seed: int = 0) -> list[np.ndarray]:
    """Sliding-window non-iid shards: user u draws classes {2u, 2u+1, 2u+2} mod C.

    A class claimed by several users is split between them as evenly as the
    sample count allows, by seeded shuffle; shards are disjoint index sets.
    """
    if ds.n_classes < 3:
        raise PartitionError(f"partition needs at least 3 classes, got {ds.n_classes}")
    if n_users < 1:
        raise PartitionError("need at least one user")
    claims: dict[int, list[int]] = {c: [] for c in range(ds.n_classes)}
    for u in range(n_users):
        for c in (2 * u, 2 * u + 1, 2 * u + 2):
            c %= ds.n_classes
            if u not in claims[c]:
                claims[c].append(u)
    shards: list[list[int]] = [[] for _ in range(n_users)]
    for c in range(ds.n_classes):
        users = claims[c]
        if not users:
            continue
        idx = np.flatnonzero(ds.labels == c)
        idx = idx[stream_permutation(derive_seed(seed, 5, c), idx.size)]
        for part, u in zip(np.array_split(idx, len(users)), users):
            shards[u].extend(part.tolist())
    return [np.array(sorted(s), dtype=np.int64) for s in shards]
