"""IDX ingestion, synthetic corpus, non-iid partitioning."""

import numpy as np
import pytest

from olala.data import (
    Dataset,
    load_idx_dataset,
    partition_dataset,
    read_idx,
    synthetic_dataset,
    write_idx,
)
from olala.errors import PartitionError


def test_idx_roundtrip(tmp_path):
    rng_ = np.random.default_rng(0)
    images = rng_.integers(0, 256, size=(30, 5, 4), dtype=np.uint8)
    labels = rng_.integers(0, 10, size=30, dtype=np.uint8)
    ipath, lpath = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
    write_idx(ipath, images)
    write_idx(lpath, labels)
    assert np.array_equal(read_idx(ipath), images)
    ds = load_idx_dataset(ipath, lpath)
    assert ds.features.shape == (30, 20)
    assert ds.features.max() <= 1.0 and ds.features.min() >= 0.0
    assert np.array_equal(ds.labels, labels)
    assert ds.source == "idx_files"


def test_idx_big_endian_header(tmp_path):
    # header is big-endian: magic 0x00000803 then dims
    path = str(tmp_path / "x.idx")
    write_idx(path, np.zeros((2, 3, 3), dtype=np.uint8))
    blob = open(path, "rb").read()
    assert blob[:4] == bytes([0, 0, 0x08, 3])
    assert blob[4:8] == (2).to_bytes(4, "big")
    assert blob[8:12] == (3).to_bytes(4, "big")


def test_idx_rejects_garbage(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x01\x02\x03\x04rest")
    with pytest.raises(ValueError):
        read_idx(str(path))
    path.write_bytes(bytes([0, 0, 8, 1]) + (10).to_bytes(4, "big") + b"\x00" * 3)
    with pytest.raises(ValueError):
        read_idx(str(path))
    # Three dimension words promised, one given.
    path.write_bytes(bytes([0, 0, 8, 3]) + (10).to_bytes(4, "big"))
    with pytest.raises(ValueError, match="bad.idx: IDX header cut short"):
        read_idx(str(path))


def test_idx_mismatched_pair(tmp_path):
    write_idx(str(tmp_path / "i.idx"), np.zeros((4, 2, 2), dtype=np.uint8))
    write_idx(str(tmp_path / "l.idx"), np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="i.idx and .*l.idx disagree on sample count"):
        load_idx_dataset(str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
    # A 0-dimensional image file: one value, no sample axis.
    (tmp_path / "scalar.idx").write_bytes(bytes([0, 0, 8, 0, 7]))
    with pytest.raises(ValueError, match="scalar.idx: images have no sample axis"):
        load_idx_dataset(str(tmp_path / "scalar.idx"), str(tmp_path / "l.idx"))


def test_synthetic_dataset_properties():
    ds = synthetic_dataset(500, n_features=8, n_classes=10, seed=1)
    assert len(ds) == 500
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    counts = np.bincount(ds.labels, minlength=10)
    assert counts.max() - counts.min() <= 1  # balanced up to remainder
    again = synthetic_dataset(500, n_features=8, n_classes=10, seed=1)
    assert np.array_equal(ds.features, again.features)


def test_synthetic_shared_centers_disjoint_noise():
    train = synthetic_dataset(400, seed=5, center_seed=99)
    test = synthetic_dataset(400, seed=6, center_seed=99)
    assert not np.array_equal(train.features, test.features)
    # same centers: each class's train mean is closest to its own test mean
    mu_tr = np.stack([train.features[train.labels == c].mean(axis=0) for c in range(10)])
    mu_te = np.stack([test.features[test.labels == c].mean(axis=0) for c in range(10)])
    dists = np.linalg.norm(mu_tr[:, None, :] - mu_te[None, :, :], axis=2)
    assert (np.argmin(dists, axis=1) == np.arange(10)).all()


def test_partition_class_windows():
    ds = synthetic_dataset(1000, n_classes=10, seed=2)
    shards = partition_dataset(ds, 5, seed=3)
    # user 0 holds classes {0,1,2}; user 4 holds {8,9,0}
    assert set(np.unique(ds.labels[shards[0]])) == {0, 1, 2}
    assert set(np.unique(ds.labels[shards[4]])) == {8, 9, 0}


def test_partition_disjoint_and_balanced_overlap():
    ds = synthetic_dataset(997, n_classes=10, seed=4)
    shards = partition_dataset(ds, 5, seed=5)
    all_idx = np.concatenate(shards)
    assert len(all_idx) == len(set(all_idx.tolist()))  # every sample at most once
    # class 0 is claimed by users 0 and 4; the split differs by at most one
    c0_counts = [int((ds.labels[s] == 0).sum()) for s in (shards[0], shards[4])]
    assert abs(c0_counts[0] - c0_counts[1]) <= 1
    assert sum(c0_counts) == int((ds.labels == 0).sum())


def test_partition_needs_three_classes():
    feats = np.random.default_rng(0).uniform(size=(20, 3))
    labels = np.arange(20) % 2
    ds = Dataset(feats, labels, 2)
    with pytest.raises(PartitionError):
        partition_dataset(ds, 5)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.array([0, 1, 5]), 3)  # label out of range
    with pytest.raises(ValueError):
        Dataset(np.ones((0, 2)), np.array([], dtype=int), 3)
