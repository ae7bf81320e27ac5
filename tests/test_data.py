import struct

import numpy as np
import pytest

import kronblock as kb
from kronblock import (
    Dataset,
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxTruncatedError,
    batches,
    load_idx,
    make_teacher_dataset,
    read_idx,
    train_test_split,
    write_idx,
)
from kronblock.data import export_teacher, load_teacher


def write_mnist_fixture(tmp_path, images, labels):
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    n, rows, cols = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())
    return img_path, lab_path


def test_load_idx_fixture(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[1, 3, 4] = 128
    labels = np.array([7, 1], dtype=np.uint8)
    img, lab = write_mnist_fixture(tmp_path, images, labels)
    ds = load_idx(img, lab)
    assert ds.x.shape == (2, 784)
    assert ds.x[0, 0] == 1.0
    assert ds.x[1, 3 * 28 + 4] == pytest.approx(128 / 255)
    assert ds.labels.tolist() == [7, 1]


def test_load_idx_bad_magic(tmp_path):
    img = tmp_path / "bad.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000999, 1, 28, 28) + b"\x00" * 784)
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
    with pytest.raises(IdxBadMagicError):
        load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    img = tmp_path / "trunc.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + b"\x00" * 100)
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
    with pytest.raises(IdxTruncatedError):
        load_idx(img, lab)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    img, _ = write_mnist_fixture(tmp_path, images, np.array([1, 2], dtype=np.uint8))
    lab = tmp_path / "short.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x03")
    with pytest.raises(IdxCountMismatchError):
        load_idx(img, lab)


def test_idx_roundtrip_lossless(tmp_path, rng):
    arr = rng.standard_normal((5, 7))
    path = tmp_path / "mat.idx"
    write_idx(path, arr)
    assert np.array_equal(read_idx(path), arr)
    bytes_arr = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    write_idx(path, bytes_arr)
    assert np.array_equal(read_idx(path), bytes_arr)


def test_teacher_dense_when_fraction_zero():
    _, teacher = make_teacher_dataset(4, 6, (2, 2), 0.0, 8, seed=0)
    from kronblock.linalg import tile_norms

    assert np.all(tile_norms(teacher, 2, 2) > 0)


def test_teacher_surviving_tiles_match_reconstruction_rank():
    _, teacher = make_teacher_dataset(8, 8, (2, 2), 0.5, 4, seed=3)
    fac = kb.reconstruct_from_blockwise(teacher, (2, 2))
    expected_live = 16 - int(round(0.5 * 16))
    assert fac.shape.r == expected_live


def test_teacher_noiseless_attained_by_teacher():
    ds, teacher = make_teacher_dataset(4, 6, (2, 2), 0.5, 16, noise_sigma=0.0, seed=1)
    assert np.max(np.abs(ds.y - ds.x @ teacher.T)) == 0.0


def test_teacher_deterministic():
    a_ds, a_t = make_teacher_dataset(4, 8, (2, 2), 0.25, 10, noise_sigma=0.1, seed=9)
    b_ds, b_t = make_teacher_dataset(4, 8, (2, 2), 0.25, 10, noise_sigma=0.1, seed=9)
    assert np.array_equal(a_t, b_t)
    assert np.array_equal(a_ds.x, b_ds.x)
    assert np.array_equal(a_ds.y, b_ds.y)


def test_teacher_classification_labels():
    ds, teacher = make_teacher_dataset(5, 10, (1, 2), 0.2, 32, seed=2, classification=True)
    assert ds.class_count == 5
    assert np.array_equal(ds.labels, np.argmax(ds.x @ teacher.T, axis=1))


def test_teacher_validation():
    with pytest.raises(ValueError):
        make_teacher_dataset(4, 6, (3, 2), 0.5, 8)
    with pytest.raises(ValueError):
        make_teacher_dataset(4, 6, (2, 2), 1.0, 8)


def test_batches_single_batch(rng):
    ds = Dataset(rng.standard_normal((10, 3)), labels=rng.integers(0, 2, 10))
    got = list(batches(ds, batch_size=10, shuffle=True, seed=0))
    assert len(got) == 1 and got[0][0].shape == (10, 3)


def test_batches_deterministic(rng):
    ds = Dataset(rng.standard_normal((11, 3)), labels=rng.integers(0, 2, 11))
    a = [xb.copy() for xb, _ in batches(ds, 4, True, seed=(5, 1))]
    b = [xb.copy() for xb, _ in batches(ds, 4, True, seed=(5, 1))]
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)


def test_batches_cover_dataset_as_multiset(rng):
    ds = Dataset(rng.standard_normal((11, 3)), labels=np.arange(11) % 3)
    seen = np.concatenate([xb for xb, _ in batches(ds, 4, True, seed=2)])
    assert seen.shape == ds.x.shape
    # sort rows lexicographically and compare as multisets
    order_a = np.lexsort(seen.T)
    order_b = np.lexsort(ds.x.T)
    assert np.array_equal(seen[order_a], ds.x[order_b])


def test_batches_include_partial(rng):
    ds = Dataset(rng.standard_normal((7, 2)), labels=np.zeros(7, dtype=int))
    sizes = [xb.shape[0] for xb, _ in batches(ds, 3, False, seed=0)]
    assert sizes == [3, 3, 1]


def test_train_test_split_partitions(rng):
    ds = Dataset(rng.standard_normal((20, 3)), labels=np.arange(20) % 4)
    tr, te = train_test_split(ds, 0.25, seed=1)
    assert tr.n == 15 and te.n == 5
    combined = np.vstack([tr.x, te.x])
    assert np.array_equal(np.sort(combined, axis=0), np.sort(ds.x, axis=0))


def test_teacher_export_roundtrip(tmp_path):
    ds, teacher = make_teacher_dataset(4, 6, (2, 2), 0.5, 12, noise_sigma=0.05, seed=4)
    export_teacher(tmp_path / "teach", ds, teacher)
    ds2, teacher2 = load_teacher(tmp_path / "teach")
    assert np.array_equal(ds.x, ds2.x)
    assert np.array_equal(ds.y, ds2.y)
    assert np.array_equal(teacher, teacher2)


def test_dataset_validation(rng):
    with pytest.raises(ValueError):
        Dataset(rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        Dataset(rng.standard_normal((3, 2)), labels=np.array([0, 1, 5]), class_count=3)
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), labels=np.array([0]))


def test_dataset_rejects_non_finite_targets(rng):
    x = rng.standard_normal((3, 2))
    for bad in (np.nan, np.inf):
        y = np.zeros((3, 2))
        y[1, 0] = bad
        with pytest.raises(ValueError, match="targets must be finite"):
            Dataset(x, y=y)
