import re
import struct
import sys

import numpy as np
import pytest

import kronblock as kb
from kronblock import (
    Dataset,
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxFormatError,
    IdxTruncatedError,
    batches,
    load_idx,
    make_teacher_dataset,
    read_idx,
    train_test_split,
    write_idx,
)


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


@pytest.mark.parametrize(
    "head, part, want, got",
    [(b"\x00\x00", "magic", 4, 2), (struct.pack(">HBBI", 0, 0x08, 2, 7), "dims", 8, 4)],
    ids=["magic", "dims"],
)
def test_read_idx_truncated_header(tmp_path, head, part, want, got):
    path = tmp_path / "short.idx"
    path.write_bytes(head)
    message = f"truncated IDX {part} of {path}: expected {want} bytes, got {got}"
    with pytest.raises(IdxTruncatedError, match=f"^{re.escape(message)}$"):
        read_idx(path)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    img, _ = write_mnist_fixture(tmp_path, images, np.array([1, 2], dtype=np.uint8))
    lab = tmp_path / "short.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x03")
    with pytest.raises(IdxCountMismatchError):
        load_idx(img, lab)


@pytest.mark.parametrize("extra", ["images", "labels"])
def test_load_idx_trailing_bytes_rejected(tmp_path, extra):
    # as in read_idx, a payload must end its file; the error names the file
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lab = write_mnist_fixture(tmp_path, images, np.array([0, 1], dtype=np.uint8))
    path = img if extra == "images" else lab
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 4)
    with pytest.raises(IdxFormatError, match=rf"{re.escape(str(path))}: trailing bytes"):
        load_idx(img, lab)


BIG = 2**32 - 1  # largest u32 dim: three of them overflow sys.maxsize


def test_load_idx_oversize_dims_rejected_before_read(tmp_path):
    # the declared payload is checked against the file before any read, so
    # dims whose byte count exceeds sys.maxsize end in an IdxFormatError that
    # names them
    img = tmp_path / "img.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, BIG, BIG, BIG))
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x01")
    assert BIG**3 > sys.maxsize
    with pytest.raises(IdxTruncatedError, match=rf"dims \({BIG}, {BIG}, {BIG}\) declare {BIG**3}"):
        load_idx(img, lab)


def test_load_idx_label_count_beyond_file_names_dims(tmp_path):
    # a u32 label count never exceeds sys.maxsize, so the label check is shown
    # with a small declared count
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img, _ = write_mnist_fixture(tmp_path, images, np.array([0, 1], dtype=np.uint8))
    lab = tmp_path / "long.idx"
    lab.write_bytes(struct.pack(">II", 0x00000801, 1000) + b"\x00\x01")
    with pytest.raises(IdxTruncatedError, match=r"dims \(1000,\) declare 1000 payload bytes, but only 2"):
        load_idx(img, lab)


@pytest.mark.parametrize(
    "dims,code", [((2**31, 2**31, 4), 0x08), ((BIG, BIG, 4), 0x0D), ((BIG, BIG, 4), 0x0E)]
)
def test_read_idx_oversize_dims_rejected(tmp_path, dims, code):
    # in int64 the element counts wrap, to 0 and to a negative number; the
    # byte count must be a Python int
    size = {0x08: 1, 0x0D: 4, 0x0E: 8}[code] * dims[0] * dims[1] * dims[2]
    assert size > sys.maxsize
    path = tmp_path / "big.idx"
    path.write_bytes(struct.pack(">HBB3I", 0, code, 3, *dims) + b"\x00" * 16)
    with pytest.raises(IdxFormatError, match=rf"dims \({dims[0]}, {dims[1]}, {dims[2]}\) declare {size}"):
        read_idx(path)


def test_idx_roundtrip_lossless(tmp_path, rng):
    arr = rng.standard_normal((5, 7))
    path = tmp_path / "mat.idx"
    write_idx(path, arr)
    assert np.array_equal(read_idx(path), arr)
    bytes_arr = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    write_idx(path, bytes_arr)
    assert np.array_equal(read_idx(path), bytes_arr)


def test_idx_float_codes_follow_the_format(tmp_path):
    # 0x0D is a 4-byte float and 0x0E an 8-byte double; a float64 payload
    # under 0x0D (how older kronblock versions wrote it) is twice the declared
    # size, so it fails on its trailing bytes
    path = tmp_path / "f.idx"
    path.write_bytes(struct.pack(">HBBIff", 0, 0x0D, 1, 2, 1.5, -2.0))
    got = read_idx(path)
    assert got.dtype == np.float32 and got.tolist() == [1.5, -2.0]
    path.write_bytes(struct.pack(">HBBIdd", 0, 0x0E, 1, 2, 1.5, -2.0))
    got = read_idx(path)
    assert got.dtype == np.float64 and got.tolist() == [1.5, -2.0]
    path.write_bytes(struct.pack(">HBBIdd", 0, 0x0D, 1, 2, 1.5, -2.0))
    with pytest.raises(IdxFormatError, match="trailing bytes after payload"):
        read_idx(path)


def test_idx_roundtrip_keeps_shape(tmp_path, rng):
    # a 0-d array stays 0-d, and a strided view is written in C order
    path = tmp_path / "arr.idx"
    write_idx(path, np.array(2.5))
    got = read_idx(path)
    assert got.shape == () and got == 2.5
    strided = rng.standard_normal((4, 6))[:, ::2]
    write_idx(path, strided)
    assert np.array_equal(read_idx(path), strided)


def test_read_idx_zero_dims(tmp_path):
    # a 0-d container holds one item: the full file reads as a 0-d array, and
    # a header without its item is truncated, naming its dims
    path = tmp_path / "scalar.idx"
    write_idx(path, np.array(2.5))
    assert path.read_bytes() == struct.pack(">HBBd", 0, 0x0E, 0, 2.5)  # float64, no dims
    got = read_idx(path)
    assert got.shape == () and got == 2.5
    path.write_bytes(path.read_bytes()[:4])
    with pytest.raises(IdxTruncatedError, match=r"dims \(\) declare 8 payload bytes, but only 0"):
        read_idx(path)


def test_teacher_dense_when_fraction_zero():
    _, teacher = make_teacher_dataset(4, 6, (2, 2), 0.0, 8, seed=0, classification=False)
    from kronblock.linalg import tile_norms

    assert np.all(tile_norms(teacher, 2, 2) > 0)


def test_teacher_surviving_tiles_match_reconstruction_rank():
    _, teacher = make_teacher_dataset(8, 8, (2, 2), 0.5, 4, seed=3, classification=False)
    fac = kb.reconstruct_from_blockwise(teacher, (2, 2))
    expected_live = 16 - int(round(0.5 * 16))
    assert fac.shape.r == expected_live


def test_teacher_noiseless_attained_by_teacher():
    ds, teacher = make_teacher_dataset(
        4, 6, (2, 2), 0.5, 16, noise_sigma=0.0, seed=1, classification=False
    )
    assert np.max(np.abs(ds.y - ds.x @ teacher.T)) == 0.0


def test_teacher_deterministic():
    def draw():
        return make_teacher_dataset(4, 8, (2, 2), 0.25, 10, noise_sigma=0.1, seed=9,
                                    classification=False)

    (a_ds, a_t), (b_ds, b_t) = draw(), draw()
    assert np.array_equal(a_t, b_t)
    assert np.array_equal(a_ds.x, b_ds.x)
    assert np.array_equal(a_ds.y, b_ds.y)


def test_teacher_classification_labels():
    ds, teacher = make_teacher_dataset(5, 10, (1, 2), 0.2, 32, seed=2, classification=True)
    assert ds.class_count == 5
    assert np.array_equal(ds.labels, np.argmax(ds.x @ teacher.T, axis=1))


def test_teacher_validation():
    with pytest.raises(ValueError):
        make_teacher_dataset(4, 6, (3, 2), 0.5, 8, classification=False)
    with pytest.raises(ValueError):
        make_teacher_dataset(4, 6, (2, 2), 1.0, 8, classification=False)


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


def test_dataset_validation(rng):
    with pytest.raises(ValueError):
        Dataset(rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        Dataset(rng.standard_normal((3, 2)), labels=np.array([0, 1, 5]), class_count=3)
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), labels=np.array([0]))


def test_dataset_takes_integer_labels_or_targets_not_both(rng):
    x = rng.standard_normal((3, 2))
    for labels in ([0.5, 1.7, 2.2], [0.0, 1.0, 2.0], [True, False, True]):
        with pytest.raises(ValueError, match="labels must be integers"):
            Dataset(x, labels=labels)
    with pytest.raises(ValueError, match="either labels or targets, not both"):
        Dataset(x, labels=[0, 1, 2], y=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="either labels or targets, not both"):
        Dataset(x)
    for labels in ([0, 1, 2], np.array([0, 1, 2], dtype=np.uint8)):
        assert Dataset(x, labels=labels).labels.tolist() == [0, 1, 2]


def test_dataset_rejects_non_finite_targets(rng):
    x = rng.standard_normal((3, 2))
    for bad in (np.nan, np.inf):
        y = np.zeros((3, 2))
        y[1, 0] = bad
        with pytest.raises(ValueError, match="targets must be finite"):
            Dataset(x, y=y)


# ---------------------------------------------------------------------------
# shared rows: subsets index their parent's arrays. The copy-based split,
# subset and batches below are the reference they must match bit for bit.
# ---------------------------------------------------------------------------


def copy_subset(ds, idx):
    return Dataset(
        ds.x[idx],
        None if ds.labels is None else ds.labels[idx],
        None if ds.y is None else ds.y[idx],
        ds.class_count,
    )


def copy_split(ds, test_fraction, seed):
    perm = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A))).permutation(ds.n)
    n_test = max(1, int(round(test_fraction * ds.n)))
    return copy_subset(ds, perm[n_test:]), copy_subset(ds, perm[:n_test])


def copy_batches(ds, batch_size, shuffle, seed):
    if shuffle:
        order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(ds.n)
    else:
        order = np.arange(ds.n)
    target = ds.labels if ds.labels is not None else ds.y
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.x[idx], target[idx]


def assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_same_dataset(got, want):
    assert got.n == want.n and got.class_count == want.class_count
    for name in ("x", "labels", "y"):
        assert_same_bits(getattr(got, name), getattr(want, name))


def teacher(classification):
    ds, _ = make_teacher_dataset(6, 10, (2, 2), 0.5, 57, noise_sigma=0.1, seed=3,
                                 classification=classification)
    return ds


@pytest.mark.parametrize("classification", [True, False])
def test_split_matches_copies(classification):
    ds = teacher(classification)
    for got, want in zip(train_test_split(ds, 0.3, seed=4), copy_split(ds, 0.3, 4)):
        assert_same_dataset(got, want)


def test_nested_subsets_match_copies(rng):
    ds = teacher(False)
    mask = rng.random(40) < 0.5
    mask[0] = True
    steps = [rng.permutation(ds.n)[:40], mask, np.array([-1, 0, 3, 3, 2]), slice(1, None)]
    got, want = ds, ds
    for idx in steps:
        got, want = got.subset(idx), copy_subset(want, idx)
        assert_same_dataset(got, want)
    # one index into the original arrays, however deep
    assert got._x is ds._x and got._rows.ndim == 1


@pytest.mark.parametrize("shuffle", [True, False])
@pytest.mark.parametrize("classification", [True, False])
def test_batches_of_subsets_match_copies(shuffle, classification):
    ds = teacher(classification)
    tr, _ = train_test_split(ds, 0.3, seed=4)
    ref_tr, _ = copy_split(ds, 0.3, 4)
    cases = [(ds, ds), (tr, ref_tr), (tr.subset(np.arange(30)[::-2]), copy_subset(ref_tr, np.arange(30)[::-2]))]
    for got_ds, want_ds in cases:
        got = list(batches(got_ds, 4, shuffle, seed=(7, 2)))
        want = list(copy_batches(want_ds, 4, shuffle, (7, 2)))
        assert len(got) == len(want)
        for (xg, tg), (xw, tw) in zip(got, want):
            assert_same_bits(xg, xw)
            assert_same_bits(tg, tw)


def test_subset_index_errors():
    ds = teacher(True)
    tr, _ = train_test_split(ds, 0.3, seed=4)
    with pytest.raises(IndexError):
        ds.subset(np.array([ds.n]))
    with pytest.raises(IndexError):  # in range of the parent, not of the subset
        tr.subset(np.array([tr.n]))
    for sub in (ds, tr):
        with pytest.raises(ValueError, match="non-empty"):
            sub.subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="non-empty"):
            sub.subset(slice(3, 3))


def test_gathered_rows_cached_read_only():
    for classification, name in ((True, "labels"), (False, "y")):
        sub = teacher(classification).subset(np.arange(5))
        for attr in ("x", name):
            first = getattr(sub, attr)
            assert getattr(sub, attr) is first and not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0


def test_split_allocates_no_row_copies():
    import tracemalloc

    ds = Dataset(np.zeros((4096, 784)), labels=np.arange(4096) % 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr, te = train_test_split(ds, 0.2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.n + te.n == ds.n
    assert peak - before < 2**20
