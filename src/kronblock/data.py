"""Dataset ingestion and generation: IDX containers (the MNIST binary format),
the synthetic block-sparse teacher generator, splits, and deterministic
mini-batch iteration.

IDX files are big-endian: 2 zero bytes, a dtype code (0x08 unsigned byte,
0x0D float64), the number of dimensions, then one u32 per dimension and the
payload. MNIST images use magic 0x00000803 (ubyte, 3-D), labels 0x00000801
(ubyte, 1-D). ``write_idx`` writes float64 arrays in the float64 container,
so round trips are lossless.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .factor import check_payload

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

DATA_DIR_ENV = "KRONBLOCK_DATA_DIR"

_IDX_DTYPES = {0x08: np.dtype(">u1"), 0x0C: np.dtype(">i4"), 0x0D: np.dtype(">f8")}
_IDX_CODES = {np.dtype(np.uint8): 0x08, np.dtype(np.float64): 0x0D}


class IdxFormatError(ValueError):
    """Malformed IDX file."""


class IdxBadMagicError(IdxFormatError):
    """Magic number does not match the expected container type."""


class IdxTruncatedError(IdxFormatError):
    """File ended before the declared payload."""


class IdxCountMismatchError(IdxFormatError):
    """Image and label files declare different item counts."""


@dataclass
class Dataset:
    """Feature matrix plus either integer class labels or regression targets."""

    x: np.ndarray
    labels: np.ndarray | None = None
    y: np.ndarray | None = None
    class_count: int | None = None

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("features must be finite")
        if self.labels is None and self.y is None:
            raise ValueError("dataset needs labels or targets")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.x.shape[0],):
                raise ValueError("labels must be one integer per row")
            if self.class_count is None:
                self.class_count = int(self.labels.max()) + 1
            if self.labels.min() < 0 or self.labels.max() >= self.class_count:
                raise ValueError("labels out of range")
        if self.y is not None:
            self.y = np.ascontiguousarray(self.y, dtype=np.float64)
            if self.y.ndim != 2 or self.y.shape[0] != self.x.shape[0]:
                raise ValueError("targets must be 2-D with one row per sample")
            if not np.all(np.isfinite(self.y)):
                raise ValueError("targets must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def target(self) -> np.ndarray:
        return self.labels if self.labels is not None else self.y

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            self.x[idx],
            None if self.labels is None else self.labels[idx],
            None if self.y is None else self.y[idx],
            self.class_count,
        )


# ---------------------------------------------------------------------------
# IDX containers
# ---------------------------------------------------------------------------


def _read_exact(fh, count: int, path) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise IdxTruncatedError(f"{path}: truncated (wanted {count} bytes, got {len(raw)})")
    return raw


def _read_payload(fh, size: int, dims: tuple, path) -> bytes:
    """The ``size``-byte payload that ``dims`` declare, which must end the file."""
    check_payload(fh, size, f"{path}: dims {dims}", IdxTruncatedError)
    raw = _read_exact(fh, size, path)
    if fh.read(1):
        raise IdxFormatError(f"{path}: trailing bytes after payload")
    return raw


def read_idx(path) -> np.ndarray:
    """Read any supported IDX container into a numpy array."""
    with open(path, "rb") as fh:
        zeros, dtype_code, ndim = struct.unpack(">HBB", _read_exact(fh, 4, path))
        if zeros != 0 or dtype_code not in _IDX_DTYPES:
            raise IdxBadMagicError(f"{path}: bad magic {(zeros, dtype_code, ndim)}")
        dims = struct.unpack(f">{ndim}I", _read_exact(fh, 4 * ndim, path))
        dtype = _IDX_DTYPES[dtype_code]
        size = dtype.itemsize * math.prod(dims) if dims else 0
        raw = _read_payload(fh, size, dims, path)
    return np.frombuffer(raw, dtype=dtype).reshape(dims).astype(dtype.newbyteorder("="))


def write_idx(path, arr: np.ndarray) -> None:
    """Write a uint8 or float64 array as an IDX container."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _IDX_CODES:
        raise ValueError(f"unsupported IDX dtype {arr.dtype}")
    code = _IDX_CODES[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(struct.pack(">HBB", 0, code, arr.ndim))
        fh.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        fh.write(arr.astype(_IDX_DTYPES[code]).tobytes())


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style image/label pair.

    Checks the magic numbers (0x00000803 / 0x00000801) and that each payload
    ends its file, flattens each image row-major and scales pixels to [0, 1]
    by /255.
    """
    with open(images_path, "rb") as fh:
        magic = struct.unpack(">I", _read_exact(fh, 4, images_path))[0]
        if magic != IDX_IMAGE_MAGIC:
            raise IdxBadMagicError(
                f"{images_path}: bad magic {magic:#010x}, expected {IDX_IMAGE_MAGIC:#010x}"
            )
        count, rows, cols = struct.unpack(">3I", _read_exact(fh, 12, images_path))
        raw = _read_payload(fh, count * rows * cols, (count, rows, cols), images_path)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as fh:
        magic = struct.unpack(">I", _read_exact(fh, 4, labels_path))[0]
        if magic != IDX_LABEL_MAGIC:
            raise IdxBadMagicError(
                f"{labels_path}: bad magic {magic:#010x}, expected {IDX_LABEL_MAGIC:#010x}"
            )
        label_count = struct.unpack(">I", _read_exact(fh, 4, labels_path))[0]
        label_raw = _read_payload(fh, label_count, (label_count,), labels_path)
    if label_count != count:
        raise IdxCountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {label_count} labels"
        )
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return Dataset(images.astype(np.float64) / 255.0, labels=labels)


def default_data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV, os.path.join(os.getcwd(), "data"))


def find_mnist(data_dir=None) -> dict | None:
    """Locate the four standard MNIST files; None when any is missing."""
    root = data_dir or default_data_dir()
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "test_images": "t10k-images-idx3-ubyte",
        "test_labels": "t10k-labels-idx1-ubyte",
    }
    paths = {key: os.path.join(root, name) for key, name in names.items()}
    if all(os.path.exists(p) for p in paths.values()):
        return paths
    return None


# ---------------------------------------------------------------------------
# synthetic block-sparse teacher
# ---------------------------------------------------------------------------


def make_teacher_dataset(
    m: int,
    n: int,
    block: tuple[int, int],
    zero_tile_fraction: float,
    n_samples: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    classification: bool = False,
) -> tuple[Dataset, np.ndarray]:
    """Draw a dense m x n teacher, zero a random fraction of its m2 x n2 tiles,
    and sample X ~ N(0, 1) with Y = X W*^T + noise. The classification variant
    labels each row with the argmax of the noiseless logits. Deterministic
    under the seed."""
    m2, n2 = block
    if m % m2 != 0 or n % n2 != 0:
        raise ValueError(f"block {block} does not divide {m}x{n}")
    if not 0.0 <= zero_tile_fraction < 1.0:
        raise ValueError("zero_tile_fraction must be in [0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    teacher = rng.standard_normal((m, n))
    m1, n1 = m // m2, n // n2
    n_tiles = m1 * n1
    n_zero = int(round(zero_tile_fraction * n_tiles))
    zero_idx = rng.choice(n_tiles, size=n_zero, replace=False)
    tiles = teacher.reshape(m1, m2, n1, n2)
    for flat in zero_idx:
        tiles[flat // n1, :, flat % n1, :] = 0.0
    x = rng.standard_normal((n_samples, n))
    logits = x @ teacher.T
    noise = noise_sigma * rng.standard_normal((n_samples, m))
    if classification:
        ds = Dataset(x, labels=np.argmax(logits, axis=1), class_count=m)
    else:
        ds = Dataset(x, y=logits + noise)
    return ds, teacher


def train_test_split(ds: Dataset, test_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDA7A)))
    perm = rng.permutation(ds.n)
    n_test = max(1, int(round(test_fraction * ds.n)))
    if n_test >= ds.n:
        raise ValueError("test fraction leaves no training data")
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


def batches(ds: Dataset, batch_size: int, shuffle: bool = True, seed=0):
    """Yield (X_b, target_b) mini-batches; the last partial batch is included.

    The order is a deterministic permutation of the dataset drawn from the
    seed (callers pass (base_seed, epoch) to reshuffle per epoch)."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if shuffle:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        order = rng.permutation(ds.n)
    else:
        order = np.arange(ds.n)
    target = ds.target
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.x[idx], target[idx]
