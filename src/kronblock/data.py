"""Dataset ingestion and generation: IDX containers (the MNIST binary format),
the synthetic block-sparse teacher generator, splits, and deterministic
mini-batch iteration.

IDX files are big-endian: 2 zero bytes, a dtype code (0x08 unsigned byte,
0x0C int32, 0x0D float32, 0x0E float64, as LeCun's MNIST page defines them),
the number of dimensions, then one u32 per dimension and the payload. MNIST
images use magic 0x00000803 (ubyte, 3-D), labels 0x00000801 (ubyte, 1-D).
``write_idx`` writes float64 arrays in the float64 container, so round trips
are lossless.

A subset (``Dataset.subset``, ``train_test_split``, the CLI's MNIST
``limit``) shares the validated arrays of the dataset it came from and holds
only a row index into them; indices compose, so a subset of a subset is one
index into the original arrays. ``batches`` gathers each batch straight from
the shared arrays. ``x``, ``labels`` and ``y`` of a subset are gathered once,
on first use, and kept read-only. Sharing keeps the parent's arrays alive:
with MNIST ``limit``, the full training array stays in memory for the whole
run, so the peak is lower than with a copy but the steady state is the full
array.
"""

from __future__ import annotations

import copy
import math
import os
import struct

import numpy as np

from .factor import check_payload, tiled_shape

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

DATA_DIR_ENV = "KRONBLOCK_DATA_DIR"

_IDX_DTYPES = {
    0x08: np.dtype(">u1"), 0x0C: np.dtype(">i4"), 0x0D: np.dtype(">f4"), 0x0E: np.dtype(">f8")
}
_IDX_CODES = {np.dtype(np.uint8): 0x08, np.dtype(np.float64): 0x0E}


class IdxFormatError(ValueError):
    """Malformed IDX file."""


class IdxBadMagicError(IdxFormatError):
    """Magic number does not match the expected container type."""


class IdxTruncatedError(IdxFormatError):
    """File ended before the declared payload."""


class IdxCountMismatchError(IdxFormatError):
    """Image and label files declare different item counts."""


class Dataset:
    """Feature matrix plus either integer class labels or regression targets.

    The constructor validates its arrays (without copying ones that are
    already contiguous of the right dtype). A subset shares them and keeps a
    row index (``_rows``; None for all rows), so it is not checked again: its
    rows come from arrays that already passed the checks. Writes to the
    shared arrays show in the batches of every subset.
    """

    def __init__(self, x, labels=None, y=None, class_count=None):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if labels is None and y is None:
            raise ValueError("dataset needs labels or targets")
        if labels is not None:
            labels = np.ascontiguousarray(labels, dtype=np.int64)
            if labels.shape != (x.shape[0],):
                raise ValueError("labels must be one integer per row")
            if class_count is None:
                class_count = int(labels.max()) + 1
            if labels.min() < 0 or labels.max() >= class_count:
                raise ValueError("labels out of range")
        if y is not None:
            y = np.ascontiguousarray(y, dtype=np.float64)
            if y.ndim != 2 or y.shape[0] != x.shape[0]:
                raise ValueError("targets must be 2-D with one row per sample")
            if not np.all(np.isfinite(y)):
                raise ValueError("targets must be finite")
        self._x, self._labels, self._y = x, labels, y
        self.class_count = class_count
        self._rows = None
        self._gathered = {}

    def _gather(self, name: str) -> np.ndarray | None:
        """The shared array ``name`` at this dataset's rows, gathered on
        first use and cached read-only."""
        shared = getattr(self, name)
        if self._rows is None or shared is None:
            return shared
        if name not in self._gathered:
            gathered = shared[self._rows]
            gathered.flags.writeable = False
            self._gathered[name] = gathered
        return self._gathered[name]

    @property
    def x(self) -> np.ndarray:
        return self._gather("_x")

    @property
    def labels(self) -> np.ndarray | None:
        return self._gather("_labels")

    @property
    def y(self) -> np.ndarray | None:
        return self._gather("_y")

    @property
    def width(self) -> int:
        """Features per row."""
        return self._x.shape[1]

    @property
    def n(self) -> int:
        return self._x.shape[0] if self._rows is None else self._rows.shape[0]

    def subset(self, idx) -> "Dataset":
        """The rows ``idx`` (any numpy index of one axis) as a dataset that
        shares this one's arrays. Out-of-range rows raise IndexError, an
        empty or non-1-D selection ValueError."""
        rows = (np.arange(self.n) if self._rows is None else self._rows)[idx]
        if rows.ndim != 1 or rows.shape[0] < 1:
            raise ValueError(f"row selection must be a non-empty 1-D index, got {rows.shape}")
        sub = copy.copy(self)
        sub._rows, sub._gathered = rows, {}
        return sub


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
        size = dtype.itemsize * math.prod(dims)
        raw = _read_payload(fh, size, dims, path)
    return np.frombuffer(raw, dtype=dtype).reshape(dims).astype(dtype.newbyteorder("="))


def write_idx(path, arr: np.ndarray) -> None:
    """Write a uint8 or float64 array as an IDX container."""
    # not ascontiguousarray, which turns a 0-d array into a 1-d one
    arr = np.asarray(arr, order="C")
    if arr.dtype not in _IDX_CODES:
        raise ValueError(f"unsupported IDX dtype {arr.dtype}")
    code = _IDX_CODES[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(struct.pack(">HBB", 0, code, arr.ndim))
        fh.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        fh.write(arr.astype(_IDX_DTYPES[code]).tobytes())


def _read_mnist_idx(path, magic: int) -> np.ndarray:
    """The array of IDX file ``path`` (``read_idx``), whose magic must be
    ``magic``: unsigned bytes in as many dimensions as its low byte says."""
    arr = read_idx(path)
    if arr.dtype != np.uint8 or arr.ndim != magic & 0xFF:
        raise IdxBadMagicError(
            f"{path}: holds {arr.ndim}-D {arr.dtype}, expected magic {magic:#010x}"
        )
    return arr


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style image/label pair.

    Reads both files with ``read_idx`` and checks their magic numbers
    (0x00000803: 3-D unsigned bytes; 0x00000801: 1-D unsigned bytes) and that
    there is one label per image; flattens each image row-major and scales
    pixels to [0, 1] by /255.
    """
    images = _read_mnist_idx(images_path, IDX_IMAGE_MAGIC)
    labels = _read_mnist_idx(labels_path, IDX_LABEL_MAGIC)
    count, rows, cols = images.shape
    if labels.shape[0] != count:
        raise IdxCountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {labels.shape[0]} labels"
        )
    x = images.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(x, labels=labels.astype(np.int64))


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
    *,
    classification: bool,
) -> tuple[Dataset, np.ndarray]:
    """Draw a dense m x n teacher, zero a random fraction of its m2 x n2 tiles,
    and sample X ~ N(0, 1) with Y = X W*^T + noise. The classification variant
    labels each row with the argmax of the noiseless logits. Deterministic
    under the seed. ``classification`` has its one default in the config."""
    shape = tiled_shape(m, n, block)
    if not 0.0 <= zero_tile_fraction < 1.0:
        raise ValueError("zero_tile_fraction must be in [0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    teacher = rng.standard_normal((m, n))
    m1, n1, m2, n2 = shape.m1, shape.n1, shape.m2, shape.n2
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
    # gather from the shared arrays: a subset's batch rows are its index at
    # the permuted positions
    rows = order if ds._rows is None else ds._rows[order]
    x, target = ds._x, ds._labels if ds._labels is not None else ds._y
    for start in range(0, ds.n, batch_size):
        idx = rows[start : start + batch_size]
        yield x[idx], target[idx]
