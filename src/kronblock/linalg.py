"""Dense matrix building blocks: Kronecker and Hadamard products, the exact
batched reshape maps the factored layers rely on, and tile utilities.

Index conventions, normative for the whole package:

* matrices are row-major ``float64``,
* ``kron(a, b)`` places the ``m2 x n2`` tile ``a[i1, j1] * b`` at tile
  ``(i1, j1)`` of the product, i.e.
  ``out[i1*m2 + i2, j1*n2 + j2] = a[i1, j1] * b[i2, j2]``,
* ``fold_input``  maps ``(N, n1*n2) -> (n2, N*n1)`` with
  ``out[j2, s*n1 + j1] = x[s, j1*n2 + j2]``,
* ``fold_mid``    maps ``(m2, N*n1) -> (N*m2, n1)`` with
  ``out[s*m2 + i2, j1] = v[i2, s*n1 + j1]``,
* ``fold_output`` maps ``(N*m2, m1) -> (N, m1*m2)`` with
  ``out[s, i1*m2 + i2] = v[s*m2 + i2, i1]``.

Every fold has an exact inverse (``unfold_*``); the pairs are bijections and
round-trip bit-exactly. All functions here are pure and safe to call from any
number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, validating dimensionality."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with the tile convention documented above."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    return np.kron(a, b)


def hadamard(a, b) -> np.ndarray:
    """Element-wise product; raises on shape mismatch."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def _check_divisible(value: int, factor: int, what: str) -> None:
    if value % factor != 0:
        raise ValueError(f"{what}: {value} is not divisible by {factor}")


def fold_input(x: np.ndarray, n1: int, n2: int) -> np.ndarray:
    x = as_matrix(x, "x")
    if x.shape[1] != n1 * n2:
        raise ValueError(f"fold_input: expected {n1 * n2} columns, got {x.shape[1]}")
    nbatch = x.shape[0]
    return np.ascontiguousarray(
        x.reshape(nbatch, n1, n2).transpose(2, 0, 1).reshape(n2, nbatch * n1)
    )


def unfold_input(xf: np.ndarray, n1: int) -> np.ndarray:
    xf = as_matrix(xf, "xf")
    _check_divisible(xf.shape[1], n1, "unfold_input columns")
    n2 = xf.shape[0]
    nbatch = xf.shape[1] // n1
    return np.ascontiguousarray(
        xf.reshape(n2, nbatch, n1).transpose(1, 2, 0).reshape(nbatch, n1 * n2)
    )


def fold_mid(v: np.ndarray, n1: int) -> np.ndarray:
    v = as_matrix(v, "mid")
    _check_divisible(v.shape[1], n1, "fold_mid columns")
    m2 = v.shape[0]
    nbatch = v.shape[1] // n1
    return np.ascontiguousarray(
        v.reshape(m2, nbatch, n1).transpose(1, 0, 2).reshape(nbatch * m2, n1)
    )


def unfold_mid(v: np.ndarray, m2: int) -> np.ndarray:
    v = as_matrix(v, "mid")
    _check_divisible(v.shape[0], m2, "unfold_mid rows")
    nbatch = v.shape[0] // m2
    n1 = v.shape[1]
    return np.ascontiguousarray(
        v.reshape(nbatch, m2, n1).transpose(1, 0, 2).reshape(m2, nbatch * n1)
    )


def fold_output(v: np.ndarray, m2: int) -> np.ndarray:
    v = as_matrix(v, "out")
    _check_divisible(v.shape[0], m2, "fold_output rows")
    nbatch = v.shape[0] // m2
    m1 = v.shape[1]
    return np.ascontiguousarray(
        v.reshape(nbatch, m2, m1).transpose(0, 2, 1).reshape(nbatch, m1 * m2)
    )


def unfold_output(o: np.ndarray, m2: int) -> np.ndarray:
    o = as_matrix(o, "out")
    _check_divisible(o.shape[1], m2, "unfold_output columns")
    nbatch = o.shape[0]
    m1 = o.shape[1] // m2
    return np.ascontiguousarray(
        o.reshape(nbatch, m1, m2).transpose(0, 2, 1).reshape(nbatch * m2, m1)
    )


@dataclass(frozen=True)
class BlockIndexMaps:
    """The reshape maps for one factored layer, bound to fixed dimensions.

    ``n1, n2`` factor the layer input dimension, ``m1, m2`` the output
    dimension, ``batch`` is the sample count N.
    """

    n1: int
    n2: int
    m1: int
    m2: int
    batch: int

    def __post_init__(self):
        for field in ("n1", "n2", "m1", "m2", "batch"):
            if getattr(self, field) < 1:
                raise ValueError(f"BlockIndexMaps.{field} must be positive")

    def fold_input(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x, "x")
        if x.shape != (self.batch, self.n1 * self.n2):
            raise ValueError(f"expected {(self.batch, self.n1 * self.n2)}, got {x.shape}")
        return fold_input(x, self.n1, self.n2)

    def unfold_input(self, xf: np.ndarray) -> np.ndarray:
        xf = as_matrix(xf, "xf")
        if xf.shape != (self.n2, self.batch * self.n1):
            raise ValueError(f"expected {(self.n2, self.batch * self.n1)}, got {xf.shape}")
        return unfold_input(xf, self.n1)

    def fold_mid(self, v: np.ndarray) -> np.ndarray:
        v = as_matrix(v, "mid")
        if v.shape != (self.m2, self.batch * self.n1):
            raise ValueError(f"expected {(self.m2, self.batch * self.n1)}, got {v.shape}")
        return fold_mid(v, self.n1)

    def unfold_mid(self, v: np.ndarray) -> np.ndarray:
        v = as_matrix(v, "mid")
        if v.shape != (self.batch * self.m2, self.n1):
            raise ValueError(f"expected {(self.batch * self.m2, self.n1)}, got {v.shape}")
        return unfold_mid(v, self.m2)

    def fold_output(self, v: np.ndarray) -> np.ndarray:
        v = as_matrix(v, "out")
        if v.shape != (self.batch * self.m2, self.m1):
            raise ValueError(f"expected {(self.batch * self.m2, self.m1)}, got {v.shape}")
        return fold_output(v, self.m2)

    def unfold_output(self, o: np.ndarray) -> np.ndarray:
        o = as_matrix(o, "out")
        if o.shape != (self.batch, self.m1 * self.m2):
            raise ValueError(f"expected {(self.batch, self.m1 * self.m2)}, got {o.shape}")
        return unfold_output(o, self.m2)


def extract_block(w: np.ndarray, shape: tuple[int, int, int, int], i1: int, j1: int) -> np.ndarray:
    """Copy the (i1, j1) tile of a matrix partitioned into m2 x n2 blocks."""
    w = as_matrix(w, "w")
    m1, n1, m2, n2 = shape
    if w.shape != (m1 * m2, n1 * n2):
        raise ValueError(f"extract_block: matrix {w.shape} incompatible with {shape}")
    if not (0 <= i1 < m1 and 0 <= j1 < n1):
        raise IndexError(f"tile index ({i1}, {j1}) out of range for {m1}x{n1} tiles")
    return w[i1 * m2 : (i1 + 1) * m2, j1 * n2 : (j1 + 1) * n2].copy()


def tile_view(w: np.ndarray, m2: int, n2: int) -> np.ndarray:
    """View a (m1*m2, n1*n2) matrix as (m1, m2, n1, n2) without copying."""
    m, n = w.shape
    _check_divisible(m, m2, "tile_view rows")
    _check_divisible(n, n2, "tile_view columns")
    return w.reshape(m // m2, m2, n // n2, n2)


def tile_norms(w: np.ndarray, m2: int, n2: int) -> np.ndarray:
    """Frobenius norm of each m2 x n2 tile, returned as an (m1, n1) array."""
    v = tile_view(as_matrix(w, "w"), m2, n2)
    return np.sqrt(np.einsum("abcd,abcd->ac", v, v))
