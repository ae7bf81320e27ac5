"""Dense matrix building blocks: the counted arithmetic ops, the exact batched
reshape maps the factored layers rely on, and tile utilities.

Index conventions, normative for the whole package:

* matrices are row-major ``float64``,
* the Kronecker product ``kron(a, b)`` (``np.kron``) places the
  ``m2 x n2`` tile ``a[i1, j1] * b`` at tile ``(i1, j1)`` of the product, i.e.
  ``out[i1*m2 + i2, j1*n2 + j2] = a[i1, j1] * b[i2, j2]``,
* ``fold_input``  maps ``(N, n1*n2) -> (n2, N*n1)`` with
  ``out[j2, s*n1 + j1] = x[s, j1*n2 + j2]``,
* ``fold_mid``    maps ``(m2, N*n1) -> (N*m2, n1)`` with
  ``out[s*m2 + i2, j1] = v[i2, s*n1 + j1]``,
* ``fold_output`` maps ``(N*m2, m1) -> (N, m1*m2)`` with
  ``out[s, i1*m2 + i2] = v[s*m2 + i2, i1]``,
* ``fold_tiles``  maps ``(m1*m2, n1*n2) -> (m1*n1, m2*n2)`` with
  ``out[i1*n1 + j1, i2*n2 + j2] = w[i1*m2 + i2, j1*n2 + j2]``: row
  ``(i1, j1)`` is tile ``(i1, j1)`` of ``w``, flattened row-major.

Every fold has an exact inverse (``unfold_*``); the pairs are bijections and
round-trip bit-exactly. The factored layer of :mod:`kronblock.factor` uses
``fold_tiles``/``unfold_tiles`` on its materialized path. Its fold path
copies no block: it reads the input and the output gradient through views
and multiplies per sample with ``bmatmul``, which writes its output in the
layer's ``(N, m1*m2)`` layout. ``fold_input``, ``fold_mid``, ``fold_output``
and their inverses are exported maps that training no longer calls; the
benchmark's tracer (``perfbench/spans.py``) binds all six by name, so they
stay until it stops doing so.

A tile-wise product, such as the group-LASSO scale or a prune mask of
:mod:`kronblock.train`, multiplies ``row_view(w, m2)``, the ``(m1, m2, n)``
rows of tiles, by ``tile_rows(scale, n2)``, the ``(m1, n1)`` per-tile factor
repeated over each tile's n2 columns. Its inner loops then run along whole
matrix rows, not over runs of n2 entries of ``tile_view``, and every entry
gets the same product.

The layer forward/backward, the losses and ``factor.materialize`` do every
multiply, add and subtract the cost model counts through the *counted ops*
below. An op's flops follow from its operand shapes: one per scalar
multiply, add or subtract, so a ``(p, q) @ (q, s)`` matmul costs
``p*s*(2q-1)``, a sum of squares ``2*size - 1`` and every other op
``size`` (the 0/1 relu mask is free); ``bmatmul`` costs one such matmul
per stacked matrix. Inside a ``counting()`` block each op
appends ``(op name, flops)`` to the block's list; the list lives in a
``ContextVar``, so all functions here stay safe to call from any number of
threads.
"""

from __future__ import annotations

import contextlib
import functools
from contextvars import ContextVar

import numpy as np

_TALLY: ContextVar[list | None] = ContextVar("kronblock_flop_tally", default=None)


@contextlib.contextmanager
def counting():
    """Count the counted ops run inside the block, in this thread or task:
    yields the list that receives one ``(op name, flops)`` per op call."""
    token = _TALLY.set([])
    try:
        yield _TALLY.get()
    finally:
        _TALLY.reset(token)


def _counted(flops):
    """Make an op append ``(its name, flops(*args))`` to the active tally."""

    def wrap(op):
        @functools.wraps(op)
        def counted(*args, **kwargs):
            tally = _TALLY.get()
            if tally is not None:
                tally.append((op.__name__, flops(*args, **kwargs)))
            return op(*args, **kwargs)

        return counted

    return wrap


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, validating dimensionality."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


@_counted(lambda a, b, out=None: np.size(a))
def hadamard(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise product of two arrays of one shape, or of a stack of
    matrices ``a`` with one matrix ``b`` that multiplies each of them; raises
    on any other shapes. Either way it costs one flop per entry of ``a``.
    With ``out``, a float64 array (or view) of ``a``'s shape, the product is
    written into it and ``out`` is returned."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape and not (a.ndim == 3 and a.shape[1:] == b.shape):
        raise ValueError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    if out is not None and out.shape != a.shape:
        raise ValueError(f"hadamard out shape {out.shape}, expected {a.shape}")
    return np.multiply(a, b, out=out)


@_counted(lambda a, b, out=None: a.shape[0] * b.shape[1] * (2 * a.shape[1] - 1))
def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, written into ``out`` when given."""
    return np.matmul(a, b, out=out)


@_counted(lambda a, b: b.shape[0] * a.shape[0] * b.shape[2] * (2 * a.shape[1] - 1))
def bmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b[s]`` for every ``s``: one ``(p, q)`` matrix times a stack of
    ``(q, t)`` matrices, an ``(N, p, t)`` array, at one ``(p, q) @ (q, t)``
    matmul's flops per stacked matrix."""
    return np.matmul(a, b)


@_counted(lambda a, b, out=None: a.size)
def add(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a + b``, written into ``out`` when given (``a`` to add in place)."""
    return np.add(a, b, out=out)


@_counted(lambda a, b: a.size)
def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a - b


@_counted(lambda a, c: a.size)
def scale(a: np.ndarray, c: float) -> np.ndarray:
    return c * a


@_counted(lambda a: 2 * a.size - 1)
def sq_sum(a: np.ndarray) -> float:
    return float(np.sum(a * a))


@_counted(lambda a, out=None: a.size)
def relu(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(a, 0)``; with ``out`` (``a`` itself for an in-place relu) it is
    written there and ``out`` is returned."""
    return np.maximum(a, 0.0, out=out)


@_counted(lambda g, act, out=None: g.size)
def mask_mul(g: np.ndarray, act: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``g * relu'(act)``: the gradient through a relu whose input or output
    is ``act`` (``act > 0`` is the same mask for both, NaN included). With
    ``out`` (``g`` itself to mask in place) it is written there and ``out``
    is returned."""
    return np.multiply(g, act > 0.0, out=out)


def _check_divisible(value: int, factor: int, what: str) -> None:
    if factor < 1 or value % factor != 0:
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


def _swap_runs(v: np.ndarray) -> np.ndarray:
    # (p, q, s, k) -> (p, s, q, k), C-contiguous. Each run of k contiguous
    # values moves as one k*8-byte element, so the copy's inner loop runs over
    # q runs rather than k values: much faster for narrow tiles
    p, q, s, k = v.shape
    runs = v.view(np.dtype((np.void, 8 * k)))
    return np.ascontiguousarray(runs.transpose(0, 2, 1, 3)).view(np.float64).reshape(p, s, q, k)


def fold_tiles(w: np.ndarray, m2: int, n2: int) -> np.ndarray:
    v = tile_view(as_matrix(w, "w"), m2, n2)
    m1, _, n1, _ = v.shape
    return _swap_runs(v).reshape(m1 * n1, m2 * n2)


def unfold_tiles(t: np.ndarray, n1: int, n2: int) -> np.ndarray:
    t = as_matrix(t, "tiles")
    _check_divisible(t.shape[0], n1, "unfold_tiles rows")
    _check_divisible(t.shape[1], n2, "unfold_tiles columns")
    m1, m2 = t.shape[0] // n1, t.shape[1] // n2
    return _swap_runs(t.reshape(m1, n1, m2, n2)).reshape(m1 * m2, n1 * n2)


def tile_view(w: np.ndarray, m2: int, n2: int) -> np.ndarray:
    """View a (m1*m2, n1*n2) matrix as (m1, m2, n1, n2) without copying."""
    m, n = w.shape
    _check_divisible(m, m2, "tile_view rows")
    _check_divisible(n, n2, "tile_view columns")
    return w.reshape(m // m2, m2, n // n2, n2)


def row_view(w: np.ndarray, m2: int) -> np.ndarray:
    """View a (m1*m2, n) matrix as (m1, m2, n) without copying: ``[i1]`` is
    the row of tiles i1, ``m2`` whole matrix rows."""
    m, n = w.shape
    _check_divisible(m, m2, "row_view rows")
    return w.reshape(m // m2, m2, n)


def tile_rows(scale: np.ndarray, n2: int) -> np.ndarray:
    """The (m1, n1) per-tile factor ``scale`` repeated over each tile's n2
    columns and shaped (m1, 1, n1*n2), so ``row_view(w, m2) * tile_rows(scale,
    n2)`` multiplies tile (i1, j1) of w by ``scale[i1, j1]``: the products of
    ``scale`` broadcast over ``tile_view(w, m2, n2)``, with inner loops that
    run along whole matrix rows instead of n2 entries."""
    m1, n1 = scale.shape
    return np.repeat(scale, n2, axis=1).reshape(m1, 1, n1 * n2)


def tile_norms(w: np.ndarray, m2: int, n2: int) -> np.ndarray:
    """Frobenius norm of each m2 x n2 tile, returned as an (m1, n1) array."""
    v = tile_view(as_matrix(w, "w"), m2, n2)
    return np.sqrt(np.einsum("abcd,abcd->ac", v, v))
