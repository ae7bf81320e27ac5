"""The masked Kronecker-factored layer.

A layer's weight is represented as ``sum_i kron(S * A_i, B_i)`` where the
mask ``S`` and the ``A_i`` are ``m1 x n1``, the ``B_i`` are ``m2 x n2``, and
entry ``S[i1, j1]`` gates exactly tile ``(i1, j1)`` of the materialized
``m x n`` weight. The factors are stored stacked: ``A`` is one ``(r, m1, n1)``
array and ``B`` one ``(r, m2, n2)`` array, and S, A and B are views into one
flat buffer per layer. The backward returns the gradient as one buffer in the
same layout (``views`` gives its dS, dA and dB, written in place), so one
momentum-SGD update steps a whole layer. Every product ``S * A_i`` comes from
one broadcast product over the stack. A layer trains on one of two paths, which
``flops.train_path`` picks from its shape and batch size:

* the *fold* path (``forward``, ``backward``, ``backward_params``) never
  builds the weight. It stacks the r rank terms, so the forward is two
  GEMMs whatever r is: ``[B_1; ...; B_r] @ X.reshape(N*n1, n2).T`` (a view
  of X, never a folded copy), one block transpose to the stacked mids, their
  product with ``[S*A_1 ... S*A_r].T`` over ``K = r*n1``, and
  ``fold_output``. The backward reuses the cached input, stacked mids and
  stacked ``S*A_i`` in three GEMMs, four with the input gradient;
* the *materialized* path builds the weight with ``build_weight`` and
  trains as the dense layer on it (``network.layer_forward`` and
  ``network.layer_backward``); ``weight_gradient`` then projects that dense
  layer's ``dW = dO.T X`` onto S, the A_i and the B_i.

``backward_params`` is ``backward`` without the input gradient, which
training skips for the first layer of a network. Inference
(``network.net_predict``) runs the same ``network.layer_forward`` on the path
``flops.train_path`` picks without the input gradient. Every multiply, add
and subtract runs through the counted ops of :mod:`kronblock.linalg`, so
``flops.instrumented_count`` counts this code.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    add,
    as_matrix,
    fold_output,
    fold_tiles,
    hadamard,
    matmul,
    tile_view,
    unfold_output,
    unfold_tiles,
)

_FACTOR_MAGIC = b"KBF1"


@dataclass(frozen=True)
class KronShape:
    """Factorization pattern (m1, n1, m2, n2, r) for an m x n layer.

    ``m = m1*m2`` rows, ``n = n1*n2`` columns, ``r`` summed Kronecker terms.
    ``full_rank`` is the ceiling min(m1*n1, m2*n2) beyond which extra terms
    add no expressive power (the constructive block-wise decomposition may
    still legitimately use r up to the tile count, so r is not capped here).
    """

    m1: int
    n1: int
    m2: int
    n2: int
    r: int = 1

    def __post_init__(self):
        for name in ("m1", "n1", "m2", "n2", "r"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"KronShape.{name} must be a positive integer, got {v!r}")

    @property
    def m(self) -> int:
        return self.m1 * self.m2

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    @property
    def full_rank(self) -> int:
        return min(self.m1 * self.n1, self.m2 * self.n2)

    @property
    def block(self) -> tuple[int, int]:
        return (self.m2, self.n2)


def tiled_shape(m: int, n: int, block: tuple[int, int], r: int = 1) -> KronShape:
    """The shape of ``r`` terms whose ``block`` (m2, n2) tiles an m x n
    matrix; a ValueError unless the tiles fit it exactly."""
    m2, n2 = block
    if m % m2 != 0 or n % n2 != 0:
        raise ValueError(f"({m2},{n2}) does not divide {m}x{n}")
    return KronShape(m // m2, n // n2, m2, n2, r)


def count_params(shape: KronShape) -> int:
    """Trainable parameter count: one S plus r pairs (A_i, B_i)."""
    s = shape.m1 * shape.n1
    return s + shape.r * (s + shape.m2 * shape.n2)


def views(shape: KronShape, flat: np.ndarray) -> tuple:
    """The S (m1, n1), A (r, m1, n1) and B (r, m2, n2) views of ``flat``, a
    buffer laid out as ``KronFactor.flat``: a factor's parameters, or their
    gradient as the backward returns it (dS, dA and dB)."""
    m1, n1, m2, n2, r = shape.m1, shape.n1, shape.m2, shape.n2, shape.r
    i, j = m1 * n1, (1 + r) * m1 * n1
    return flat[:i].reshape(m1, n1), flat[i:j].reshape(r, m1, n1), flat[j:].reshape(r, m2, n2)


def _pack(shape: KronShape, s: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """``s``, ``a`` and ``b`` copied into one fresh buffer, and their views of it."""
    flat = np.concatenate((s.ravel(), a.ravel(), b.ravel()))
    return (flat, *views(shape, flat))


@dataclass
class KronFactor:
    """Trainable state of one factored layer: the mask S (m1 x n1) and the
    stacked factors A (r, m1, n1) and B (r, m2, n2), so ``a[i]`` is A_i and
    ``for a_i in a`` walks the rank terms.

    S, A and B are views into ``flat``, one contiguous float64 buffer holding
    S, A_1..A_r, B_1..B_r in the order of the ``.kbf`` payload; an update of
    ``flat`` steps every parameter of the layer. The constructor takes the A_i
    and B_i as lists or stacked arrays and copies everything into a fresh
    buffer.
    """

    shape: KronShape
    s: np.ndarray
    a: np.ndarray
    b: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sh = self.shape
        s = as_matrix(self.s, "S")
        a = [as_matrix(x, "A_i") for x in self.a]
        b = [as_matrix(x, "B_i") for x in self.b]
        if s.shape != (sh.m1, sh.n1):
            raise ValueError(f"S must be {sh.m1}x{sh.n1}, got {s.shape}")
        if len(a) != sh.r or len(b) != sh.r:
            raise ValueError(f"need {sh.r} A and B factors, got {len(a)}/{len(b)}")
        for x in a:
            if x.shape != (sh.m1, sh.n1):
                raise ValueError(f"A_i must be {sh.m1}x{sh.n1}, got {x.shape}")
        for x in b:
            if x.shape != (sh.m2, sh.n2):
                raise ValueError(f"B_i must be {sh.m2}x{sh.n2}, got {x.shape}")
        self.flat, self.s, self.a, self.b = _pack(sh, s, np.asarray(a), np.asarray(b))

    def copy(self) -> "KronFactor":
        return KronFactor(self.shape, self.s, self.a, self.b)


def random_factor(shape: KronShape, rng: np.random.Generator) -> KronFactor:
    """Fresh trainable factor: S all-ones (mask fully open), A_i and B_i
    uniform(-c, c) with c = sqrt(6/(n+m)) * (m1*n1*r)**-0.25. The weight then
    has Var(W) = 4/((m+n)**2 * m1*n1) at any r: the Glorot variance 2/(m+n)
    times 2/((m+n)*m1*n1), so its std is about 1.1e-3 of the Glorot std at
    (5,392,2,2) and 4.9e-4 at (64,64,16,16)."""
    c = np.sqrt(6.0 / (shape.n + shape.m)) * (shape.m1 * shape.n1 * shape.r) ** -0.25
    a = rng.uniform(-c, c, size=(shape.r, shape.m1, shape.n1))
    b = rng.uniform(-c, c, size=(shape.r, shape.m2, shape.n2))
    return KronFactor(shape, np.ones((shape.m1, shape.n1)), a, b)


def build_weight(factor: KronFactor) -> tuple[np.ndarray, np.ndarray]:
    """The dense m x n weight W and the ``(m1*n1, r)`` stacked S * A_i that
    ``weight_gradient`` reuses, whose column i is S * A_i flattened."""
    # the products go straight into the C-contiguous operand, through its
    # transposed (r, m1, n1) view: the GEMM's bits depend on that layout. The
    # GEMM with the (r, m2*n2) B_i rows then puts tile (i1, j1) of W,
    # sum_i (S*A_i)[i1, j1] * B_i, in row i1*n1 + j1
    sh = factor.shape
    masked_a = np.empty((sh.m1 * sh.n1, sh.r))
    hadamard(factor.a, factor.s, masked_a.T.reshape(factor.a.shape))
    tiles = matmul(masked_a, factor.b.reshape(sh.r, -1))
    return unfold_tiles(tiles, sh.n1, sh.n2), masked_a


def materialize(factor: KronFactor) -> np.ndarray:
    """Expand to the dense m x n weight sum_i kron(S * A_i, B_i): the r
    products S * A_i in one broadcast product, written straight into the
    ``(m1*n1, r)`` S * A_i columns, then one GEMM of those columns with the
    ``(r, m2*n2)`` B_i rows, then one tile transpose: ``r*m1*n1 +
    m*n*(2r-1)`` flops, the ``mask_products`` and ``weight_build`` pieces of
    the materialized path's forward in :mod:`kronblock.flops`."""
    return build_weight(factor)[0]


def _layer_input(factor: KronFactor, x) -> np.ndarray:
    x = as_matrix(x, "x")
    if x.shape[1] != factor.shape.n:
        raise ValueError(f"input has {x.shape[1]} features, layer expects {factor.shape.n}")
    return x


def _output_grad(factor: KronFactor, batch: int, d_out) -> np.ndarray:
    d_out = as_matrix(d_out, "d_out")
    if d_out.shape != (batch, factor.shape.m):
        raise ValueError(f"d_out must be {(batch, factor.shape.m)}, got {d_out.shape}")
    return d_out


def _swap_blocks(v: np.ndarray, m2: int, n1: int) -> np.ndarray:
    # (p*m2, q*n1) -> (q*m2, p*n1): row (a, i2) column (b, j1) moves to row
    # (b, i2) column (a, j1), one copy in runs of n1. With (p, q) = (r, N) it
    # turns [B_i] @ X.T into the stacked mids, with (N, r) back
    p, q = v.shape[0] // m2, v.shape[1] // n1
    return np.ascontiguousarray(
        v.reshape(p, m2, q, n1).transpose(2, 1, 0, 3)
    ).reshape(q * m2, p * n1)


@dataclass
class KronForwardCache:
    """Forward intermediates the backward pass reuses (never recomputed): the
    layer input X itself (not a copy), the ``(N*m2, r*n1)`` stacked mids,
    whose column block i is mid_i, and the ``(m1, r*n1)`` stacked
    [S*A_1 ... S*A_r]."""

    batch: int
    x: np.ndarray
    mids: np.ndarray
    masked_a: np.ndarray


def forward(factor: KronFactor, x: np.ndarray) -> tuple[np.ndarray, KronForwardCache]:
    """Efficient forward pass: O = X @ materialize(factor).T without
    materializing the weight, in two GEMMs over all r terms at once:
      Y = [B_1; ...; B_r] @ X.reshape(N*n1, n2).T     (r*m2, N*n1)
      M = swap(Y)                                      (N*m2, r*n1)
      O = fold_output(M @ [S*A_1 ... S*A_r].T)
    Returns (O, cache)."""
    sh = factor.shape
    x = _layer_input(factor, x)
    nb = x.shape[0]
    y = matmul(factor.b.reshape(sh.r * sh.m2, sh.n2), x.reshape(nb * sh.n1, sh.n2).T)
    mids = _swap_blocks(y, sh.m2, sh.n1)
    del y  # the output GEMM can reuse its memory
    masked_a = hadamard(factor.a, factor.s).transpose(1, 0, 2).reshape(sh.m1, sh.r * sh.n1)
    out = fold_output(matmul(mids, masked_a.T), sh.m2)
    return out, KronForwardCache(nb, x, mids, masked_a)


def _mask_gradients(factor: KronFactor, g: np.ndarray, d_s: np.ndarray, d_a: np.ndarray):
    # g: (r, m1, n1), G_i the gradient w.r.t. S * A_i, made contiguous for
    # the two products (a copy on the fold path only). The G_i * A_i go into
    # dA's view, dS sums them in rank order, and then dA_i = G_i * S
    # overwrites them; each is one broadcast product
    g = np.ascontiguousarray(g)
    hadamard(g, factor.a, out=d_a)
    d_s[:] = d_a[0]
    for term in d_a[1:]:
        add(d_s, term, out=d_s)
    hadamard(g, factor.s, out=d_a)


def _backward(
    factor: KronFactor, cache: KronForwardCache, d_out: np.ndarray, with_dx: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    sh = factor.shape
    nb = cache.batch
    d_out = _output_grad(factor, nb, d_out)
    if cache.mids.shape[1] != sh.r * sh.n1:
        raise ValueError("cache does not match factor rank")
    d_of = unfold_output(d_out, sh.m2)
    g = matmul(d_of.T, cache.mids)
    d_mid = _swap_blocks(matmul(d_of, cache.masked_a), sh.m2, sh.n1)
    grad = np.empty(count_params(sh))
    d_s, d_a, d_b = views(sh, grad)
    matmul(d_mid, cache.x.reshape(nb * sh.n1, sh.n2), out=d_b.reshape(sh.r * sh.m2, sh.n2))
    d_x = None
    if with_dx:
        d_x = matmul(d_mid.T, factor.b.reshape(sh.r * sh.m2, sh.n2)).reshape(nb, sh.n)
    _mask_gradients(factor, g.reshape(sh.m1, sh.r, sh.n1).transpose(1, 0, 2), d_s, d_a)
    return grad, d_x


def backward(
    factor: KronFactor, cache: KronForwardCache, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact closed-form backward pass: ``(grad, d_x)``, the parameter
    gradient as one fresh buffer laid out as ``factor.flat`` (``views`` gives
    its dS, dA and dB) and the input gradient.

    ``d_out`` is the loss gradient w.r.t. the layer output in N x m layout.
    With M the cached stacked mids, D = unfold_out(dO) and G = [G_1 ... G_r]
    the gradients w.r.t. the S*A_i, four GEMMs over all r terms:
      G       = D.T @ M                               (m1, r*n1)
      dMid    = swap(D @ [S*A_1 ... S*A_r])           (r*m2, N*n1)
      [dB_i]  = dMid @ X.reshape(N*n1, n2)            (dB_i stacked by rows)
      dX      = (dMid.T @ [B_1; ...; B_r]).reshape(N, n)
    and dS = sum_i G_i * A_i, dA_i = G_i * S.
    """
    return _backward(factor, cache, d_out, with_dx=True)


def backward_params(
    factor: KronFactor, cache: KronForwardCache, d_out: np.ndarray
) -> tuple[np.ndarray, None]:
    """``backward`` without the input gradient (``d_x`` is ``None``): the same
    dS, dA_i and dB_i from the same operations in the same order, minus the
    one GEMM ``dMid.T @ [B_1; ...; B_r]``. For the first layer of a network,
    whose input gradient nothing reads."""
    return _backward(factor, cache, d_out, with_dx=False)


def weight_gradient(factor: KronFactor, masked_a: np.ndarray, d_w: np.ndarray) -> np.ndarray:
    """The parameter gradient of ``backward``, laid out as ``factor.flat``,
    from the dense weight gradient ``d_w = dO.T @ X`` of the materialized
    path, with ``masked_a`` the stacked S * A_i of ``build_weight``. With
    T = fold_tiles(d_w), the ``(m1*n1, m2*n2)`` tile-major weight gradient,
    and G_i the gradient w.r.t. S*A_i:
      [vec G_i].T = [vec B_i].T @ T.T     (the G_i as C-contiguous rows)
      [vec dB_i]  = [vec S*A_i].T @ T
      dS = sum_i G_i * A_i,   dA_i = G_i * S
    """
    sh = factor.shape
    t = fold_tiles(d_w, sh.m2, sh.n2)
    g = matmul(factor.b.reshape(sh.r, -1), t.T)
    grad = np.empty(count_params(sh))
    d_s, d_a, d_b = views(sh, grad)
    matmul(masked_a.T, t, out=d_b.reshape(sh.r, -1))
    _mask_gradients(factor, g.reshape(sh.r, sh.m1, sh.n1), d_s, d_a)
    return grad


def reconstruct_from_blockwise(w: np.ndarray, block: tuple[int, int]) -> KronFactor:
    """Constructive exact decomposition of a block-wise sparse matrix.

    With T nonzero m2 x n2 tiles (exact != 0 test; the input is assumed to be
    deliberately block-sparse), returns r = T, binary S, one-hot A_i per
    nonzero tile in row-major (i1, j1) order, and B_i the tile contents.
    ``materialize`` of the result reproduces the input bit-exactly. An all-zero
    matrix yields the r = 1 degenerate all-zero factor.
    """
    w = as_matrix(w, "w")
    shape = tiled_shape(*w.shape, block)
    m1, n1, m2, n2 = shape.m1, shape.n1, shape.m2, shape.n2
    tiles = tile_view(w, m2, n2).transpose(0, 2, 1, 3).reshape(m1 * n1, m2, n2)
    nonzero = np.flatnonzero(np.any(tiles != 0.0, axis=(1, 2)))
    if not nonzero.size:
        return KronFactor(
            shape,
            np.zeros((m1, n1)),
            np.zeros((1, m1, n1)),
            np.zeros((1, m2, n2)),
        )
    r = nonzero.size
    s = np.zeros(m1 * n1)
    s[nonzero] = 1.0
    a = np.zeros((r, m1 * n1))
    a[np.arange(r), nonzero] = 1.0
    return KronFactor(
        KronShape(m1, n1, m2, n2, r), s.reshape(m1, n1), a.reshape(r, m1, n1), tiles[nonzero]
    )


def sparsity_rate(factor: KronFactor, eps_zero: float) -> float:
    """Fraction of mask entries with |S| < eps_zero (measured on S, i.e. on
    tiles of the materialized weight barring A_i cancellation)."""
    if eps_zero <= 0:
        raise ValueError("eps_zero must be positive")
    return float(np.mean(np.abs(factor.s) < eps_zero))


# ---------------------------------------------------------------------------
# serialization: b"KBF1", 5 little-endian int64 (m1, n1, m2, n2, r), then
# S, A_1..A_r, B_1..B_r as row-major little-endian float64: ``KronFactor.flat``.
# ---------------------------------------------------------------------------


def write_factor(fh, factor: KronFactor) -> None:
    sh = factor.shape
    fh.write(_FACTOR_MAGIC)
    fh.write(struct.pack("<5q", sh.m1, sh.n1, sh.m2, sh.n2, sh.r))
    fh.write(factor.flat.astype("<f8").tobytes())


def read_exact(fh, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or raise ValueError naming ``what``."""
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated {what}: expected {size} bytes, got {len(raw)}")
    return raw


def check_payload(fh, size: int, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` (a ValueError) naming ``what`` when a header declares
    ``size`` payload bytes but fewer remain in the seekable file ``fh``; checked
    before any read, so huge declared dims never reach ``fh.read``. ``size``
    must be computed with Python ints, which cannot wrap."""
    pos = fh.tell()
    left = fh.seek(0, 2) - pos
    fh.seek(pos)
    if size > left:
        raise error(f"{what} declare {size} payload bytes, but only {left} remain")


def read_factor(fh) -> KronFactor:
    magic = fh.read(4)
    if magic != _FACTOR_MAGIC:
        raise ValueError(f"bad factor file magic: {magic!r}")
    header = read_exact(fh, 40, "factor header (m1, n1, m2, n2, r)")
    m1, n1, m2, n2, r = (int(d) for d in struct.unpack("<5q", header))
    shape = KronShape(m1, n1, m2, n2, r)
    size = 8 * ((1 + r) * m1 * n1 + r * m2 * n2)
    check_payload(fh, size, f"factor dims (m1, n1, m2, n2, r) = {(m1, n1, m2, n2, r)}")
    flat = np.frombuffer(read_exact(fh, size, "factor payload"), dtype="<f8")
    return KronFactor(shape, *views(shape, flat))


def save_factor(path, factor: KronFactor) -> None:
    with open(path, "wb") as fh:
        write_factor(fh, factor)


def load_factor(path) -> KronFactor:
    with open(path, "rb") as fh:
        factor = read_factor(fh)
        trailing = len(fh.read())
    if trailing:
        raise ValueError(f"factor file has {trailing} trailing bytes after the payload")
    return factor
