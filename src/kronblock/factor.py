"""The masked Kronecker-factored layer.

A layer's weight is represented as ``sum_i kron(S * A_i, B_i)`` where the
mask ``S`` and the ``A_i`` are ``m1 x n1``, the ``B_i`` are ``m2 x n2``, and
entry ``S[i1, j1]`` gates exactly tile ``(i1, j1)`` of the materialized
``m x n`` weight. Training never materializes the weight: ``forward`` runs
through the fold maps of :mod:`kronblock.linalg`, and ``backward`` reuses the
forward intermediates (they are cached, never recomputed). Inference
(``network.net_predict``) may instead build the weight with ``materialize``
and run one GEMM, when the cost model counts that as no dearer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    as_matrix,
    fold_input,
    fold_mid,
    hadamard,
    kron,
    unfold_input,
    unfold_mid,
    unfold_output,
    fold_output,
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


def count_params(shape: KronShape) -> int:
    """Trainable parameter count: one S plus r pairs (A_i, B_i)."""
    s = shape.m1 * shape.n1
    return s + shape.r * (s + shape.m2 * shape.n2)


@dataclass
class KronFactor:
    """Trainable state of one factored layer: mask S and factor lists A, B."""

    shape: KronShape
    s: np.ndarray
    a: list[np.ndarray]
    b: list[np.ndarray]

    def __post_init__(self):
        sh = self.shape
        self.s = as_matrix(self.s, "S")
        self.a = [as_matrix(x, "A_i") for x in self.a]
        self.b = [as_matrix(x, "B_i") for x in self.b]
        if self.s.shape != (sh.m1, sh.n1):
            raise ValueError(f"S must be {sh.m1}x{sh.n1}, got {self.s.shape}")
        if len(self.a) != sh.r or len(self.b) != sh.r:
            raise ValueError(f"need {sh.r} A and B factors, got {len(self.a)}/{len(self.b)}")
        for x in self.a:
            if x.shape != (sh.m1, sh.n1):
                raise ValueError(f"A_i must be {sh.m1}x{sh.n1}, got {x.shape}")
        for x in self.b:
            if x.shape != (sh.m2, sh.n2):
                raise ValueError(f"B_i must be {sh.m2}x{sh.n2}, got {x.shape}")

    def copy(self) -> "KronFactor":
        return KronFactor(
            self.shape, self.s.copy(), [x.copy() for x in self.a], [x.copy() for x in self.b]
        )


def random_factor(shape: KronShape, rng: np.random.Generator) -> KronFactor:
    """Fresh trainable factor: S all-ones (mask fully open), A_i and B_i
    uniform(-c, c) with c = sqrt(6/(n+m)) * (m1*n1*r)**-0.25 so the
    materialized weight starts with fan-scaled variance."""
    c = np.sqrt(6.0 / (shape.n + shape.m)) * (shape.m1 * shape.n1 * shape.r) ** -0.25
    a = [rng.uniform(-c, c, size=(shape.m1, shape.n1)) for _ in range(shape.r)]
    b = [rng.uniform(-c, c, size=(shape.m2, shape.n2)) for _ in range(shape.r)]
    return KronFactor(shape, np.ones((shape.m1, shape.n1)), a, b)


def materialize(factor: KronFactor) -> np.ndarray:
    """Expand to the dense m x n weight: sum_i kron(S * A_i, B_i). The sum
    starts from the first term (r - 1 adds, as ``flops.materialized_forward_flops``
    counts)."""
    out = kron(hadamard(factor.s, factor.a[0]), factor.b[0])
    for a_i, b_i in zip(factor.a[1:], factor.b[1:]):
        out += kron(hadamard(factor.s, a_i), b_i)
    return out


@dataclass
class KronForwardCache:
    """Forward intermediates the backward pass reuses (never recomputed):
    the folded input, each folded mid product B_i @ fold(X), and each S*A_i."""

    batch: int
    x_folded: np.ndarray
    mids: list[np.ndarray] = field(default_factory=list)
    masked_a: list[np.ndarray] = field(default_factory=list)


def forward(factor: KronFactor, x: np.ndarray) -> tuple[np.ndarray, KronForwardCache]:
    """Efficient forward pass: O = X @ materialize(factor).T, computed via the
    fold maps without materializing the weight. Returns (O, cache)."""
    sh = factor.shape
    x = as_matrix(x, "x")
    if x.shape[1] != sh.n:
        raise ValueError(f"input has {x.shape[1]} features, layer expects {sh.n}")
    nbatch = x.shape[0]
    xf = fold_input(x, sh.n1, sh.n2)
    cache = KronForwardCache(batch=nbatch, x_folded=xf)
    acc = None
    for a_i, b_i in zip(factor.a, factor.b):
        mid = fold_mid(b_i @ xf, sh.n1)
        sa = factor.s * a_i
        cache.mids.append(mid)
        cache.masked_a.append(sa)
        term = mid @ sa.T
        acc = term if acc is None else acc + term
    return fold_output(acc, sh.m2), cache


@dataclass
class KronGradient:
    """Gradients for one factored layer plus the input gradient for backprop."""

    d_s: np.ndarray
    d_a: list[np.ndarray]
    d_b: list[np.ndarray]
    d_x: np.ndarray


def backward(factor: KronFactor, cache: KronForwardCache, d_out: np.ndarray) -> KronGradient:
    """Exact closed-form backward pass.

    ``d_out`` is the loss gradient w.r.t. the layer output in N x m layout.
    Per term i, with G_i the gradient w.r.t. S*A_i:
      G_i   = unfold_out(dO).T @ mid_i
      dS    = sum_i G_i * A_i,   dA_i = G_i * S
      dB_i  = unfold_mid(unfold_out(dO) @ (S*A_i)) @ fold(X).T
      dX    = unfold_in(sum_i B_i.T @ unfold_mid(...))
    """
    sh = factor.shape
    d_out = as_matrix(d_out, "d_out")
    if d_out.shape != (cache.batch, sh.m):
        raise ValueError(f"d_out must be {(cache.batch, sh.m)}, got {d_out.shape}")
    if len(cache.mids) != sh.r:
        raise ValueError("cache does not match factor rank")
    d_of = unfold_output(d_out, sh.m2)
    d_a: list[np.ndarray] = []
    d_b: list[np.ndarray] = []
    for i in range(sh.r):
        g = d_of.T @ cache.mids[i]
        d_a.append(g * factor.s)
        d_mid = unfold_mid(d_of @ cache.masked_a[i], sh.m2)
        d_b.append(d_mid @ cache.x_folded.T)
        # the sums over rank terms start from the first term: r - 1 adds
        if i == 0:
            d_s = g * factor.a[i]
            d_xf = factor.b[i].T @ d_mid
        else:
            d_s += g * factor.a[i]
            d_xf += factor.b[i].T @ d_mid
    return KronGradient(d_s, d_a, d_b, unfold_input(d_xf, sh.n1))


def reconstruct_from_blockwise(w: np.ndarray, block: tuple[int, int]) -> KronFactor:
    """Constructive exact decomposition of a block-wise sparse matrix.

    With T nonzero m2 x n2 tiles (exact != 0 test; the input is assumed to be
    deliberately block-sparse), returns r = T, binary S, one-hot A_i per
    nonzero tile in row-major (i1, j1) order, and B_i the tile contents.
    ``materialize`` of the result reproduces the input bit-exactly. An all-zero
    matrix yields the r = 1 degenerate all-zero factor.
    """
    w = as_matrix(w, "w")
    m2, n2 = block
    m, n = w.shape
    if m % m2 != 0 or n % n2 != 0:
        raise ValueError(f"block {block} does not divide matrix {w.shape}")
    m1, n1 = m // m2, n // n2
    s = np.zeros((m1, n1))
    a: list[np.ndarray] = []
    b: list[np.ndarray] = []
    for i1 in range(m1):
        for j1 in range(n1):
            tile = w[i1 * m2 : (i1 + 1) * m2, j1 * n2 : (j1 + 1) * n2]
            if np.any(tile != 0.0):
                s[i1, j1] = 1.0
                one_hot = np.zeros((m1, n1))
                one_hot[i1, j1] = 1.0
                a.append(one_hot)
                b.append(tile.copy())
    if not a:
        return KronFactor(
            KronShape(m1, n1, m2, n2, 1),
            np.zeros((m1, n1)),
            [np.zeros((m1, n1))],
            [np.zeros((m2, n2))],
        )
    return KronFactor(KronShape(m1, n1, m2, n2, len(a)), s, a, b)


def sparsity_rate(factor: KronFactor, eps_zero: float = 1e-6) -> float:
    """Fraction of mask entries with |S| < eps_zero (measured on S, i.e. on
    tiles of the materialized weight barring A_i cancellation)."""
    if eps_zero <= 0:
        raise ValueError("eps_zero must be positive")
    return float(np.mean(np.abs(factor.s) < eps_zero))


# ---------------------------------------------------------------------------
# serialization: b"KBF1", 5 little-endian int64 (m1, n1, m2, n2, r), then
# S, A_1..A_r, B_1..B_r as row-major little-endian float64.
# ---------------------------------------------------------------------------


def write_factor(fh, factor: KronFactor) -> None:
    sh = factor.shape
    fh.write(_FACTOR_MAGIC)
    fh.write(struct.pack("<5q", sh.m1, sh.n1, sh.m2, sh.n2, sh.r))
    fh.write(factor.s.astype("<f8").tobytes())
    for x in factor.a:
        fh.write(x.astype("<f8").tobytes())
    for x in factor.b:
        fh.write(x.astype("<f8").tobytes())


def read_exact(fh, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or raise ValueError naming ``what``."""
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated {what}: expected {size} bytes, got {len(raw)}")
    return raw


def check_payload(fh, size: int, what: str) -> None:
    """Raise ValueError naming ``what`` when a header declares ``size`` payload
    bytes but fewer remain in the seekable file ``fh``; checked before any read,
    so huge declared dims never reach ``fh.read``."""
    pos = fh.tell()
    left = fh.seek(0, 2) - pos
    fh.seek(pos)
    if size > left:
        raise ValueError(f"{what} declare {size} payload bytes, but only {left} remain")


def read_factor(fh) -> KronFactor:
    magic = fh.read(4)
    if magic != _FACTOR_MAGIC:
        raise ValueError(f"bad factor file magic: {magic!r}")
    header = read_exact(fh, 40, "factor header (m1, n1, m2, n2, r)")
    m1, n1, m2, n2, r = (int(d) for d in struct.unpack("<5q", header))
    shape = KronShape(m1, n1, m2, n2, r)
    check_payload(
        fh,
        8 * ((1 + r) * m1 * n1 + r * m2 * n2),
        f"factor dims (m1, n1, m2, n2, r) = {(m1, n1, m2, n2, r)}",
    )

    def _arr(rows, cols):
        raw = read_exact(fh, 8 * rows * cols, "factor payload")
        return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).astype(np.float64)

    s = _arr(m1, n1)
    a = [_arr(m1, n1) for _ in range(r)]
    b = [_arr(m2, n2) for _ in range(r)]
    return KronFactor(shape, s, a, b)


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
