"""Multi-layer models: stacks of factored or dense linear layers (no bias),
element-wise activations, the two losses, and exact end-to-end
backpropagation.

Layers own either a :class:`~kronblock.factor.KronFactor` or a dense weight
matrix. Activations are ``relu``, ``identity`` or ``softmax_output``; the
latter passes logits through and defers the softmax to the loss/metrics.
The targets pick the loss that ``loss_and_seed`` trains under and ``evaluate``
scores: softmax cross entropy for 1-D class labels, the squared Frobenius loss
for 2-D regression targets. The squared loss is the unnormalized sum over the
batch; the cross-entropy gradient seed is normalized by the batch size so the
learning-rate scale is batch-size invariant.

Training runs ``net_forward`` then ``net_backward(net, cache, target,
False)``, which skips the gradient w.r.t. the network input (the trainers
never read it); by default ``net_backward`` also returns it. A relu runs in
place on the fresh pre-activation, so the forward cache holds each layer's
input and activation (``LayerCache.out``), and the backward masks each relu
gradient in place.
Every layer's backward returns ``(grad, d_x)``: its parameter gradient as one
array laid out as ``Layer.params``, and its input gradient. Each layer runs
through ``layer_forward`` and ``layer_backward`` on one of three paths: a
factored layer on the fold path of :mod:`kronblock.factor` or on the
materialized path, whichever ``flops.train_path`` counts as no dearer for
its shape and batch size, and a dense layer on the dense path. A materialized layer is the
dense layer on the weight ``factor.build_weight`` builds, with
``factor.weight_gradient`` projecting its weight gradient onto the factors.
Inference (``net_predict``) runs the same ``layer_forward`` on each layer's
path of ``eval_paths``, which asks the same ``flops.train_path`` without the
input gradient, and training and inference multiply a weight in the one
orientation ``product_orientation`` picks from both row counts.
The arithmetic the cost model counts (layer products, relu, the squared loss)
runs through the counted ops of :mod:`kronblock.linalg`;
``flops.instrumented_count`` counts one such training step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import factor as kf
from . import flops as fl
from .flops import ACTIVATIONS, LayerSpec, dense_spec, kron_spec
from .linalg import as_matrix, mask_mul, matmul, relu, scale, sq_sum, sub

_NET_MAGIC = b"KBN1"
_ACT_CODE = {name: i for i, name in enumerate(ACTIVATIONS)}
_ACT_NAME = {i: name for name, i in _ACT_CODE.items()}


@dataclass
class Layer:
    spec: LayerSpec
    factor: kf.KronFactor | None = None
    w: np.ndarray | None = None

    def __post_init__(self):
        if self.spec.kind == "kron":
            if self.factor is None or self.factor.shape != self.spec.shape:
                raise ValueError("kron layer state does not match its spec")
        else:
            self.w = as_matrix(self.w, "w")
            if self.w.shape != (self.spec.m, self.spec.n):
                raise ValueError(f"dense weight must be {(self.spec.m, self.spec.n)}")

    @property
    def params(self) -> np.ndarray:
        """All the layer's parameters as one array: ``factor.flat`` or ``w``."""
        return self.factor.flat if self.spec.kind == "kron" else self.w

    def copy(self) -> "Layer":
        if self.spec.kind == "kron":
            return Layer(self.spec, factor=self.factor.copy())
        return Layer(self.spec, w=self.w.copy())


@dataclass
class Network:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        fl.check_widths([layer.spec for layer in self.layers])

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].spec.out_dim

    def copy(self) -> "Network":
        return Network([layer.copy() for layer in self.layers])


def build_network(specs: list[LayerSpec], seed=0) -> Network:
    """Deterministically initialized network (one RNG stream, layer order).
    ``seed`` may be an int, a SeedSequence, or a Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(
        np.random.SeedSequence(seed) if isinstance(seed, (int, tuple)) else seed
    )
    layers = []
    for spec in specs:
        if spec.kind == "kron":
            layers.append(Layer(spec, factor=kf.random_factor(spec.shape, rng)))
        else:
            c = np.sqrt(6.0 / (spec.m + spec.n))
            layers.append(Layer(spec, w=rng.uniform(-c, c, size=(spec.m, spec.n))))
    return Network(layers)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _residuals(o: np.ndarray, y) -> np.ndarray:
    """O - Y, for a 2-D target Y of the output's shape."""
    y = as_matrix(y, "y")
    if y.shape != o.shape:
        raise ValueError(f"target shape {y.shape} != output shape {o.shape}")
    return sub(o, y)


def squared_frobenius(o: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Unnormalized sum of squared residuals; gradient seed 2*(O - Y)."""
    diff = _residuals(o, y)
    return sq_sum(diff), scale(diff, 2.0)


def _cross_entropy(o: np.ndarray, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross entropy over the batch, the exp of the max-shifted logits
    and their row sums: the loss ``evaluate`` reads and what
    ``softmax_cross_entropy`` builds its seed from. The row max
    reduces a transposed contiguous copy, one vectorized pass per class
    rather than one call per row (a max is exact in any order), and the mean
    is the sum over the batch divided by its size, as ``np.mean`` computes
    it. A label must be an integer in [0, C) for C classes: any other index
    would pick a wrong logit or none."""
    labels = np.asarray(labels)
    nbatch = o.shape[0]
    if labels.shape != (nbatch,):
        raise ValueError(f"labels must have shape ({nbatch},), got {labels.shape}")
    if (
        labels.dtype.kind not in "iu"
        or np.minimum.reduce(labels) < 0
        or np.maximum.reduce(labels) >= o.shape[1]
    ):
        raise ValueError("labels must be integers in [0, C)")
    z = o - np.ascontiguousarray(o.T).max(axis=0)[:, None]
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.add.reduce(np.log(total[:, 0]) - z[np.arange(nbatch), labels]) / nbatch)
    return loss, e, total


def softmax_cross_entropy(o: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy over the batch; seed (softmax(O) - onehot)/N. The
    loss and the seed share one exp of the shifted logits."""
    loss, e, total = _cross_entropy(o, labels)
    nbatch = o.shape[0]
    seed = e / total
    seed[np.arange(nbatch), labels] -= 1.0
    return loss, seed / nbatch


def loss_and_seed(o: np.ndarray, target) -> tuple[float, np.ndarray]:
    """The loss the target implies and its gradient seed: cross entropy for
    1-D class labels, the squared loss for 2-D regression targets."""
    if np.ndim(target) == 1:
        return softmax_cross_entropy(o, target)
    return squared_frobenius(o, target)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


@dataclass
class LayerCache:
    x_in: np.ndarray
    # the layer's activation, which the next layer takes as its x_in; its
    # ``> 0`` mask is the relu backward's (relu ran in place on the
    # pre-activation, and ``relu(pre) > 0`` is ``pre > 0``, NaN included)
    out: np.ndarray
    # what layer_backward reuses: the fold path's KronForwardCache, or the
    # (W, stacked S * A_i) pair of ``X @ W.T``, with None for a dense layer
    fcache: kf.KronForwardCache | tuple


@dataclass
class NetCache:
    # the network's output is ``layers[-1].out``
    layers: list[LayerCache] = field(default_factory=list)


def _net_input(net: Network, x) -> np.ndarray:
    x = as_matrix(x, "x")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"input has {x.shape[1]} features, network expects {net.in_dim}")
    return x


def _activate(layer: Layer, pre: np.ndarray) -> np.ndarray:
    # in place: ``pre`` is the fresh output of ``layer_forward``, which
    # nothing else holds
    return relu(pre, out=pre) if layer.spec.activation == "relu" else pre


# OpenBLAS lays a GEMM's output on 16-wide kernel tiles: a weight with fewer
# rows leaves part of each tile idle in ``X @ W.T``, while swapped the batch
# fills them. The swap pays from 512 input rows; at 16 weight rows, or with
# fewer input rows, its copy costs more than the tiling saves
# (``thin_products`` in BENCH_train.json)
THIN_WEIGHT_ROWS = 16
SWAP_MIN_ROWS = 512


def product_orientation(weight_rows: int, input_rows: int) -> str:
    """How ``predict_product`` multiplies: ``"swapped"`` for a weight of fewer
    than ``THIN_WEIGHT_ROWS`` rows and an input of at least ``SWAP_MIN_ROWS``
    rows, else ``"direct"``."""
    thin = weight_rows < THIN_WEIGHT_ROWS and input_rows >= SWAP_MIN_ROWS
    return "swapped" if thin else "direct"


def predict_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``X @ W.T`` through the counted ``matmul``, in the orientation of
    ``product_orientation``. Swapped, it runs as ``(W @ X.T).T`` made
    C-contiguous, at BLAS speed and with the bits of ``X @ W.T`` wherever a
    test checks (1 to 15 weight rows at the paper's, the benchmark's and the
    tests' widths and batch sizes, under 1 and 2 BLAS threads). The known
    exception (scipy-openblas 0.3.31): a weight of 12 to 15 rows at 512 or
    more input rows, not a multiple of 8, rounds differently. No pinned
    config reaches that case."""
    if product_orientation(w.shape[0], x.shape[0]) == "swapped":
        return np.ascontiguousarray(matmul(w, x.T).T)
    return matmul(x, w.T)


def layer_forward(layer: Layer, path: str, x: np.ndarray):
    """Pre-activation output of one layer on ``path`` (``"fold"``,
    ``"materialized"`` or ``"dense"``) and the cache ``layer_backward``
    reuses: the ``factor.forward`` cache on the fold path, else the weight W
    of ``predict_product`` and the stacked S * A_i of ``factor.build_weight``
    (None for a dense layer, whose W is its own)."""
    if path == "fold":
        return kf.forward(layer.factor, x)
    w, masked_a = kf.build_weight(layer.factor) if path == "materialized" else (layer.w, None)
    return predict_product(x, w), (w, masked_a)


def layer_backward(layer: Layer, x: np.ndarray, cache, d_out: np.ndarray, with_dx: bool):
    """``(grad, d_x)`` of one layer from its input ``x``, the cache of
    ``layer_forward`` and the gradient ``d_out`` w.r.t. its output: ``grad``
    the parameter gradient as one fresh array laid out as ``layer.params``,
    and the input gradient ``d_x`` only when ``with_dx`` (else None). The fold
    path runs ``factor.backward`` or ``factor.backward_params``. The dense and
    the materialized path run the dense layer's ``dW = dO.T @ X`` and
    ``dX = dO @ W``, and a factored layer projects dW onto its factors with
    ``factor.weight_gradient``."""
    if isinstance(cache, kf.KronForwardCache):
        backward = kf.backward if with_dx else kf.backward_params
        return backward(layer.factor, cache, d_out)
    w, masked_a = cache
    d_w = matmul(d_out.T, x)
    d_x = matmul(d_out, w) if with_dx else None
    grad = d_w if masked_a is None else kf.weight_gradient(layer.factor, masked_a, d_w)
    return grad, d_x


def train_paths(net: Network, n_batch: int) -> list[str]:
    """Per layer, the path ``net_forward`` takes for ``n_batch`` rows:
    ``"dense"`` for a dense layer, else ``flops.train_path`` of its shape, with
    the input gradient for every layer but the first."""
    return [
        fl.train_path(n_batch, layer.spec.shape, with_dx=idx > 0)
        if layer.spec.kind == "kron" else "dense"
        for idx, layer in enumerate(net.layers)
    ]


def net_forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, NetCache]:
    """Training forward: each layer takes its path of ``train_paths``, and the
    cache holds what ``net_backward`` reuses."""
    x = _net_input(net, x)
    cache = NetCache()
    cur = x
    for layer, path in zip(net.layers, train_paths(net, x.shape[0])):
        pre, fcache = layer_forward(layer, path, cur)
        out = _activate(layer, pre)
        cache.layers.append(LayerCache(cur, out, fcache))
        cur = out
    return cur, cache


def eval_paths(net: Network, n_batch: int) -> list[str]:
    """Per layer, the path ``net_predict`` takes for ``n_batch`` rows:
    ``"dense"`` for a dense layer, else ``flops.train_path`` of its shape
    without the input gradient, the path a first layer trains on."""
    return [
        fl.train_path(n_batch, layer.spec.shape, False) if layer.spec.kind == "kron" else "dense"
        for layer in net.layers
    ]


def net_predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Inference forward: ``net_forward`` without a cache, each layer run by
    ``layer_forward`` on its path of ``eval_paths`` (a materialized weight is
    rebuilt on every call)."""
    cur = _net_input(net, x)
    for layer, path in zip(net.layers, eval_paths(net, cur.shape[0])):
        cur = _activate(layer, layer_forward(layer, path, cur)[0])
    return cur


def net_backward(
    net: Network, cache: NetCache, target, keep_dx=True, /
) -> tuple[float, list, np.ndarray | None]:
    """Loss value (``loss_and_seed`` of the output and ``target``), per-layer
    parameter gradients (each laid out as its ``Layer.params``), and the
    gradient w.r.t. the network input, None when ``keep_dx`` is False.
    Training passes False: the first layer then skips its input gradient, and
    every other value comes from the same operations in the same order, so
    the gradients keep their bits."""
    # keep_dx is positional-only: the traced run's counter of this function
    # (perfbench/spans.py, count_net_backward) takes what follows ``cache``
    # only positionally, so a keyword call would end every traced run
    if len(cache.layers) != len(net.layers):
        raise ValueError("cache does not match network")
    loss, d_act = loss_and_seed(cache.layers[-1].out, target)
    grads: list = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        layer, lc = net.layers[idx], cache.layers[idx]
        if layer.spec.activation == "relu":
            d_act = mask_mul(d_act, lc.out, out=d_act)
        grads[idx], d_act = layer_backward(layer, lc.x_in, lc.fcache, d_act, keep_dx or idx > 0)
    return loss, grads, d_act


def evaluate(net: Network, x: np.ndarray, target) -> dict:
    """Loss and argmax accuracy (ties break to the lowest index) of the outputs
    of ``net_predict``: the loss ``loss_and_seed`` picks, without its gradient
    seed, and for 2-D regression targets the argmax agreement of rows."""
    out = net_predict(net, x)
    if np.ndim(target) == 1:
        loss, labels = _cross_entropy(out, target)[0], np.asarray(target)
    else:
        loss, labels = sq_sum(_residuals(out, target)), np.argmax(target, axis=1)
    accuracy = float(np.mean(np.argmax(out, axis=1) == labels))
    return {"loss": loss, "accuracy": accuracy}


# ---------------------------------------------------------------------------
# parameter and flop accounting
# ---------------------------------------------------------------------------


def count_network_params(net: Network) -> int:
    return sum(layer.params.size for layer in net.layers)


# The step's analytic flops under the squared loss, one field of
# ``flops.layers_report`` each; perfbench/run.py reads them by these names.


def network_forward_flops(net: Network, n_batch: int) -> int:
    return fl.layers_report(n_batch, [layer.spec for layer in net.layers]).forward


def network_backward_flops(net: Network, n_batch: int) -> int:
    return fl.layers_report(n_batch, [layer.spec for layer in net.layers]).backward


def network_update_flops(net: Network) -> int:
    return fl.layers_report(1, [layer.spec for layer in net.layers]).update


# ---------------------------------------------------------------------------
# checkpoint serialization: b"KBN1", u16 version, i64 layer count, then per
# layer u8 kind (0 dense / 1 kron), u8 activation code, and the payload
# (dense: i64 m, n + row-major f64; kron: the factor container of
# kronblock.factor). All integers little-endian.
# ---------------------------------------------------------------------------


def save_network(path, net: Network) -> None:
    with open(path, "wb") as fh:
        fh.write(_NET_MAGIC)
        fh.write(struct.pack("<Hq", 1, len(net.layers)))
        for layer in net.layers:
            kind = 1 if layer.spec.kind == "kron" else 0
            fh.write(struct.pack("<BB", kind, _ACT_CODE[layer.spec.activation]))
            if kind:
                kf.write_factor(fh, layer.factor)
            else:
                fh.write(struct.pack("<2q", layer.spec.m, layer.spec.n))
                fh.write(layer.w.astype("<f8").tobytes())


def load_network(path) -> Network:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _NET_MAGIC:
            raise ValueError(f"bad network checkpoint magic: {magic!r}")
        header = kf.read_exact(fh, 10, "network checkpoint header (version, layer count)")
        version, n_layers = struct.unpack("<Hq", header)
        if version != 1:
            raise ValueError(f"unsupported checkpoint version {version}")
        layers = []
        for idx in range(n_layers):
            where = f"network checkpoint layer {idx}"
            kind, act = struct.unpack("<BB", kf.read_exact(fh, 2, f"{where} kind/activation"))
            if act not in _ACT_NAME:
                raise ValueError(f"{where}: unknown activation byte {act}")
            activation = _ACT_NAME[act]
            if kind == 1:
                fac = kf.read_factor(fh)
                layers.append(Layer(kron_spec(fac.shape, activation), factor=fac))
            elif kind == 0:
                m, n = struct.unpack("<2q", kf.read_exact(fh, 16, f"{where} dims"))
                if m < 1 or n < 1:
                    raise ValueError(f"{where}: dense dims must be positive, got {m}x{n}")
                kf.check_payload(fh, 8 * m * n, f"{where}: dense dims {m}x{n}")
                raw = kf.read_exact(fh, 8 * m * n, f"{where} weights")
                w = np.frombuffer(raw, dtype="<f8").reshape(m, n).astype(np.float64)
                layers.append(Layer(dense_spec(int(m), int(n), activation), w=w))
            else:
                raise ValueError(f"{where}: unknown layer kind byte {kind} (0 dense, 1 kron)")
        trailing = len(fh.read())
    if trailing:
        raise ValueError(f"network checkpoint has {trailing} trailing bytes after the last layer")
    return Network(layers)
