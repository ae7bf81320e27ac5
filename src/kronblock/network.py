"""Multi-layer models: stacks of factored or dense linear layers (no bias),
element-wise activations, the two supported losses, and exact end-to-end
backpropagation.

Layers own either a :class:`~kronblock.factor.KronFactor` or a dense weight
matrix. Activations are ``relu``, ``identity`` or ``softmax_output``; the
latter passes logits through and defers the softmax to the loss/metrics.
The squared Frobenius loss is the unnormalized sum over the batch; the
softmax cross-entropy gradient seed is normalized by the batch size so the
learning-rate scale is batch-size invariant.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import factor as kf
from . import flops as fl
from .linalg import as_matrix

ACTIVATIONS = ("relu", "identity", "softmax_output")
LOSSES = ("squared_frobenius", "softmax_cross_entropy")

_NET_MAGIC = b"KBN1"
_ACT_CODE = {name: i for i, name in enumerate(ACTIVATIONS)}
_ACT_NAME = {i: name for name, i in _ACT_CODE.items()}


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "kron" | "dense"
    activation: str = "identity"
    shape: kf.KronShape | None = None
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("kron", "dense"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.kind == "kron":
            if self.shape is None:
                raise ValueError("kron layer needs a KronShape")
        elif self.m is None or self.n is None or self.m < 1 or self.n < 1:
            raise ValueError("dense layer needs positive m, n")

    @property
    def out_dim(self) -> int:
        return self.shape.m if self.kind == "kron" else self.m

    @property
    def in_dim(self) -> int:
        return self.shape.n if self.kind == "kron" else self.n


def kron_spec(shape: kf.KronShape, activation: str = "identity") -> LayerSpec:
    return LayerSpec(kind="kron", activation=activation, shape=shape)


def dense_spec(m: int, n: int, activation: str = "identity") -> LayerSpec:
    return LayerSpec(kind="dense", activation=activation, m=m, n=n)


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

    def weight_matrix(self) -> np.ndarray:
        """Dense view of the layer weight (materializes factored layers)."""
        return kf.materialize(self.factor) if self.spec.kind == "kron" else self.w.copy()

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
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.spec.out_dim != nxt.spec.in_dim:
                raise ValueError(
                    f"layer dims incompatible: {prev.spec.out_dim} -> {nxt.spec.in_dim}"
                )

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


def squared_frobenius(o: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Unnormalized sum of squared residuals; gradient seed 2*(O - Y)."""
    y = as_matrix(y, "y")
    if y.shape != o.shape:
        raise ValueError(f"target shape {y.shape} != output shape {o.shape}")
    diff = o - y
    return float(np.sum(diff * diff)), 2.0 * diff


def softmax(o: np.ndarray) -> np.ndarray:
    z = o - o.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(o: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy over the batch; seed (softmax(O) - onehot)/N."""
    labels = np.asarray(labels)
    nbatch = o.shape[0]
    if labels.shape != (nbatch,):
        raise ValueError(f"labels must have shape ({nbatch},), got {labels.shape}")
    z = o - o.max(axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(z), axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(nbatch), labels]))
    seed = softmax(o)
    seed[np.arange(nbatch), labels] -= 1.0
    return loss, seed / nbatch


def loss_and_seed(o: np.ndarray, target, loss_kind: str) -> tuple[float, np.ndarray]:
    if loss_kind == "squared_frobenius":
        return squared_frobenius(o, target)
    if loss_kind == "softmax_cross_entropy":
        return softmax_cross_entropy(o, target)
    raise ValueError(f"unknown loss {loss_kind!r}")


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


@dataclass
class LayerCache:
    x_in: np.ndarray
    pre: np.ndarray
    fcache: kf.KronForwardCache | None = None


@dataclass
class NetCache:
    layers: list[LayerCache] = field(default_factory=list)
    output: np.ndarray | None = None


@dataclass
class DenseGradient:
    d_w: np.ndarray
    d_x: np.ndarray


def _net_input(net: Network, x) -> np.ndarray:
    x = as_matrix(x, "x")
    if x.shape[1] != net.in_dim:
        raise ValueError(f"input has {x.shape[1]} features, network expects {net.in_dim}")
    return x


def _activate(layer: Layer, pre: np.ndarray) -> np.ndarray:
    return np.maximum(pre, 0.0) if layer.spec.activation == "relu" else pre


def net_forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, NetCache]:
    """Training forward: every factored layer takes the fold path, and the
    cache holds what ``net_backward`` reuses."""
    x = _net_input(net, x)
    cache = NetCache()
    cur = x
    for layer in net.layers:
        if layer.spec.kind == "kron":
            pre, fcache = kf.forward(layer.factor, cur)
            cache.layers.append(LayerCache(cur, pre, fcache))
        else:
            pre = cur @ layer.w.T
            cache.layers.append(LayerCache(cur, pre))
        cur = _activate(layer, pre)
    cache.output = cur
    return cur, cache


def eval_paths(net: Network, n_batch: int) -> list[str]:
    """Per layer, the path ``net_predict`` takes for ``n_batch`` rows:
    ``"dense"`` for a dense layer, else ``flops.forward_path`` of its shape."""
    return [
        fl.forward_path(n_batch, layer.spec.shape) if layer.spec.kind == "kron" else "dense"
        for layer in net.layers
    ]


def net_predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Inference forward: the output of ``net_forward`` without a cache. A
    factored layer on the ``"materialized"`` path of ``eval_paths`` runs one
    GEMM on its materialized weight (rebuilt on every call); on ``"fold"`` it
    runs ``factor.forward``."""
    x = _net_input(net, x)
    cur = x
    for layer, path in zip(net.layers, eval_paths(net, x.shape[0])):
        if path == "fold":
            pre, _ = kf.forward(layer.factor, cur)
        elif path == "materialized":
            pre = cur @ kf.materialize(layer.factor).T
        else:
            pre = cur @ layer.w.T
        cur = _activate(layer, pre)
    return cur


def net_backward(
    net: Network, cache: NetCache, target, loss_kind: str
) -> tuple[float, list, np.ndarray]:
    """Loss value, per-layer gradients, and the gradient w.r.t. the input."""
    if cache.output is None or len(cache.layers) != len(net.layers):
        raise ValueError("cache does not match network")
    loss, d_act = loss_and_seed(cache.output, target, loss_kind)
    grads: list = [None] * len(net.layers)
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        lc = cache.layers[idx]
        d_pre = d_act * (lc.pre > 0.0) if layer.spec.activation == "relu" else d_act
        if layer.spec.kind == "kron":
            g = kf.backward(layer.factor, lc.fcache, d_pre)
            grads[idx] = g
            d_act = g.d_x
        else:
            grads[idx] = DenseGradient(d_w=d_pre.T @ lc.x_in, d_x=d_pre @ layer.w)
            d_act = grads[idx].d_x
    return loss, grads, d_act


def evaluate(net: Network, x: np.ndarray, labels, loss_kind: str = "softmax_cross_entropy") -> dict:
    """Classification metrics: loss plus argmax accuracy (ties break to the
    lowest class index). Squared loss evaluates against one-hot targets. The
    outputs come from ``net_predict``."""
    out = net_predict(net, x)
    labels = np.asarray(labels)
    if loss_kind == "squared_frobenius":
        onehot = np.zeros_like(out)
        onehot[np.arange(out.shape[0]), labels] = 1.0
        loss, _ = squared_frobenius(out, onehot)
    else:
        loss, _ = softmax_cross_entropy(out, labels)
    accuracy = float(np.mean(np.argmax(out, axis=1) == labels))
    return {"loss": loss, "accuracy": accuracy}


# ---------------------------------------------------------------------------
# parameter and flop accounting
# ---------------------------------------------------------------------------


def count_network_params(net: Network) -> int:
    total = 0
    for layer in net.layers:
        if layer.spec.kind == "kron":
            total += kf.count_params(layer.spec.shape)
        else:
            total += layer.spec.m * layer.spec.n
    return total


def network_forward_flops(net: Network, n_batch: int) -> int:
    """Analytic forward flops for one batch, squared-loss accounting (the only
    loss the cost model covers; used for every configured loss)."""
    total = 0
    for layer in net.layers:
        if layer.spec.kind == "kron":
            total += fl.kron_forward_matmul_flops(n_batch, layer.spec.shape)
        else:
            total += n_batch * layer.spec.m * (2 * layer.spec.n - 1)
        if layer.spec.activation == "relu":
            total += n_batch * layer.spec.out_dim
    return total + 3 * n_batch * net.out_dim - 1


def network_backward_flops(net: Network, n_batch: int) -> int:
    """Analytic backward flops for one batch (seed, per-layer gradients, input
    gradients for all but the first layer, relu mask products)."""
    total = n_batch * net.out_dim
    for idx, layer in enumerate(net.layers):
        with_dx = idx > 0
        if layer.spec.kind == "kron":
            total += sum(
                fl._kron_backward_pieces(n_batch, layer.spec.shape, with_dx).values()
            )
        else:
            m, n = layer.spec.m, layer.spec.n
            total += m * n * (2 * n_batch - 1)
            if with_dx:
                total += n_batch * n * (2 * m - 1)
        if layer.spec.activation == "relu":
            total += n_batch * layer.spec.out_dim
    return total


def network_update_flops(net: Network) -> int:
    total = 0
    for layer in net.layers:
        if layer.spec.kind == "kron":
            total += fl.kron_update_flops(layer.spec.shape)
        else:
            total += layer.spec.m * layer.spec.n
    return total


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
