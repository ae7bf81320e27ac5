"""Exact flop accounting for dense and factored layers.

Two independent routes are kept deliberately separate and compared in tests:

* the *analytic* cost model: per-layer forward and backward pieces (exact
  integers, pre-asymptotic) that ``layers_report`` sums over a model's
  ``LayerSpec``s into one ``FlopReport`` (forward, backward, update and
  their total); every report and count below reads such a sum, and
* the *instrumented* counter: ``counted_step`` runs one real training step
  of a ``network.Network`` (``net_forward``, then the training
  ``net_backward`` under the squared loss its 2-D targets pick) inside
  ``linalg.counting()``, where every multiply, add and subtract goes through
  a counted op of :mod:`kronblock.linalg`. It holds no formula or walk of its own.
  ``kronblock flops`` counts one step of the ``network.build_network`` net
  of its kind's ``LayerSpec``s; ``instrumented_count`` builds the network
  from a tag's given weights.

A layer is the ``LayerSpec`` the network is built from, defined here: its
kind, the ``m x n`` of its weight (a factored layer's ``KronShape``) and its
activation. A factored layer has pieces for both training paths of
:mod:`kronblock.factor`, fold and materialized;
``train_path`` picks the one whose forward plus backward costs fewer flops
(materialized on a tie), and every report counts the picked path, as
``network.net_forward`` runs it. Inference takes the same rule's pick
without the input gradient (``network.eval_paths``).

Convention notes (required to reproduce the exact totals):
  * the loss is ||O - Y||_F^2 whatever loss trains the model; it costs
    3*N*m - 1 (subtract, square, sum-reduce),
  * the backward seed 2*(O - Y) costs N*m (the difference is reused from the
    forward pass),
  * relu costs one flop per scalar; its backward mask product costs one flop
    per scalar (the 0/1 mask itself is free); every other activation passes
    its input through at no cost,
  * the input gradient is counted for every layer but the first, as
    the training ``network.net_backward`` computes it (training never reads
    the gradient w.r.t. the network input),
  * comparisons, reshapes, folds, stacks and tile transposes cost nothing,
  * parameter updates are one flop per trainable A/B parameter for factored
    layers (r*(m1*n1 + m2*n2)) and m*n for a dense layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .factor import KronFactor, KronShape, is_positive_int
from .linalg import counting

ACTIVATIONS = ("relu", "identity", "softmax_output")


@dataclass(frozen=True)
class LayerSpec:
    """One layer as ``network.build_network`` builds it and ``layers_report``
    prices it: a factored layer of ``shape`` or a dense ``m x n`` one, and
    its activation. A kron spec takes ``m`` and ``n`` from its shape."""

    kind: str  # "kron" | "dense"
    activation: str = "identity"
    shape: KronShape | None = None
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
            object.__setattr__(self, "m", self.shape.m)
            object.__setattr__(self, "n", self.shape.n)
        elif not (is_positive_int(self.m) and is_positive_int(self.n)):
            raise ValueError(f"dense layer needs positive integer m, n, got {self.m!r}, {self.n!r}")

    @property
    def out_dim(self) -> int:
        return self.m

    @property
    def in_dim(self) -> int:
        return self.n


def kron_spec(shape: KronShape, activation: str = "identity") -> LayerSpec:
    return LayerSpec(kind="kron", activation=activation, shape=shape)


def dense_spec(m: int, n: int, activation: str = "identity") -> LayerSpec:
    return LayerSpec(kind="dense", activation=activation, m=m, n=n)


def check_widths(specs: list) -> None:
    """Raise unless each layer's output width is the next layer's input width."""
    for prev, nxt in zip(specs, specs[1:]):
        if prev.m != nxt.n:
            raise ValueError(f"layer dims incompatible: {prev.m} -> {nxt.n}")


@dataclass
class FlopReport:
    """Exact flop totals plus the per-step breakdown of the derivation.

    ``forward + backward + update`` always equals the sum of ``breakdown``
    values. ``constants`` carries named leading-term aggregates (the two-layer
    factored report exposes C1..C4) and does not participate in the sum.
    """

    forward: int
    backward: int
    update: int
    breakdown: dict[str, int] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.forward + self.backward + self.update

    def check(self) -> None:
        assert self.total == sum(self.breakdown.values()), "breakdown does not sum to total"

    def to_dict(self) -> dict:
        return {
            "forward": self.forward,
            "backward": self.backward,
            "update": self.update,
            "breakdown": dict(self.breakdown),
            "constants": dict(self.constants),
        }


# ---------------------------------------------------------------------------
# analytic cost model: per-layer pieces and the one builder that sums them
# ---------------------------------------------------------------------------


def _dense_forward_pieces(n_batch: int, m: int, n: int) -> dict[str, int]:
    return {"matmul": n_batch * m * (2 * n - 1)}


def _mask_pieces(s: KronShape) -> tuple[dict[str, int], dict[str, int]]:
    """Forward and backward pieces both paths of a factored layer share: the
    products S * A_i, and from the G_i the mask gradient sum_i G_i * A_i and
    the A gradients G_i * S."""
    ss = s.m1 * s.n1
    return {"mask_products": s.r * ss}, {"s_grad": s.r * ss + (s.r - 1) * ss, "a_grad": s.r * ss}


def _kron_forward_pieces(n_batch: int, s: KronShape) -> dict[str, int]:
    # per-term pieces of the rank-stacked products: b_matmul is the one GEMM
    # of X with [B_1; ...; B_r], a_matmul + rank_sum the per-sample products
    # with the stacked S*A_i over K = n1*r (one linalg.bmatmul), whose
    # N*m*(2*r*n1 - 1) flops split into r terms' products and their sum
    return {
        "b_matmul": s.r * n_batch * s.n1 * s.m2 * (2 * s.n2 - 1),
        **_mask_pieces(s)[0],
        "a_matmul": s.r * n_batch * s.m1 * s.m2 * (2 * s.n1 - 1),
        "rank_sum": (s.r - 1) * n_batch * s.m,
    }


def _dense_backward_pieces(n_batch: int, m: int, n: int, with_dx: bool) -> dict[str, int]:
    pieces = {"weight_grad": m * n * (2 * n_batch - 1)}
    if with_dx:
        pieces["input_grad"] = n_batch * n * (2 * m - 1)
    return pieces


def _kron_backward_pieces(n_batch: int, s: KronShape, with_dx: bool) -> dict[str, int]:
    ss = s.m1 * s.n1
    pieces = {
        "grad_mask_products": s.r * ss * (2 * n_batch * s.m2 - 1),
        **_mask_pieces(s)[1],
        "mid_grad": s.r * n_batch * s.m2 * s.n1 * (2 * s.m1 - 1),
        "b_grad": s.r * s.m2 * s.n2 * (2 * n_batch * s.n1 - 1),
    }
    if with_dx:
        pieces["input_grad"] = (
            s.r * n_batch * s.n1 * s.n2 * (2 * s.m2 - 1) + (s.r - 1) * n_batch * s.n
        )
    return pieces


def _materialized_forward_pieces(n_batch: int, s: KronShape) -> dict[str, int]:
    # building W, then the dense layer's forward on it
    return {
        **_mask_pieces(s)[0],
        "weight_build": s.m * s.n * (2 * s.r - 1),
        "weight_matmul": _dense_forward_pieces(n_batch, s.m, s.n)["matmul"],
    }


def _materialized_backward_pieces(n_batch: int, s: KronShape, with_dx: bool) -> dict[str, int]:
    # the dense layer's backward on W, then factor.weight_gradient
    ss, tt = s.m1 * s.n1, s.m2 * s.n2
    return {
        **_dense_backward_pieces(n_batch, s.m, s.n, with_dx),
        "grad_mask_products": s.r * ss * (2 * tt - 1),
        **_mask_pieces(s)[1],
        "b_grad": s.r * tt * (2 * ss - 1),
    }


def _kron_path_pieces(n_batch: int, s: KronShape, with_dx: bool) -> dict[str, tuple]:
    """Per training path, the forward and backward pieces of a factored layer."""
    return {
        "fold": (
            _kron_forward_pieces(n_batch, s),
            _kron_backward_pieces(n_batch, s, with_dx),
        ),
        "materialized": (
            _materialized_forward_pieces(n_batch, s),
            _materialized_backward_pieces(n_batch, s, with_dx),
        ),
    }


@functools.lru_cache(maxsize=1024)
def train_path(n_batch: int, s: KronShape, with_dx: bool) -> str:
    """Training path of a factored layer at this batch size, with or without
    the input gradient: ``"materialized"`` when building W, ``X @ W.T`` and
    the backward through W cost no more flops than the fold path's forward
    plus backward, ``"fold"`` otherwise. Memoized: every training step asks
    again for the same few (batch, shape) pairs."""
    steps = {
        path: sum(fwd.values()) + sum(bwd.values())
        for path, (fwd, bwd) in _kron_path_pieces(n_batch, s, with_dx).items()
    }
    return "materialized" if steps["materialized"] <= steps["fold"] else "fold"


def _layer_pieces(n_batch: int, spec: LayerSpec, with_dx: bool):
    """Forward pieces, backward pieces and update flops of one layer, on the
    ``train_path`` of a factored layer. The update costs one flop per A_i and
    B_i entry of a factored layer, one per weight entry of a dense one."""
    if spec.kind == "kron":
        s = spec.shape
        fwd, bwd = _kron_path_pieces(n_batch, s, with_dx)[train_path(n_batch, s, with_dx)]
        return fwd, bwd, s.r * (s.m1 * s.n1 + s.m2 * s.n2)
    return (
        _dense_forward_pieces(n_batch, spec.m, spec.n),
        _dense_backward_pieces(n_batch, spec.m, spec.n, with_dx),
        spec.m * spec.n,
    )


def layers_report(n_batch: int, specs: list) -> FlopReport:
    """Exact flops of one training step of a model given as its ``LayerSpec``s
    (``[layer.spec for layer in net.layers]``), in the order
    ``network.net_forward`` and the training ``net_backward`` run.

    Breakdown keys are ``forward.<piece>`` and ``backward.<piece>``, with the
    piece prefixed ``layer<i>.`` when the model has more than one layer; relu
    costs add up under ``forward.activation`` and ``backward.activation_mask``.
    """
    check_widths(specs)
    n = n_batch
    pieces = [_layer_pieces(n, spec, idx > 0) for idx, spec in enumerate(specs)]
    prefixes = [f"layer{idx + 1}." if len(specs) > 1 else "" for idx in range(len(specs))]
    out_dim = specs[-1].m

    fwd: dict[str, int] = {}
    for spec, (f_pieces, _, _), prefix in zip(specs, pieces, prefixes):
        fwd.update({prefix + k: v for k, v in f_pieces.items()})
        if spec.activation == "relu":
            fwd["activation"] = fwd.get("activation", 0) + n * spec.m
    fwd["loss"] = 3 * n * out_dim - 1

    bwd = {"seed": n * out_dim}
    for spec, (_, b_pieces, _), prefix in reversed(list(zip(specs, pieces, prefixes))):
        if spec.activation == "relu":
            bwd["activation_mask"] = bwd.get("activation_mask", 0) + n * spec.m
        bwd.update({prefix + k: v for k, v in b_pieces.items()})

    upd = sum(u for _, _, u in pieces)
    breakdown = {f"forward.{k}": v for k, v in fwd.items()}
    breakdown.update({f"backward.{k}": v for k, v in bwd.items()})
    breakdown["update.params"] = upd
    return FlopReport(sum(fwd.values()), sum(bwd.values()), upd, breakdown)


# The reports of the four ``kronblock flops`` kinds. ``cli`` prices the audits
# with ``layers_report`` and takes the C1-C4 constants from
# ``two_layer_kron_report``; it imports all four by name because perfbench's
# tracer rebinds those names in ``cli`` to time them.


def dense_layer_report(n_batch: int, m: int, n: int) -> FlopReport:
    return layers_report(n_batch, [dense_spec(m, n)])


def kron_layer_report(n_batch: int, s: KronShape) -> FlopReport:
    return layers_report(n_batch, [kron_spec(s)])


def two_layer_dense_report(n_batch: int, d_in: int, d_hidden: int, d_out: int) -> FlopReport:
    """Two-layer relu regression model with dense weights (exact sums)."""
    specs = [dense_spec(d_hidden, d_in, "relu"), dense_spec(d_out, d_hidden)]
    return layers_report(n_batch, specs)


def _c_forward(n_batch: int, s: KronShape) -> int:
    # leading forward aggregate per rank term: 2Nn*m2 + 2Nm*n1 - N*m2*(n1 + m1)
    return (
        2 * n_batch * s.n * s.m2
        + 2 * n_batch * s.m * s.n1
        - n_batch * s.m2 * (s.n1 + s.m1)
    )


def _c_backward(n_batch: int, s: KronShape) -> int:
    # leading backward aggregate incl. the rank factor:
    # r*N*n1*(4m - m2) + 2*r*N*n*m2
    return s.r * n_batch * s.n1 * (4 * s.m - s.m2) + 2 * s.r * n_batch * s.n * s.m2


def two_layer_kron_report(n_batch: int, s1: KronShape, s2: KronShape) -> FlopReport:
    """Two-layer relu regression model with factored weights (exact sums).

    Layer 1 maps s1.n -> s1.m, layer 2 maps s2.n -> s2.m; requires
    s1.m == s2.n. ``constants`` exposes the leading-term aggregates C1/C2
    (forward, per rank term) and C3/C4 (backward, rank included).
    """
    rep = layers_report(n_batch, [kron_spec(s1, "relu"), kron_spec(s2)])
    rep.constants = {
        "C1": _c_forward(n_batch, s1),
        "C2": _c_forward(n_batch, s2),
        "C3": _c_backward(n_batch, s2),
        "C4": _c_backward(n_batch, s1),
    }
    return rep


def kron_forward_matmul_flops(n_batch: int, s: KronShape) -> int:
    """Flops of one fold-path ``factor.forward`` (no loss): the sum of its
    forward pieces. perfbench's tracer prices each traced call with it."""
    return sum(_kron_forward_pieces(n_batch, s).values())


def kron_backward_flops(n_batch: int, s: KronShape) -> int:
    """``kron_layer_report(n_batch, s).backward``: a single-layer model's
    backward on its ``train_path``, without the input gradient. perfbench's
    tracer prices each traced ``factor.backward`` call from it."""
    return kron_layer_report(n_batch, s).backward


# ---------------------------------------------------------------------------
# instrumented counter: one counted training step of the real network code
# ---------------------------------------------------------------------------


# Tag prefix -> the input names of its weights, in layer order.
_TAG_WEIGHTS = {
    "dense": ("w",),
    "kron": ("factor",),
    "two_layer_dense": ("w1", "w2"),
    "two_layer_kron": ("f1", "f2"),
}
TAGS = tuple(f"{prefix}_{phase}" for prefix in _TAG_WEIGHTS for phase in ("forward", "backward"))


def counted_step(net, x, y) -> tuple[int, int]:
    """Forward and backward flops of one training step of ``net`` on
    ``(x, y)``: ``network.net_forward`` then the training
    ``network.net_backward`` (no gradient w.r.t. the network input) under the
    squared loss the 2-D ``y`` picks, counted op by op. The forward phase ends
    with the loss's sum of squares; the backward phase is every op after it."""
    from . import network  # network imports this module

    with counting() as ops:
        _, cache = network.net_forward(net, x)
        network.net_backward(net, cache, y, False)
    split = [name for name, _ in ops].index("sq_sum") + 1
    return sum(flops for _, flops in ops[:split]), sum(flops for _, flops in ops[split:])


def instrumented_count(tag: str, **inputs) -> int:
    """Run ``counted_step`` on the tagged model and return the exact number of
    scalar multiply/add/subtract operations of the tag's phase.

    Tags (``TAGS``): dense_forward, dense_backward, kron_forward,
    kron_backward, two_layer_dense_forward, two_layer_dense_backward,
    two_layer_kron_forward, two_layer_kron_backward. The inputs are ``x``,
    ``y`` and the weights: ``w``, ``factor``, ``w1``/``w2`` or ``f1``/``f2``
    (a dense matrix or a ``KronFactor`` each). The two-layer models put a
    relu after the first layer.
    """
    from . import network

    if tag not in TAGS:
        raise ValueError(f"unknown computation tag {tag!r}; known: {sorted(TAGS)}")
    prefix, _, phase = tag.rpartition("_")
    keys = _TAG_WEIGHTS[prefix]
    layers = []
    for idx, key in enumerate(keys):
        weight, activation = inputs[key], "relu" if idx < len(keys) - 1 else "identity"
        if isinstance(weight, KronFactor):
            layers.append(network.Layer(kron_spec(weight.shape, activation), factor=weight))
        else:
            layers.append(network.Layer(dense_spec(*weight.shape, activation), w=weight))
    forward, backward = counted_step(network.Network(layers), inputs["x"], inputs["y"])
    return forward if phase == "forward" else backward
