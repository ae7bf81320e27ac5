"""Exact flop accounting for dense and factored layers.

Two independent routes are kept deliberately separate and compared in tests:

* the *analytic* cost model: per-layer forward and backward pieces (exact
  integers, pre-asymptotic) that ``layers_report`` sums over a layer list;
  every closed form and report below is such a sum, and
* the *instrumented* counter, which walks a layer list in the order of
  ``network.net_forward`` / ``network.net_backward_params`` (the training
  step: forward, then the backward the trainers run) and executes every
  operation with numpy, one counted helper per operation. Each helper returns
  its result with the flops it cost, derived from the operand shapes: one flop
  per scalar multiply/add/subtract (a multiply-accumulate is two), so a
  ``(p, q) @ (q, s)`` matmul costs ``p*s*(2q-1)``, a sum of squares
  ``2*size - 1`` and every other element-wise helper ``size``.

Both routes read a model as a list of ``(layer, activation)`` pairs. For the
cost model a layer is its dimensions: a ``KronShape``, or ``(m, n)`` for a
dense layer. For the counter it is its weight: a ``KronFactor``, or the dense
``m x n`` matrix (so the ``.shape`` of a weight is its dimensions).

Convention notes (required to reproduce the exact totals):
  * the loss is ||O - Y||_F^2 whatever loss trains the model; it costs
    3*N*m - 1 (subtract, square, sum-reduce),
  * the backward seed 2*(O - Y) costs N*m (the difference is reused from the
    forward pass),
  * relu costs one flop per scalar; its backward mask product costs one flop
    per scalar (the 0/1 mask itself is free); every other activation passes
    its input through at no cost,
  * the input gradient is counted for every layer but the first, as
    ``network.net_backward_params`` computes it (training never reads the
    gradient w.r.t. the network input),
  * comparisons, reshapes and folds cost nothing,
  * parameter updates are one flop per trainable A/B parameter for factored
    layers (r*(m1*n1 + m2*n2)) and m*n for a dense layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factor import KronFactor, KronShape
from .linalg import fold_input, fold_mid, fold_output, unfold_input, unfold_mid, unfold_output


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


def _kron_forward_pieces(n_batch: int, s: KronShape) -> dict[str, int]:
    return {
        "b_matmul": s.r * n_batch * s.n1 * s.m2 * (2 * s.n2 - 1),
        "mask_products": s.r * s.m1 * s.n1,
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
        "s_grad": s.r * ss + (s.r - 1) * ss,
        "a_grad": s.r * ss,
        "mid_grad": s.r * n_batch * s.m2 * s.n1 * (2 * s.m1 - 1),
        "b_grad": s.r * s.m2 * s.n2 * (2 * n_batch * s.n1 - 1),
    }
    if with_dx:
        pieces["input_grad"] = (
            s.r * n_batch * s.n1 * s.n2 * (2 * s.m2 - 1) + (s.r - 1) * n_batch * s.n
        )
    return pieces


def dense_update_flops(m: int, n: int) -> int:
    return m * n


def kron_update_flops(s: KronShape) -> int:
    return s.r * (s.m1 * s.n1 + s.m2 * s.n2)


def _dims(layer) -> tuple[int, int]:
    """(m, n) of a cost-model layer: a ``KronShape`` or a dense ``(m, n)``."""
    return (layer.m, layer.n) if isinstance(layer, KronShape) else tuple(layer)


def _layer_pieces(n_batch: int, layer, with_dx: bool):
    """Forward pieces, backward pieces and update flops of one layer."""
    if isinstance(layer, KronShape):
        return (
            _kron_forward_pieces(n_batch, layer),
            _kron_backward_pieces(n_batch, layer, with_dx),
            kron_update_flops(layer),
        )
    m, n = layer
    return (
        _dense_forward_pieces(n_batch, m, n),
        _dense_backward_pieces(n_batch, m, n, with_dx),
        dense_update_flops(m, n),
    )


def layers_report(n_batch: int, layers: list) -> FlopReport:
    """Exact flops of one training step of a model given as ``(dims,
    activation)`` pairs (``dims`` a ``KronShape`` or a dense ``(m, n)``), in
    the order ``network.net_forward`` and ``net_backward_params`` run.

    Breakdown keys are ``forward.<piece>`` and ``backward.<piece>``, with the
    piece prefixed ``layer<i>.`` when the model has more than one layer; relu
    costs add up under ``forward.activation`` and ``backward.activation_mask``.
    """
    for (prev, _), (nxt, _) in zip(layers, layers[1:]):
        if _dims(prev)[0] != _dims(nxt)[1]:
            raise ValueError(f"layer dims incompatible: {_dims(prev)[0]} -> {_dims(nxt)[1]}")
    n = n_batch
    pieces = [_layer_pieces(n, dims, idx > 0) for idx, (dims, _) in enumerate(layers)]
    prefixes = [f"layer{idx + 1}." if len(layers) > 1 else "" for idx in range(len(layers))]
    out_dim = _dims(layers[-1][0])[0]

    fwd: dict[str, int] = {}
    for (dims, activation), (f_pieces, _, _), prefix in zip(layers, pieces, prefixes):
        fwd.update({prefix + k: v for k, v in f_pieces.items()})
        if activation == "relu":
            fwd["activation"] = fwd.get("activation", 0) + n * _dims(dims)[0]
    fwd["loss"] = 3 * n * out_dim - 1

    bwd = {"seed": n * out_dim}
    for (dims, activation), (_, b_pieces, _), prefix in reversed(
        list(zip(layers, pieces, prefixes))
    ):
        if activation == "relu":
            bwd["activation_mask"] = bwd.get("activation_mask", 0) + n * _dims(dims)[0]
        bwd.update({prefix + k: v for k, v in b_pieces.items()})

    upd = sum(u for _, _, u in pieces)
    breakdown = {f"forward.{k}": v for k, v in fwd.items()}
    breakdown.update({f"backward.{k}": v for k, v in bwd.items()})
    breakdown["update.params"] = upd
    return FlopReport(sum(fwd.values()), sum(bwd.values()), upd, breakdown)


def dense_layer_report(n_batch: int, m: int, n: int) -> FlopReport:
    return layers_report(n_batch, [((m, n), "identity")])


def kron_layer_report(n_batch: int, s: KronShape) -> FlopReport:
    return layers_report(n_batch, [(s, "identity")])


def two_layer_dense_report(n_batch: int, d_in: int, d_hidden: int, d_out: int) -> FlopReport:
    """Two-layer relu regression model with dense weights (exact sums)."""
    return layers_report(n_batch, [((d_hidden, d_in), "relu"), ((d_out, d_hidden), "identity")])


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
    rep = layers_report(n_batch, [(s1, "relu"), (s2, "identity")])
    rep.constants = {
        "C1": _c_forward(n_batch, s1),
        "C2": _c_forward(n_batch, s2),
        "C3": _c_backward(n_batch, s2),
        "C4": _c_backward(n_batch, s1),
    }
    return rep


def dense_forward_flops(n_batch: int, m: int, n: int) -> int:
    """Dense layer forward incl. squared loss: Nm(2n-1) + 3Nm - 1."""
    return dense_layer_report(n_batch, m, n).forward


def dense_backward_flops(n_batch: int, m: int, n: int) -> int:
    """Dense layer backward: Nm (seed) + mn(2N-1) (weight gradient)."""
    return dense_layer_report(n_batch, m, n).backward


def kron_forward_matmul_flops(n_batch: int, s: KronShape) -> int:
    """Flops to produce the layer output (loss excluded):
    r(N*m1*m2*(2n1-1) + m1*n1 + N*n1*m2*(2n2-1)) + (r-1)*N*m."""
    return sum(_kron_forward_pieces(n_batch, s).values())


def kron_forward_flops(n_batch: int, s: KronShape) -> int:
    """Factored layer forward incl. squared loss."""
    return kron_layer_report(n_batch, s).forward


def kron_backward_flops(n_batch: int, s: KronShape) -> int:
    """Factored layer backward (single-layer model, no input gradient):
    Nm + r*m1n1*(2Nm2-1) + r*m1n1 + (r-1)*m1n1 + r*m1n1
    + r*N*m2*n1*(2m1-1) + r*m2n2*(2Nn1-1)."""
    return kron_layer_report(n_batch, s).backward


def materialized_forward_flops(n_batch: int, s: KronShape) -> int:
    """Flops to produce the layer output by building W and one GEMM:
    r*m1*n1 (S * A_i) + r*m*n (Kronecker products) + (r-1)*m*n (rank sum)
    + N*m*(2n-1) (X @ W.T)."""
    return (
        s.r * s.m1 * s.n1
        + s.r * s.m * s.n
        + (s.r - 1) * s.m * s.n
        + n_batch * s.m * (2 * s.n - 1)
    )


def forward_path(n_batch: int, s: KronShape) -> str:
    """Inference path of a factored layer at this batch size: ``"materialized"``
    when building W plus one GEMM costs no more flops than the fold path,
    ``"fold"`` otherwise. Training always takes the fold path."""
    if materialized_forward_flops(n_batch, s) <= kron_forward_matmul_flops(n_batch, s):
        return "materialized"
    return "fold"


# ---------------------------------------------------------------------------
# instrumented counter: executes a layer list with counted helpers
# ---------------------------------------------------------------------------


def _counted_matmul(a, b):
    # (p, q) @ (q, s): per output element q multiplies + (q - 1) adds.
    p, q = a.shape
    return a @ b, p * b.shape[1] * (2 * q - 1)


def _counted_hadamard(a, b):
    return a * b, a.size


def _counted_add(a, b):
    return a + b, a.size


def _counted_sub(a, b):
    return a - b, a.size


def _counted_scale(a, c):
    return c * a, a.size


def _counted_sq_sum(a):
    # sum of squares: one multiply per element, size - 1 adds.
    return float(np.sum(a * a)), 2 * a.size - 1


def _counted_relu(a):
    # max(x, 0): one flop per scalar, per the cost model's activation rule.
    return np.where(a > 0.0, a, 0.0), a.size


def _counted_mask_mul(g, pre):
    # g * relu'(pre): the element-wise product is counted, the 0/1 mask is free.
    return np.where(pre > 0.0, g, 0.0), g.size


class _Tally:
    """Running flop total: ``tally(helper(...))`` adds the counted helper's
    flops and returns its result."""

    def __init__(self):
        self.flops = 0

    def __call__(self, counted):
        result, flops = counted
        self.flops += flops
        return result


def _sum_terms(terms: list, tally: _Tally):
    # a sum over rank terms starts from the first term: r - 1 adds
    acc = terms[0]
    for term in terms[1:]:
        acc = tally(_counted_add(acc, term))
    return acc


def _walk_forward(layers: list, x, y, tally: _Tally):
    """``net_forward`` of ``layers`` plus the squared loss, counted into
    ``tally``. Returns the residual O - Y and, per layer, what the backward
    walk reuses: (input, pre-activation, fold intermediates or None)."""
    saved, cur = [], x
    for weight, activation in layers:
        if isinstance(weight, KronFactor):
            sh = weight.shape
            xf = fold_input(cur, sh.n1, sh.n2)
            mids = [fold_mid(tally(_counted_matmul(b_i, xf)), sh.n1) for b_i in weight.b]
            sas = [tally(_counted_hadamard(weight.s, a_i)) for a_i in weight.a]
            terms = [tally(_counted_matmul(mid, sa.T)) for mid, sa in zip(mids, sas)]
            pre = fold_output(_sum_terms(terms, tally), sh.m2)
            saved.append((cur, pre, (xf, mids, sas)))
        else:
            pre = tally(_counted_matmul(cur, weight.T))
            saved.append((cur, pre, None))
        cur = tally(_counted_relu(pre)) if activation == "relu" else pre
    diff = tally(_counted_sub(cur, y))
    tally(_counted_sq_sum(diff))
    return diff, saved


def counted_forward(layers: list, x, y) -> tuple[int, np.ndarray]:
    """Counted forward pass plus squared loss of ``(weight, activation)``
    layers: the flops and the residual O - Y."""
    tally = _Tally()
    diff, _ = _walk_forward(layers, x, y, tally)
    return tally.flops, diff


def counted_backward(layers: list, x, y) -> int:
    """Counted backward pass of ``(weight, activation)`` layers after their
    forward pass and squared loss: the flops from the seed on. The walk
    mirrors ``network.net_backward_params``, the backward that trains: same
    layer order, and no input gradient for the first layer."""
    diff, saved = _walk_forward(layers, x, y, _Tally())
    tally = _Tally()
    d_act = tally(_counted_scale(diff, 2.0))
    for idx in range(len(layers) - 1, -1, -1):
        weight, activation = layers[idx]
        x_in, pre, fold = saved[idx]
        d_pre = tally(_counted_mask_mul(d_act, pre)) if activation == "relu" else d_act
        if isinstance(weight, KronFactor):
            sh = weight.shape
            xf, mids, sas = fold
            d_of = unfold_output(d_pre, sh.m2)
            # G_i, the gradient w.r.t. S * A_i; dS = sum_i G_i * A_i; dA_i = G_i * S
            grads = [tally(_counted_matmul(d_of.T, mid)) for mid in mids]
            _sum_terms([tally(_counted_hadamard(g, a)) for g, a in zip(grads, weight.a)], tally)
            for g in grads:
                tally(_counted_hadamard(g, weight.s))
            # dB_i = unfold_mid(d_of @ (S * A_i)) @ fold(X).T
            d_mids = [unfold_mid(tally(_counted_matmul(d_of, sa)), sh.m2) for sa in sas]
            for d_mid in d_mids:
                tally(_counted_matmul(d_mid, xf.T))
            if idx > 0:  # dX = unfold_in(sum_i B_i.T @ d_mid_i)
                d_xf = _sum_terms(
                    [tally(_counted_matmul(b_i.T, d_mid)) for b_i, d_mid in zip(weight.b, d_mids)],
                    tally,
                )
                d_act = unfold_input(d_xf, sh.n1)
        else:
            tally(_counted_matmul(d_pre.T, x_in))
            if idx > 0:
                d_act = tally(_counted_matmul(d_pre, weight))
    return tally.flops


# Tag prefix -> the (weight, activation) layers built from the tag's inputs.
_TAGS = {
    "dense": lambda kw: [(kw["w"], "identity")],
    "kron": lambda kw: [(kw["factor"], "identity")],
    "two_layer_dense": lambda kw: [(kw["w1"], "relu"), (kw["w2"], "identity")],
    "two_layer_kron": lambda kw: [(kw["f1"], "relu"), (kw["f2"], "identity")],
}
TAGS = tuple(f"{prefix}_{phase}" for prefix in _TAGS for phase in ("forward", "backward"))


def instrumented_count(tag: str, **inputs) -> int:
    """Execute the tagged computation with the counted helpers and return the
    exact number of scalar multiply/add/subtract operations performed.

    Tags (``TAGS``): dense_forward, dense_backward, kron_forward,
    kron_backward, two_layer_dense_forward, two_layer_dense_backward,
    two_layer_kron_forward, two_layer_kron_backward. The two-layer models put
    a relu after the first layer.
    """
    if tag not in TAGS:
        raise ValueError(f"unknown computation tag {tag!r}; known: {sorted(TAGS)}")
    inputs = {
        k: (np.ascontiguousarray(v, dtype=np.float64) if isinstance(v, np.ndarray) else v)
        for k, v in inputs.items()
    }
    prefix, _, phase = tag.rpartition("_")
    layers = _TAGS[prefix](inputs)
    if phase == "forward":
        return int(counted_forward(layers, inputs["x"], inputs["y"])[0])
    return int(counted_backward(layers, inputs["x"], inputs["y"]))
