"""Exact flop accounting for dense and factored layers.

Two independent routes are kept deliberately separate and compared in tests:

* the *analytic* closed forms below (pre-asymptotic, exact integers), and
* the *instrumented* counter, which actually executes the tagged computation
  with numpy, one counted helper per operation. Each helper returns its result
  with the flops it cost, derived from the operand shapes: one flop per scalar
  multiply/add/subtract (a multiply-accumulate is two), so a ``(p, q) @ (q, s)``
  matmul costs ``p*s*(2q-1)``, a sum of squares ``2*size - 1`` and every other
  element-wise helper ``size``.

Convention notes (required to reproduce the exact totals):
  * loss ||O - Y||_F^2 costs 3*N*m - 1 (subtract, square, sum-reduce),
  * the backward seed 2*(O - Y) costs N*m (the difference is reused from the
    forward pass),
  * relu costs one flop per scalar; its backward mask product costs one flop
    per scalar (the 0/1 mask itself is free),
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
# analytic closed forms
# ---------------------------------------------------------------------------


def dense_forward_flops(n_batch: int, m: int, n: int) -> int:
    """Dense layer forward incl. squared loss: Nm(2n-1) + 3Nm - 1."""
    return n_batch * m * (2 * n - 1) + 3 * n_batch * m - 1


def dense_backward_flops(n_batch: int, m: int, n: int) -> int:
    """Dense layer backward: Nm (seed) + mn(2N-1) (weight gradient)."""
    return n_batch * m + m * n * (2 * n_batch - 1)


def dense_update_flops(m: int, n: int) -> int:
    return m * n


def kron_forward_matmul_flops(n_batch: int, s: KronShape) -> int:
    """Flops to produce the layer output (loss excluded):
    r(N*m1*m2*(2n1-1) + m1*n1 + N*n1*m2*(2n2-1)) + (r-1)*N*m."""
    per_term = (
        n_batch * s.m1 * s.m2 * (2 * s.n1 - 1)
        + s.m1 * s.n1
        + n_batch * s.n1 * s.m2 * (2 * s.n2 - 1)
    )
    return s.r * per_term + (s.r - 1) * n_batch * s.m


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


def kron_forward_flops(n_batch: int, s: KronShape) -> int:
    """Factored layer forward incl. squared loss."""
    return kron_forward_matmul_flops(n_batch, s) + 3 * n_batch * s.m - 1


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


def kron_backward_flops(n_batch: int, s: KronShape) -> int:
    """Factored layer backward (single-layer model, no input gradient):
    Nm + r*m1n1*(2Nm2-1) + r*m1n1 + (r-1)*m1n1 + r*m1n1
    + r*N*m2*n1*(2m1-1) + r*m2n2*(2Nn1-1)."""
    return n_batch * s.m + sum(_kron_backward_pieces(n_batch, s, with_dx=False).values())


def kron_update_flops(s: KronShape) -> int:
    return s.r * (s.m1 * s.n1 + s.m2 * s.n2)


def dense_layer_report(n_batch: int, m: int, n: int) -> FlopReport:
    breakdown = {
        "forward.matmul": n_batch * m * (2 * n - 1),
        "forward.loss": 3 * n_batch * m - 1,
        "backward.seed": n_batch * m,
        "backward.weight_grad": m * n * (2 * n_batch - 1),
        "update.params": dense_update_flops(m, n),
    }
    rep = FlopReport(
        forward=dense_forward_flops(n_batch, m, n),
        backward=dense_backward_flops(n_batch, m, n),
        update=dense_update_flops(m, n),
        breakdown=breakdown,
    )
    rep.check()
    return rep


def kron_layer_report(n_batch: int, s: KronShape) -> FlopReport:
    bwd = _kron_backward_pieces(n_batch, s, with_dx=False)
    breakdown = {
        "forward.b_matmul": s.r * n_batch * s.n1 * s.m2 * (2 * s.n2 - 1),
        "forward.mask_products": s.r * s.m1 * s.n1,
        "forward.a_matmul": s.r * n_batch * s.m1 * s.m2 * (2 * s.n1 - 1),
        "forward.rank_sum": (s.r - 1) * n_batch * s.m,
        "forward.loss": 3 * n_batch * s.m - 1,
        "backward.seed": n_batch * s.m,
    }
    breakdown.update({f"backward.{k}": v for k, v in bwd.items()})
    breakdown["update.params"] = kron_update_flops(s)
    rep = FlopReport(
        forward=kron_forward_flops(n_batch, s),
        backward=kron_backward_flops(n_batch, s),
        update=kron_update_flops(s),
        breakdown=breakdown,
    )
    rep.check()
    return rep


def two_layer_dense_report(n_batch: int, d_in: int, d_hidden: int, d_out: int) -> FlopReport:
    """Two-layer relu regression model with dense weights (exact sums)."""
    n = n_batch
    breakdown = {
        "forward.layer1.matmul": n * d_hidden * (2 * d_in - 1),
        "forward.activation": n * d_hidden,
        "forward.layer2.matmul": n * d_out * (2 * d_hidden - 1),
        "forward.loss": 3 * n * d_out - 1,
        "backward.seed": n * d_out,
        "backward.layer2.weight_grad": d_hidden * d_out * (2 * n - 1),
        "backward.layer2.input_grad": n * d_hidden * (2 * d_out - 1),
        "backward.activation_mask": n * d_hidden,
        "backward.layer1.weight_grad": d_in * d_hidden * (2 * n - 1),
    }
    fwd = sum(v for k, v in breakdown.items() if k.startswith("forward."))
    bwd = sum(v for k, v in breakdown.items() if k.startswith("backward."))
    upd = d_in * d_hidden + d_hidden * d_out
    breakdown["update.params"] = upd
    rep = FlopReport(forward=fwd, backward=bwd, update=upd, breakdown=breakdown)
    rep.check()
    return rep


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
    if s1.m != s2.n:
        raise ValueError(f"layer dims incompatible: {s1.m} -> {s2.n}")
    n = n_batch
    l2_bwd = _kron_backward_pieces(n, s2, with_dx=True)
    l1_bwd = _kron_backward_pieces(n, s1, with_dx=False)
    breakdown = {
        "forward.layer1.b_matmul": s1.r * n * s1.n1 * s1.m2 * (2 * s1.n2 - 1),
        "forward.layer1.mask_products": s1.r * s1.m1 * s1.n1,
        "forward.layer1.a_matmul": s1.r * n * s1.m1 * s1.m2 * (2 * s1.n1 - 1),
        "forward.layer1.rank_sum": (s1.r - 1) * n * s1.m,
        "forward.activation": n * s1.m,
        "forward.layer2.b_matmul": s2.r * n * s2.n1 * s2.m2 * (2 * s2.n2 - 1),
        "forward.layer2.mask_products": s2.r * s2.m1 * s2.n1,
        "forward.layer2.a_matmul": s2.r * n * s2.m1 * s2.m2 * (2 * s2.n1 - 1),
        "forward.layer2.rank_sum": (s2.r - 1) * n * s2.m,
        "forward.loss": 3 * n * s2.m - 1,
        "backward.seed": n * s2.m,
    }
    breakdown.update({f"backward.layer2.{k}": v for k, v in l2_bwd.items()})
    breakdown["backward.activation_mask"] = n * s1.m
    breakdown.update({f"backward.layer1.{k}": v for k, v in l1_bwd.items()})
    fwd = sum(v for k, v in breakdown.items() if k.startswith("forward."))
    bwd = sum(v for k, v in breakdown.items() if k.startswith("backward."))
    upd = kron_update_flops(s1) + kron_update_flops(s2)
    breakdown["update.params"] = upd
    rep = FlopReport(
        forward=fwd,
        backward=bwd,
        update=upd,
        breakdown=breakdown,
        constants={
            "C1": _c_forward(n, s1),
            "C2": _c_forward(n, s2),
            "C3": _c_backward(n, s2),
            "C4": _c_backward(n, s1),
        },
    )
    rep.check()
    return rep


# ---------------------------------------------------------------------------
# instrumented counter: executes the tagged computation with counted helpers
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


def _counted_dense_out(x, w):
    return _counted_matmul(x, w.T)


def _counted_loss(o, y):
    diff, c1 = _counted_sub(o, y)
    _, c2 = _counted_sq_sum(diff)
    return diff, c1 + c2


def counted_dense_forward(x, w, y):
    o, f1 = _counted_dense_out(x, w)
    diff, f2 = _counted_loss(o, y)
    return {"flops": f1 + f2, "diff": diff}


def counted_dense_backward(x, w, y):
    fwd = counted_dense_forward(x, w, y)
    d_o, c1 = _counted_scale(fwd["diff"], 2.0)
    _, c2 = _counted_matmul(d_o.T, x)
    return {"flops": c1 + c2}


def _counted_kron_out(factor: KronFactor, x):
    """Factored layer output with counting; returns intermediates for backward."""
    sh = factor.shape
    xf = fold_input(x, sh.n1, sh.n2)
    flops = 0
    acc = None
    mids, sas = [], []
    for a_i, b_i in zip(factor.a, factor.b):
        raw_mid, c = _counted_matmul(b_i, xf)
        flops += c
        mid = fold_mid(raw_mid, sh.n1)
        sa, c = _counted_hadamard(factor.s, a_i)
        flops += c
        term, c = _counted_matmul(mid, sa.T)
        flops += c
        if acc is None:
            acc = term
        else:
            acc, c = _counted_add(acc, term)
            flops += c
        mids.append(mid)
        sas.append(sa)
    o = fold_output(acc, sh.m2)
    return o, xf, mids, sas, flops


def counted_kron_forward(factor: KronFactor, x, y):
    o, xf, mids, sas, flops = _counted_kron_out(factor, x)
    diff, c = _counted_loss(o, y)
    return {"flops": flops + c, "diff": diff, "xf": xf, "mids": mids, "sas": sas}


def _counted_kron_layer_backward(factor, xf, mids, sas, d_of, with_dx):
    """Backward flops for one factored layer given the already-folded upstream
    gradient d_of (N*m2 x m1). Counts exactly the closed-form chain; the input
    gradient is counted only when with_dx."""
    sh = factor.shape
    flops = 0
    d_s = None
    d_xf = None
    for i in range(sh.r):
        g, c = _counted_matmul(d_of.T, mids[i])
        flops += c
        ga, c = _counted_hadamard(g, factor.a[i])
        flops += c
        if d_s is None:
            d_s = ga
        else:
            d_s, c = _counted_add(d_s, ga)
            flops += c
        _, c = _counted_hadamard(g, factor.s)
        flops += c
        d_mid_folded, c = _counted_matmul(d_of, sas[i])
        flops += c
        d_mid = unfold_mid(d_mid_folded, sh.m2)
        _, c = _counted_matmul(d_mid, xf.T)
        flops += c
        if with_dx:
            term, c = _counted_matmul(factor.b[i].T, d_mid)
            flops += c
            if d_xf is None:
                d_xf = term
            else:
                d_xf, c = _counted_add(d_xf, term)
                flops += c
    return flops, d_xf


def counted_kron_backward(factor: KronFactor, x, y):
    fwd = counted_kron_forward(factor, x, y)
    sh = factor.shape
    d_o, flops = _counted_scale(fwd["diff"], 2.0)
    d_of = unfold_output(d_o, sh.m2)
    c, _ = _counted_kron_layer_backward(factor, fwd["xf"], fwd["mids"], fwd["sas"], d_of, False)
    return {"flops": flops + c}


def counted_two_layer_dense_forward(x, w1, w2, y):
    o1, f1 = _counted_dense_out(x, w1)
    x2, f2 = _counted_relu(o1)
    o2, f3 = _counted_dense_out(x2, w2)
    diff, f4 = _counted_loss(o2, y)
    return {"flops": f1 + f2 + f3 + f4, "diff": diff, "o1": o1, "x2": x2}


def counted_two_layer_dense_backward(x, w1, w2, y):
    fwd = counted_two_layer_dense_forward(x, w1, w2, y)
    d_o2, c1 = _counted_scale(fwd["diff"], 2.0)
    _, c2 = _counted_matmul(d_o2.T, fwd["x2"])
    d_x2, c3 = _counted_matmul(d_o2, w2)
    d_o1, c4 = _counted_mask_mul(d_x2, fwd["o1"])
    _, c5 = _counted_matmul(d_o1.T, x)
    return {"flops": c1 + c2 + c3 + c4 + c5}


def counted_two_layer_kron_forward(f1: KronFactor, f2: KronFactor, x, y):
    o1, xf1, mids1, sas1, c1 = _counted_kron_out(f1, x)
    x2, c2 = _counted_relu(o1)
    o2, xf2, mids2, sas2, c3 = _counted_kron_out(f2, x2)
    diff, c4 = _counted_loss(o2, y)
    return {
        "flops": c1 + c2 + c3 + c4,
        "diff": diff,
        "o1": o1,
        "layer1": (xf1, mids1, sas1),
        "layer2": (xf2, mids2, sas2),
    }


def counted_two_layer_kron_backward(f1: KronFactor, f2: KronFactor, x, y):
    fwd = counted_two_layer_kron_forward(f1, f2, x, y)
    xf1, mids1, sas1 = fwd["layer1"]
    xf2, mids2, sas2 = fwd["layer2"]
    d_o2, flops = _counted_scale(fwd["diff"], 2.0)
    d_of2 = unfold_output(d_o2, f2.shape.m2)
    c, d_xf2 = _counted_kron_layer_backward(f2, xf2, mids2, sas2, d_of2, True)
    flops += c
    d_x2 = unfold_input(d_xf2, f2.shape.n1)
    d_o1, c = _counted_mask_mul(d_x2, fwd["o1"])
    flops += c
    d_of1 = unfold_output(d_o1, f1.shape.m2)
    c, _ = _counted_kron_layer_backward(f1, xf1, mids1, sas1, d_of1, False)
    flops += c
    return {"flops": flops}


_TAGS = {
    "dense_forward": lambda kw: counted_dense_forward(kw["x"], kw["w"], kw["y"]),
    "dense_backward": lambda kw: counted_dense_backward(kw["x"], kw["w"], kw["y"]),
    "kron_forward": lambda kw: counted_kron_forward(kw["factor"], kw["x"], kw["y"]),
    "kron_backward": lambda kw: counted_kron_backward(kw["factor"], kw["x"], kw["y"]),
    "two_layer_dense_forward": lambda kw: counted_two_layer_dense_forward(
        kw["x"], kw["w1"], kw["w2"], kw["y"]
    ),
    "two_layer_dense_backward": lambda kw: counted_two_layer_dense_backward(
        kw["x"], kw["w1"], kw["w2"], kw["y"]
    ),
    "two_layer_kron_forward": lambda kw: counted_two_layer_kron_forward(
        kw["f1"], kw["f2"], kw["x"], kw["y"]
    ),
    "two_layer_kron_backward": lambda kw: counted_two_layer_kron_backward(
        kw["f1"], kw["f2"], kw["x"], kw["y"]
    ),
}


def instrumented_count(tag: str, **inputs) -> int:
    """Execute the tagged computation with the counted helpers and return the
    exact number of scalar multiply/add/subtract operations performed.

    Tags: dense_forward, dense_backward, kron_forward, kron_backward,
    two_layer_dense_forward, two_layer_dense_backward, two_layer_kron_forward,
    two_layer_kron_backward.
    """
    if tag not in _TAGS:
        raise ValueError(f"unknown computation tag {tag!r}; known: {sorted(_TAGS)}")
    inputs = {
        k: (np.ascontiguousarray(v, dtype=np.float64) if isinstance(v, np.ndarray) else v)
        for k, v in inputs.items()
    }
    return int(_TAGS[tag](inputs)["flops"])
