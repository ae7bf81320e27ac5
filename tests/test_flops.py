import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronblock as kb
from kronblock import KronShape
from kronblock import flops as fl
from kronblock import linalg
from kronblock.flops import (
    dense_layer_report,
    instrumented_count,
    kron_backward_flops,
    kron_layer_report,
    train_path,
    two_layer_dense_report,
    two_layer_kron_report,
)
from kronblock.linalg import counting
from kronblock.network import THIN_WEIGHT_ROWS, product_orientation

from conftest import layer_forward_identity, random_dense_factor, random_mixed_net, random_shape


def test_dense_forward_closed_form():
    assert dense_layer_report(1, 1, 1).forward == 3
    # 784 -> 10 linear model: 10*(2*784 - 1) + 3*10 - 1 = 15670 + 29
    assert dense_layer_report(1, 10, 784).forward == 15699


def test_dense_forward_asymptotic():
    # leading term 2Nm(n+1)
    n = 100_000
    ratio = dense_layer_report(2, 3, n).forward / (2 * 2 * 3 * (n + 1))
    assert abs(ratio - 1.0) < 1e-3


def test_dense_backward_closed_form():
    assert dense_layer_report(1, 1, 1).backward == 2
    assert dense_layer_report(2, 3, 4).backward == 42


def test_dense_backward_asymptotic():
    # leading term Nm(2n+1) (exact as both N and n grow)
    n_batch = n = 10_000
    ratio = dense_layer_report(n_batch, 3, n).backward / (n_batch * 3 * (2 * n + 1))
    assert abs(ratio - 1.0) < 1e-3


def test_kron_forward_degenerate():
    assert kron_layer_report(1, KronShape(1, 1, 1, 1, 1)).forward == 5


def test_kron_forward_matches_counter_example1_shape(rng):
    shape = KronShape(4, 8, 2, 32, 1)
    f = random_dense_factor(shape, rng)
    x = rng.standard_normal((1, shape.n))
    y = rng.standard_normal((1, shape.m))
    counted = instrumented_count("kron_forward", factor=f, x=x, y=y)
    assert kron_layer_report(1, shape).forward == counted


def test_kron_forward_reduction_is_shape_dependent():
    # 10 x 784 linear model: the wide-block shape reduces flops at rank 2 and
    # the (2,2) shape does at rank 1; the (2,2) shape at rank 2 does NOT
    # (exact counting rules that combination out).
    dense = dense_layer_report(1, 10, 784).forward
    assert kron_layer_report(1, KronShape(5, 49, 2, 16, 2)).forward < dense
    assert kron_layer_report(1, KronShape(5, 392, 2, 2, 1)).forward < dense
    assert kron_layer_report(1, KronShape(5, 392, 2, 2, 2)).forward > dense


def test_kron_backward_degenerate():
    # r=1, all dims 1, N=1: Nm + m1n1(2Nm2-1) + m1n1 + 0 + m1n1 + Nm2n1(2m1-1) + m2n2(2Nn1-1)
    assert kron_backward_flops(1, KronShape(1, 1, 1, 1, 1)) == 6


def test_kron_backward_matches_counter(rng):
    shape = KronShape(3, 2, 2, 4, 2)
    f = random_dense_factor(shape, rng)
    x = rng.standard_normal((3, shape.n))
    y = rng.standard_normal((3, shape.m))
    assert kron_backward_flops(3, shape) == instrumented_count("kron_backward", factor=f, x=x, y=y)


def test_kron_backward_leading_term():
    # each training path's backward against its leading term; the report
    # counts the path train_path picks (here the materialized one)
    sh = KronShape(3, 4, 2, 5, 2)
    n = 200_000
    fold = n * sh.m + sum(fl._kron_backward_pieces(n, sh, False).values())
    fold_bound = n * sh.m + n * sh.r * (
        4 * sh.m1 * sh.m2 * sh.n1 - sh.m2 * sh.n1 + 2 * sh.m2 * sh.n1 * sh.n2
    )
    materialized = n * sh.m + sum(fl._materialized_backward_pieces(n, sh, False).values())
    materialized_bound = n * sh.m + 2 * n * sh.m * sh.n
    assert abs(fold / fold_bound - 1.0) < 1e-3
    assert abs(materialized / materialized_bound - 1.0) < 1e-3
    assert train_path(n, sh, False) == "materialized"
    assert kron_backward_flops(n, sh) == materialized


def test_two_layer_all_dims_one():
    dense = two_layer_dense_report(1, 1, 1, 1)
    assert dense.forward == 5 and dense.backward == 5
    s = KronShape(1, 1, 1, 1, 1)
    fac = two_layer_kron_report(1, s, s)
    assert fac.forward == 9 and fac.backward == 13


def test_two_layer_dense_exact_total():
    # exact total is 2N(m1*m2 + m2*m3) + 2N*m3 - 1 for the forward pass
    n, m1, m2, m3 = 3, 5, 4, 2
    rep = two_layer_dense_report(n, m1, m2, m3)
    assert rep.forward == 2 * n * m1 * m2 + 2 * n * m2 * m3 + 2 * n * m3 - 1


def test_two_layer_constants_identity():
    # exact forward = F1 + N*m2 + F2 + 3N*m3 - 1, where a layer on the fold
    # path has F = r*(C + |S|) + (r-1)N*m and one on the materialized path
    # r*|S| + m*n*(2r-1) + N*m*(2n-1); the cases cover both paths and a mix
    for n, s1, s2, paths in (
        (3, KronShape(2, 3, 3, 2, 2), KronShape(2, 2, 3, 3, 3), ("materialized", "materialized")),
        (3, KronShape(8, 4, 2, 8, 2), KronShape(4, 8, 2, 2, 2), ("fold", "fold")),
        (16, KronShape(8, 4, 2, 8, 2), KronShape(4, 8, 2, 2, 2), ("fold", "materialized")),
    ):
        assert (train_path(n, s1, False), train_path(n, s2, True)) == paths
        rep = two_layer_kron_report(n, s1, s2)
        c1, c2 = rep.constants["C1"], rep.constants["C2"]
        expected = (
            layer_forward_identity(n, s1, c1, with_dx=False)
            + n * s1.m
            + layer_forward_identity(n, s2, c2, with_dx=True)
            + 3 * n * s2.m
            - 1
        )
        assert rep.forward == expected
        # C3/C4 are the fold path's leading backward aggregates (per-layer, rank included)
        assert rep.constants["C3"] == s2.r * n * s2.n1 * (4 * s2.m - s2.m2) + 2 * s2.r * n * s2.n * s2.m2
        assert rep.constants["C4"] == s1.r * n * s1.n1 * (4 * s1.m - s1.m2) + 2 * s1.r * n * s1.n * s1.m2


def test_two_layer_dim_mismatch():
    # layer 1 outputs 4 features, layer 2 expects 6
    with pytest.raises(ValueError):
        two_layer_kron_report(1, KronShape(2, 2, 2, 2, 1), KronShape(2, 3, 2, 2, 1))


def test_report_breakdown_sums(rng):
    for rep in (
        dense_layer_report(3, 4, 5),
        kron_layer_report(2, KronShape(2, 3, 2, 2, 2)),
        two_layer_dense_report(2, 3, 4, 5),
        two_layer_kron_report(2, KronShape(2, 2, 3, 2, 2), KronShape(3, 2, 2, 3, 1)),
    ):
        assert rep.total == sum(rep.breakdown.values())


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_instrumented_equals_analytic_single_layer(seed):
    r = np.random.default_rng(seed)
    shape = random_shape(r, max_dim=16)
    n = int(r.integers(1, 5))
    f = random_dense_factor(shape, r)
    x = r.standard_normal((n, shape.n))
    y = r.standard_normal((n, shape.m))
    kron = kron_layer_report(n, shape)
    assert instrumented_count("kron_forward", factor=f, x=x, y=y) == kron.forward
    assert instrumented_count("kron_backward", factor=f, x=x, y=y) == kron.backward
    m, nn = int(r.integers(1, 17)), int(r.integers(1, 17))
    w = r.standard_normal((m, nn))
    xd = r.standard_normal((n, nn))
    yd = r.standard_normal((n, m))
    dense = dense_layer_report(n, m, nn)
    assert instrumented_count("dense_forward", x=xd, w=w, y=yd) == dense.forward
    assert instrumented_count("dense_backward", x=xd, w=w, y=yd) == dense.backward


@given(seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_formulas_monotone_in_each_dimension(seed):
    # each training path's forward and backward grow with every dimension and
    # the batch, and so does the step the cost model counts (the cheaper
    # path's forward plus backward). The counted forward or backward alone
    # need not: a larger dimension can move the layer to the other path.
    r = np.random.default_rng(seed)
    base = random_shape(r, max_dim=12)
    n = int(r.integers(1, 5))
    grown = [(n, KronShape(**{**base.__dict__, f: getattr(base, f) + 1}))
             for f in ("m1", "n1", "m2", "n2")] + [(n + 1, base)]
    for n_grown, shape in grown:
        for with_dx in (False, True):
            before = fl._kron_path_pieces(n, base, with_dx)
            after = fl._kron_path_pieces(n_grown, shape, with_dx)
            for path in ("fold", "materialized"):
                for part in (0, 1):  # forward, backward
                    assert sum(after[path][part].values()) >= sum(before[path][part].values())
        step = kron_layer_report(n_grown, shape)
        step_before = kron_layer_report(n, base)
        assert step.forward + step.backward >= step_before.forward + step_before.backward
    dense_grown, dense = (dense_layer_report(k, base.m, base.n) for k in (n + 1, n))
    assert dense_grown.forward >= dense.forward


def test_update_flops_below_dense_for_optimized_shapes():
    # for the shape-opt winner, r*(m1n1 + m2n2) <= mn whenever r <= ceiling/2
    from kronblock import optimal_shape

    for m in range(1, 13):
        for n in range(1, 13):
            res = optimal_shape(m, n)
            m1, n1, m2, n2 = res.best
            ceiling = min(m1 * n1, m2 * n2)
            for r in range(1, max(1, ceiling // 2) + 1):
                if r > ceiling // 2:
                    continue
                assert kron_layer_report(1, KronShape(m1, n1, m2, n2, r)).update <= m * n


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown computation tag"):
        instrumented_count("nonsense")


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_counted_walk_matches_network_flops(seed):
    # mixed dense/kron nets of 1-3 layers with every activation: one counted
    # training step of the net equals the metric fields' accounting
    from kronblock.network import network_backward_flops, network_forward_flops

    r = np.random.default_rng(seed)
    net = random_mixed_net(r, seed)
    n = int(r.integers(1, 5))
    x = r.standard_normal((n, net.in_dim))
    y = r.standard_normal((n, net.out_dim))
    assert fl.counted_step(net, x, y) == (
        network_forward_flops(net, n), network_backward_flops(net, n)
    )


def test_layers_report_prices_layer_specs():
    # a kron spec carries its shape's m and n, and the network and the cost
    # model reject a width mismatch through the one check
    spec = kb.kron_spec(KronShape(2, 3, 4, 5, 2), "relu")
    assert (spec.m, spec.n, spec.out_dim, spec.in_dim) == (8, 15, 8, 15)
    relu, plain = fl.layers_report(3, [spec]), fl.kron_layer_report(3, spec.shape)
    relu_terms = {"forward.activation": 3 * 8, "backward.activation_mask": 3 * 8}
    assert relu.breakdown == {**plain.breakdown, **relu_terms}
    bad = [kb.dense_spec(4, 3), kb.kron_spec(KronShape(1, 5, 2, 1))]
    for build in (lambda: fl.layers_report(1, bad), lambda: kb.build_network(bad)):
        with pytest.raises(ValueError, match=r"^layer dims incompatible: 4 -> 5$"):
            build()


@pytest.mark.parametrize(
    "layers,n_batch,paths",
    [
        # the paper's 784 -> 10 layer at its benchmark batch
        ([(KronShape(5, 392, 2, 2, 2), "identity")], 64, ["materialized"]),
        # fold first layer, materialized second layer with its input gradient
        ([(KronShape(8, 4, 2, 8, 2), "relu"), (KronShape(4, 8, 2, 2, 2), "identity")], 16,
         ["fold", "materialized"]),
    ],
)
def test_counted_step_on_materialized_path(layers, n_batch, paths):
    net = kb.build_network([kb.kron_spec(shape, act) for shape, act in layers], seed=1)
    assert kb.train_paths(net, n_batch) == paths
    rng = np.random.default_rng(n_batch)
    x = rng.standard_normal((n_batch, net.in_dim))
    y = rng.standard_normal((n_batch, net.out_dim))
    rep = fl.layers_report(n_batch, [layer.spec for layer in net.layers])
    assert fl.counted_step(net, x, y) == (rep.forward, rep.backward)
    weight_builds = [k for k in rep.breakdown if k.endswith("weight_build")]
    assert len(weight_builds) == paths.count("materialized")


def test_network_flops_match_two_layer_reports():
    # the generalized per-network accounting must reproduce the canonical
    # two-layer totals for both layer kinds
    from kronblock.network import (
        build_network,
        dense_spec,
        kron_spec,
        network_backward_flops,
        network_forward_flops,
    )

    n = 3
    s1 = KronShape(2, 3, 3, 2, 2)
    s2 = KronShape(2, 2, 2, 3, 2)
    knet = build_network([kron_spec(s1, "relu"), kron_spec(s2)], seed=0)
    rep = two_layer_kron_report(n, s1, s2)
    assert network_forward_flops(knet, n) == rep.forward
    assert network_backward_flops(knet, n) == rep.backward

    dnet = build_network([dense_spec(4, 5, "relu"), dense_spec(3, 4)], seed=0)
    rep = two_layer_dense_report(n, 5, 4, 3)
    assert network_forward_flops(dnet, n) == rep.forward
    assert network_backward_flops(dnet, n) == rep.backward


def test_counted_matmul_flop_formula():
    rng = np.random.default_rng(2)
    for p, q, s in [(1, 1, 1), (3, 5, 2), (4, 1, 6)]:
        a, b = rng.standard_normal((p, q)), rng.standard_normal((q, s))
        with counting() as ops:
            out = linalg.matmul(a, b)
        assert ops == [("matmul", p * s * (2 * q - 1))]
        assert np.allclose(out, a @ b)


def test_counted_sq_sum_formula():
    a = np.arange(6, dtype=float).reshape(2, 3)
    with counting() as ops:
        total = linalg.sq_sum(a)
    assert ops == [("sq_sum", 2 * a.size - 1)]
    assert total == np.sum(a * a)


def test_counting_tallies_only_inside_the_block():
    a, b = np.ones((2, 3)), np.ones((3, 4))
    assert linalg._TALLY.get() is None
    with counting() as outer:
        linalg.matmul(a, b)
        with counting() as inner:
            linalg.relu(a)
        linalg.add(a, a)
    assert inner == [("relu", 6)]
    assert outer == [("matmul", 2 * 4 * 5), ("add", 6)]
    # outside a block the ops compute the same values and record nothing
    assert linalg._TALLY.get() is None
    assert np.array_equal(linalg.matmul(a, b), a @ b)
    assert outer == [("matmul", 40), ("add", 6)] and inner == [("relu", 6)]
    with pytest.raises(ZeroDivisionError):
        with counting():
            1 / 0
    assert linalg._TALLY.get() is None
    # the tally belongs to the context that opened the block: another thread's
    # ops are not counted into it
    with counting() as ops:
        worker = threading.Thread(target=linalg.matmul, args=(a, b))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive() and ops == []


# Scalar-loop references: every multiply, add or subtract performed adds one
# to the count, so the shape-derived counts of the counted ops of
# kronblock.linalg are checked against an independent tally of the operations.


def _loop_matmul(a, b):
    p, q = a.shape
    out = np.empty((p, b.shape[1]))
    flops = 0
    for i in range(p):
        for j in range(b.shape[1]):
            acc = a[i, 0] * b[0, j]
            flops += 1
            for k in range(1, q):
                acc += a[i, k] * b[k, j]
                flops += 2
            out[i, j] = acc
    return out, flops


def _loop_elementwise(op):
    def run(a, *rest):
        out = np.empty_like(a)
        flops = 0
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                out[i, j] = op(a[i, j], *(x if np.isscalar(x) else x[i, j] for x in rest))
                flops += 1
        return out, flops

    return run


def _loop_sq_sum(a):
    flat = a.ravel()
    total = flat[0] * flat[0]
    flops = 1
    for v in flat[1:]:
        total += v * v
        flops += 2
    return total, flops


def _one(r, p, q, _s):
    return (r.standard_normal((p, q)),)


def _two(r, p, q, _s):
    return r.standard_normal((p, q)), r.standard_normal((p, q))


def _matmul_args(r, p, q, s):
    return r.standard_normal((p, q)), r.standard_normal((q, s))


def _scale_args(r, p, q, _s):
    return r.standard_normal((p, q)), float(r.standard_normal())


_OP_REFERENCES = {
    "matmul": (_loop_matmul, _matmul_args),
    "hadamard": (_loop_elementwise(lambda x, y: x * y), _two),
    "add": (_loop_elementwise(lambda x, y: x + y), _two),
    "sub": (_loop_elementwise(lambda x, y: x - y), _two),
    "scale": (_loop_elementwise(lambda x, c: c * x), _scale_args),
    "sq_sum": (_loop_sq_sum, _one),
    "relu": (_loop_elementwise(lambda x: x if x > 0.0 else 0.0), _one),
    "mask_mul": (_loop_elementwise(lambda g, pre: g if pre > 0.0 else 0.0), _two),
}


@pytest.mark.parametrize("op", sorted(_OP_REFERENCES), ids=lambda op: f"_counted_{op}")
def test_counted_helpers_match_scalar_loops(op):
    reference, make_args = _OP_REFERENCES[op]
    rng = np.random.default_rng(3)
    for _ in range(10):
        args = make_args(rng, *(int(d) for d in rng.integers(1, 7, size=3)))
        with counting() as ops:
            got = getattr(linalg, op)(*args)
        want, want_flops = reference(*args)
        assert ops == [(op, want_flops)]
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12


def _predict_on_path(seed, path):
    # a random one-layer factored net and a row count at which net_predict
    # takes ``path``: its counted flops, the cost model's, and the outputs
    rng = np.random.default_rng(seed)
    rows = None
    while rows is None:
        shape = random_shape(rng, max_dim=32)
        rows = next((n for n in range(1, 65) if train_path(n, shape, False) == path), None)
    net = kb.build_network([kb.kron_spec(shape)], seed=seed)
    x = rng.standard_normal((rows, shape.n))
    with counting() as ops:
        out = kb.net_predict(net, x)
    return sum(flops for _, flops in ops), shape, rows, out, kb.forward(net.layers[0].factor, x)[0]


@pytest.mark.parametrize("seed", range(5))
def test_materialized_forward_counts_the_path(seed):
    # net_predict builds W (the S*A_i, one GEMM with the stacked B_i), then
    # runs one GEMM: the forward of a one-layer training step on the same
    # path, less its loss
    counted, shape, rows, out, fold_out = _predict_on_path(seed, "materialized")
    report = kron_layer_report(rows, shape)
    assert counted == report.forward - report.breakdown["forward.loss"]
    assert np.allclose(out, fold_out, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_fold_forward_flops_counts_the_path(seed):
    counted, shape, rows, out, fold_out = _predict_on_path(seed, "fold")
    assert counted == fl.kron_forward_matmul_flops(rows, shape)
    assert np.array_equal(out, fold_out)


WIDE1024 = [(64, 64, 16, 16), (1, 64, 16, 16)]


@pytest.mark.parametrize(
    "layers,rows,layer,path",
    [
        ([(5, 392, 2, 2)], 2048, 0, "materialized"),
        (WIDE1024, 512, 0, "fold"),
        (WIDE1024, 512, 1, "materialized"),
        ([(5, 392, 2, 2)], 1, 0, "fold"),
    ],
    ids=["linear784-2048", "wide1024-512-layer0", "wide1024-512-layer1", "linear784-1"],
)
def test_eval_paths_picks(layers, rows, layer, path):
    # evaluation takes train_path's pick without the input gradient, layer by
    # layer, at the benchmark workloads' eval row counts and at one row
    net = kb.build_network([kb.kron_spec(KronShape(*dims, 2)) for dims in layers])
    paths = kb.network.eval_paths(net, rows)
    assert len(paths) == len(layers)
    assert paths[layer] == path


# the default shapes of bench_train.py, r=2 unless a fifth element is given
BENCH_TRAIN_SHAPES = [
    KronShape(*dims[:4], dims[4] if len(dims) == 5 else 2)
    for dims in ((5, 392, 2, 2), (5, 49, 2, 16), (2, 49, 5, 16), (64, 64, 16, 16),
                 (1, 64, 16, 16), (32, 32, 32, 32), (8, 16, 2, 2), (4, 8, 4, 4),
                 (8, 16, 2, 2, 4), (4, 8, 4, 4, 4), (2, 4, 8, 8, 4))
]


# the steps bench_train.py judges the path rule on: the parts each runs, and
# whether it computes the input gradient
JUDGED_STEPS = {
    "eval": (("forward",), False),
    "backward": (("forward", "backward"), False),
    "backward_dx": (("forward", "backward_dx"), True),
}


def check_train_cells(result, shapes, batches):
    """The per-layer cells of a BENCH_train.json: one per shape and batch, in
    that order, each timing every part on every path and judging the path
    rule on every step."""
    cells = result["cells"]
    assert [(KronShape(*c["shape"], c["r"]), c["batch"]) for c in cells] == [
        (shape, batch) for shape in shapes for batch in batches]
    paths = ("fold", "materialized")
    for cell in cells:
        shape = KronShape(*cell["shape"], cell["r"])
        assert set(cell) == {"shape", "r", "m", "n", "batch", *paths, "dense", "update",
                             "pick", "faster", "pick_is_faster", "step_peak_bytes"}
        # the traced peak of one training step per path, without and with the
        # input gradient; a step allocates at least its output and its gradients
        assert set(cell["step_peak_bytes"]) == {*paths, "dense"}
        for peaks in cell["step_peak_bytes"].values():
            assert set(peaks) == {"backward", "backward_dx"}
            assert all(isinstance(v, int) and v >= 8 * cell["batch"] * cell["m"]
                       for v in peaks.values())
        rows = [cell[path][part] for path in (*paths, "dense")
                for part in ("forward", "backward_dx", "backward")]
        assert set(cell["update"]) == {"kron", "dense"}
        for row in rows + list(cell["update"].values()):
            assert set(row) == {"flops", "median_s", "iqr_s", "gflops"}
            assert isinstance(row["flops"], int) and row["flops"] > 0
            assert row["median_s"] >= 0.0 and row["iqr_s"] >= 0.0
        for key in ("pick", "faster", "pick_is_faster"):
            assert set(cell[key]) == set(JUDGED_STEPS)
        for step, (parts, with_dx) in JUDGED_STEPS.items():
            assert cell["pick"][step] == train_path(cell["batch"], shape, with_dx)
            fold, mat = (sum(cell[path][part]["median_s"] for part in parts) for path in paths)
            assert cell["faster"][step] == ("materialized" if mat < fold else "fold")
            assert cell["pick_is_faster"][step] == (cell["pick"][step] == cell["faster"][step])
    wrong = [(w["shape"], w["r"], w["batch"], w["step"]) for w in result["rule_wrong"]]
    assert wrong == [(c["shape"], c["r"], c["batch"], step)
                     for c in cells for step in JUDGED_STEPS if not c["pick_is_faster"][step]]
    assert result["rule_right"] + len(wrong) == len(JUDGED_STEPS) * len(cells)


# the thin weight products of bench_train.py: weight widths and row counts
THIN_WIDTHS = (784, 1024)
THIN_ROWS = (2, 4, 10, 15, 16, 24, 64)


def check_thin_cells(result, batches):
    """The thin weight products of a BENCH_train.json: one per weight width,
    row count and batch, in that order, each timing both orientations with
    the cost model's flops and judging the orientation rule."""
    assert result["thin_weight_rows"] == THIN_WEIGHT_ROWS
    thin = result["thin_products"]
    assert [(c["n"], c["m"], c["batch"]) for c in thin] == [
        (n, m, batch) for n in THIN_WIDTHS for m in THIN_ROWS for batch in batches]
    # cells on both sides of the orientation rule's weight rows
    assert min(c["m"] for c in thin) < THIN_WEIGHT_ROWS <= max(c["m"] for c in thin)
    for cell in thin:
        assert set(cell) == {"m", "n", "batch", "direct", "swapped", "swap_speedup", "pick",
                             "faster", "pick_is_faster"}
        flops = fl.dense_layer_report(cell["batch"], cell["m"], cell["n"]).breakdown[
            "forward.matmul"]
        for side in ("direct", "swapped"):
            assert set(cell[side]) == {"flops", "median_s", "iqr_s", "gflops"}
            assert cell[side]["flops"] == flops
            assert cell[side]["median_s"] >= 0.0 and cell[side]["iqr_s"] >= 0.0
        assert cell["pick"] == product_orientation(cell["m"], cell["batch"])
        assert cell["swap_speedup"] == cell["direct"]["median_s"] / cell["swapped"]["median_s"]
        assert cell["faster"] in ("direct", "swapped")
        assert cell["pick_is_faster"] == (cell["pick"] == cell["faster"])
    wrong = [(w["m"], w["n"], w["batch"]) for w in result["thin_rule_wrong"]]
    assert wrong == [(c["m"], c["n"], c["batch"]) for c in thin if not c["pick_is_faster"]]
    assert result["thin_rule_right"] + len(wrong) == len(thin)


def test_bench_train_script_writes_schema(tmp_path, monkeypatch):
    # schema only: timings are noisy, so no bound is placed on them
    script = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "bench_train.py")
    out_path = tmp_path / "BENCH_train.json"
    proc = subprocess.run(
        [sys.executable, script, "--repeats", "2", "--shape", "8,16,2,2", "--shape", "2,4,8,8,4",
         "--batches", "1,64", "--out", str(out_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out_path.read_text())
    assert set(result) == {"benchmark", "rank", "repeats", "seed", "environment", "cells",
                           "rule_right", "rule_wrong", "thin_weight_rows", "thin_products",
                           "thin_rule_right", "thin_rule_wrong", "tile_ops", "epochs"}
    assert set(result["environment"]) == {"python", "numpy", "blas", "blas_version",
                                          "blas_threads", "heap_policy", "nproc"}
    # a four-element shape is at the default rank 2, a fifth element sets it
    check_train_cells(result, [KronShape(8, 16, 2, 2, 2), KronShape(2, 4, 8, 8, 4)], [1, 64])
    check_thin_cells(result, [1, 64])
    # the committed file times every default shape at one row and at every row
    # count a benchmark workload trains, evaluates or selects on
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), ".."))
    from perfbench.workloads import WORKLOADS

    batches = sorted({1, *(n for wl in WORKLOADS.values()
                           for n in (wl.batch, wl.n_test, wl.select_samples))})
    assert batches == [1, 64, 256, 512, 2048]
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCH_train.json")) as fh:
        committed = json.load(fh)
    assert set(committed) == set(result)
    check_train_cells(committed, BENCH_TRAIN_SHAPES, batches)
    check_thin_cells(committed, batches)
    assert len(committed["thin_products"]) == 70
    # the tile-wise products of the dense baselines, and build_weight
    timing = {"median_s", "iqr_s"}
    tiles = result["tile_ops"]
    assert [(c["m"], c["n"], c["block"]) for c in tiles["matrices"]] == [
        (10, 784, [2, 2]), (1024, 1024, [16, 16]), (16, 1024, [16, 16])]
    for cell in tiles["matrices"]:
        for op in ("group_lasso_prox", "prune_grad_mask"):
            assert set(cell[op]) == timing
            assert cell[op]["median_s"] >= 0.0 and cell[op]["iqr_s"] >= 0.0
    assert set(tiles["build_weight"]) == {"shape", "r", *timing}
    assert tiles["build_weight"]["shape"] == [5, 392, 2, 2] and tiles["build_weight"]["r"] == 2
    # one epoch of each trainer and of select_pattern per benchmark workload,
    # with its analytic flops
    trainers = ("train_kron", "group_lasso", "prune", "select")
    cells = result["epochs"]
    assert [(c["workload"], c["trainer"]) for c in cells] == [
        (name, t) for name in WORKLOADS for t in trainers]
    for cell in cells:
        wl = WORKLOADS[cell["workload"]]
        assert set(cell) == {"workload", "trainer", "epochs", "samples_per_epoch",
                             "flops_per_epoch", "median_s", "iqr_s", "samples_per_s", "gflops"}
        assert cell["epochs"] == (2 * wl.epochs if cell["trainer"] == "prune" else
                                  1 if cell["trainer"] == "select" else wl.epochs)
        assert cell["samples_per_epoch"] == (
            wl.select_samples if cell["trainer"] == "select" else wl.n_train)
        assert cell["median_s"] > 0.0 and cell["iqr_s"] >= 0.0
        assert cell["samples_per_s"] == cell["samples_per_epoch"] / cell["median_s"]
        if cell["trainer"] == "select":
            continue
        assert wl.n_train % wl.batch == 0
        specs = [fl.kron_spec(s, act) if cell["trainer"] == "train_kron"
                 else fl.dense_spec(s.m, s.n, act) for s, act in wl.kron_layers]
        step = fl.layers_report(wl.batch, specs)
        assert cell["flops_per_epoch"] == wl.n_train // wl.batch * (
            step.forward + step.backward + step.update)


def test_bench_train_script_rejects_bad_batches(tmp_path):
    # --batches takes comma-separated positive integers; anything else is a
    # usage error before any timing
    script = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "bench_train.py")
    out_path = tmp_path / "BENCH_train.json"
    for batches in ("1,x", "0,64", ""):
        proc = subprocess.run(
            [sys.executable, script, "--batches", batches, "--out", str(out_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        error = proc.stderr.splitlines()[-1]
        assert error.startswith("bench_train.py: error: argument --batches: ")
        assert error.endswith(repr(batches))
        assert not out_path.exists()
