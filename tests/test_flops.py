import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronblock as kb
from kronblock import KronShape
from kronblock import flops as fl
from kronblock.flops import (
    dense_backward_flops,
    dense_forward_flops,
    dense_layer_report,
    forward_path,
    instrumented_count,
    kron_backward_flops,
    kron_forward_flops,
    kron_layer_report,
    kron_update_flops,
    materialized_forward_flops,
    two_layer_dense_report,
    two_layer_kron_report,
)

from conftest import random_dense_factor, random_shape


def test_dense_forward_closed_form():
    assert dense_forward_flops(1, 1, 1) == 3
    # 784 -> 10 linear model: 10*(2*784 - 1) + 3*10 - 1 = 15670 + 29
    assert dense_forward_flops(1, 10, 784) == 15699


def test_dense_forward_asymptotic():
    # leading term 2Nm(n+1)
    n = 100_000
    ratio = dense_forward_flops(2, 3, n) / (2 * 2 * 3 * (n + 1))
    assert abs(ratio - 1.0) < 1e-3


def test_dense_backward_closed_form():
    assert dense_backward_flops(1, 1, 1) == 2
    assert dense_backward_flops(2, 3, 4) == 42


def test_dense_backward_asymptotic():
    # leading term Nm(2n+1) (exact as both N and n grow)
    n_batch = n = 10_000
    ratio = dense_backward_flops(n_batch, 3, n) / (n_batch * 3 * (2 * n + 1))
    assert abs(ratio - 1.0) < 1e-3


def test_kron_forward_degenerate():
    assert kron_forward_flops(1, KronShape(1, 1, 1, 1, 1)) == 5


def test_kron_forward_matches_counter_example1_shape(rng):
    shape = KronShape(4, 8, 2, 32, 1)
    f = random_dense_factor(shape, rng)
    x = rng.standard_normal((1, shape.n))
    y = rng.standard_normal((1, shape.m))
    assert kron_forward_flops(1, shape) == instrumented_count("kron_forward", factor=f, x=x, y=y)


def test_kron_forward_reduction_is_shape_dependent():
    # 10 x 784 linear model: the wide-block shape reduces flops at rank 2 and
    # the (2,2) shape does at rank 1; the (2,2) shape at rank 2 does NOT
    # (exact counting rules that combination out).
    dense = dense_forward_flops(1, 10, 784)
    assert kron_forward_flops(1, KronShape(5, 49, 2, 16, 2)) < dense
    assert kron_forward_flops(1, KronShape(5, 392, 2, 2, 1)) < dense
    assert kron_forward_flops(1, KronShape(5, 392, 2, 2, 2)) > dense


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
    sh = KronShape(3, 4, 2, 5, 2)
    n = 200_000
    bound = n * sh.m + n * sh.r * (
        4 * sh.m1 * sh.m2 * sh.n1 - sh.m2 * sh.n1 + 2 * sh.m2 * sh.n1 * sh.n2
    )
    assert abs(kron_backward_flops(n, sh) / bound - 1.0) < 1e-3


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


def test_two_layer_constants_identity(rng):
    # exact forward = r1*(C1 + |S1|) + (r1-1)N*m2 + N*m2 + r2*(C2 + |S2|) + (r2-1)N*m3 + 3N*m3 - 1
    n = 3
    s1 = KronShape(2, 3, 3, 2, 2)
    s2 = KronShape(2, 2, 3, 3, 3)
    rep = two_layer_kron_report(n, s1, s2)
    c1, c2 = rep.constants["C1"], rep.constants["C2"]
    expected = (
        s1.r * (c1 + s1.m1 * s1.n1)
        + (s1.r - 1) * n * s1.m
        + n * s1.m
        + s2.r * (c2 + s2.m1 * s2.n1)
        + (s2.r - 1) * n * s2.m
        + 3 * n * s2.m
        - 1
    )
    assert rep.forward == expected
    # C3/C4 are the leading backward aggregates (per-layer, rank included)
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
    assert instrumented_count("kron_forward", factor=f, x=x, y=y) == kron_forward_flops(n, shape)
    assert instrumented_count("kron_backward", factor=f, x=x, y=y) == kron_backward_flops(n, shape)
    m, nn = int(r.integers(1, 17)), int(r.integers(1, 17))
    w = r.standard_normal((m, nn))
    xd = r.standard_normal((n, nn))
    yd = r.standard_normal((n, m))
    assert instrumented_count("dense_forward", x=xd, w=w, y=yd) == dense_forward_flops(n, m, nn)
    assert instrumented_count("dense_backward", x=xd, w=w, y=yd) == dense_backward_flops(n, m, nn)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_formulas_monotone_in_each_dimension(seed):
    r = np.random.default_rng(seed)
    base = random_shape(r, max_dim=12)
    n = int(r.integers(1, 5))
    for field in ("m1", "n1", "m2", "n2"):
        grown = KronShape(**{**base.__dict__, field: getattr(base, field) + 1})
        assert kron_forward_flops(n, grown) >= kron_forward_flops(n, base)
        assert kron_backward_flops(n, grown) >= kron_backward_flops(n, base)
    assert kron_forward_flops(n + 1, base) >= kron_forward_flops(n, base)
    assert kron_backward_flops(n + 1, base) >= kron_backward_flops(n, base)
    assert dense_forward_flops(n + 1, base.m, base.n) >= dense_forward_flops(n, base.m, base.n)


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
                assert kron_update_flops(KronShape(m1, n1, m2, n2, r)) <= m * n


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown computation tag"):
        instrumented_count("nonsense")


def test_counted_pipeline_computes_real_values(rng):
    # the instrumented run is a genuine execution: its residual must equal the
    # uncounted pipeline's output minus the target
    from kronblock.flops import counted_kron_forward

    shape = KronShape(2, 3, 2, 4, 2)
    f = random_dense_factor(shape, rng)
    x = rng.standard_normal((3, shape.n))
    y = rng.standard_normal((3, shape.m))
    got = counted_kron_forward(f, x, y)
    o, _ = kb.forward(f, x)
    assert np.max(np.abs(got["diff"] - (o - y))) <= 1e-12


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
        out, flops = fl._counted_matmul(a, b)
        assert flops == p * s * (2 * q - 1)
        assert np.allclose(out, a @ b)


def test_counted_sq_sum_formula():
    a = np.arange(6, dtype=float).reshape(2, 3)
    total, flops = fl._counted_sq_sum(a)
    assert flops == 2 * a.size - 1
    assert total == np.sum(a * a)


# Scalar-loop references: every multiply, add or subtract performed adds one
# to the count, so the shape-derived counts of the helpers are checked against
# an independent tally of the operations.


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


_HELPER_REFERENCES = {
    "_counted_matmul": (_loop_matmul, _matmul_args),
    "_counted_hadamard": (_loop_elementwise(lambda x, y: x * y), _two),
    "_counted_add": (_loop_elementwise(lambda x, y: x + y), _two),
    "_counted_sub": (_loop_elementwise(lambda x, y: x - y), _two),
    "_counted_scale": (_loop_elementwise(lambda x, c: c * x), _scale_args),
    "_counted_sq_sum": (_loop_sq_sum, _one),
    "_counted_relu": (_loop_elementwise(lambda x: x if x > 0.0 else 0.0), _one),
    "_counted_mask_mul": (_loop_elementwise(lambda g, pre: g if pre > 0.0 else 0.0), _two),
}


@pytest.mark.parametrize("name", sorted(_HELPER_REFERENCES))
def test_counted_helpers_match_scalar_loops(name):
    reference, make_args = _HELPER_REFERENCES[name]
    helper = getattr(fl, name)
    rng = np.random.default_rng(3)
    for _ in range(10):
        args = make_args(rng, *(int(d) for d in rng.integers(1, 7, size=3)))
        got, got_flops = helper(*args)
        want, want_flops = reference(*args)
        assert got_flops == want_flops
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_materialized_forward_flops_counts_the_path(seed):
    # build W term by term (S*A_i, its Kronecker product with B_i, the rank
    # sum from the first term), then one counted GEMM
    rng = np.random.default_rng(seed)
    shape = random_shape(rng, max_dim=32)
    f = random_dense_factor(shape, rng)
    x = rng.standard_normal((int(rng.integers(1, 9)), shape.n))
    flops, w = 0, None
    for a_i, b_i in zip(f.a, f.b):
        sa, c = fl._counted_hadamard(f.s, a_i)
        term = np.kron(sa, b_i)
        flops += c + term.size
        if w is None:
            w = term
        else:
            w, c = fl._counted_add(w, term)
            flops += c
    out, c = fl._counted_matmul(x, w.T)
    assert flops + c == materialized_forward_flops(x.shape[0], shape)
    assert np.allclose(out, kb.forward(f, x)[0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "dims,rows,path",
    [
        ((5, 392, 2, 2), 2048, "materialized"),  # linear784 eval set
        ((64, 64, 16, 16), 512, "fold"),  # wide1024 layer 1 eval set
        ((1, 64, 16, 16), 512, "materialized"),  # wide1024 layer 2 eval set
        ((5, 392, 2, 2), 1, "fold"),
    ],
)
def test_forward_path_picks(dims, rows, path):
    shape = KronShape(*dims, 2)
    assert forward_path(rows, shape) == path
    cheaper = materialized_forward_flops(rows, shape) <= fl.kron_forward_matmul_flops(rows, shape)
    assert (path == "materialized") == cheaper


def test_bench_flops_script_writes_schema(tmp_path):
    # schema only: timings are noisy, so no bound is placed on them
    script = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "bench_flops.py")
    out_path = tmp_path / "BENCH_flops.json"
    proc = subprocess.run(
        [sys.executable, script, "--repeats", "2", "--out", str(out_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out_path.read_text())
    assert set(result) == {"benchmark", "batch", "seed", "environment", "rows",
                           "audit_pass_median_s"}
    assert set(result["environment"]) == {"python", "numpy", "blas", "blas_version",
                                          "blas_threads", "nproc"}
    assert len(result["rows"]) == 10
    for row in result["rows"]:
        assert set(row) == {"config", "tag", "analytic_flops", "median_s", "iqr_s", "repeats"}
        assert row["tag"] in fl._TAGS
        assert row["repeats"] == 2
        assert row["median_s"] >= 0.0 and row["iqr_s"] >= 0.0


def test_bench_eval_script_writes_schema(tmp_path):
    # schema only: timings are noisy, so no bound is placed on them
    script = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "bench_eval.py")
    out_path = tmp_path / "BENCH_eval.json"
    proc = subprocess.run(
        [sys.executable, script, "--repeats", "2", "--shape", "8,16,2,2", "--batches", "1,64",
         "--out", str(out_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out_path.read_text())
    assert set(result) == {"benchmark", "rank", "repeats", "seed", "environment", "cells",
                           "rule_right", "rule_wrong"}
    assert {"blas", "blas_version", "blas_threads"} <= set(result["environment"])
    assert [c["batch"] for c in result["cells"]] == [1, 64]
    for cell in result["cells"]:
        assert set(cell) == {"shape", "r", "m", "n", "batch", "fold", "materialized", "pick",
                             "faster", "pick_is_faster"}
        assert cell["shape"] == [8, 16, 2, 2] and cell["r"] == 2
        shape = KronShape(8, 16, 2, 2, 2)
        assert cell["pick"] == forward_path(cell["batch"], shape)
        assert cell["fold"]["flops"] == fl.kron_forward_matmul_flops(cell["batch"], shape)
        assert cell["materialized"]["flops"] == materialized_forward_flops(cell["batch"], shape)
        for path in ("fold", "materialized"):
            assert set(cell[path]) == {"flops", "median_s", "iqr_s", "gflops"}
            assert cell[path]["median_s"] >= 0.0 and cell[path]["iqr_s"] >= 0.0
        assert cell["pick_is_faster"] == (cell["pick"] == cell["faster"])
    assert result["rule_right"] + len(result["rule_wrong"]) == 2
