import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronblock as kb
from kronblock import KronFactor, KronShape
from kronblock.factor import build_weight, views
from kronblock.flops import kron_forward_matmul_flops
from kronblock.linalg import (
    counting,
    fold_input,
    fold_mid,
    fold_output,
    unfold_input,
    unfold_mid,
    unfold_output,
)
from kronblock.network import Layer, dense_spec, kron_spec, layer_backward, layer_forward

from conftest import finite_diff, random_dense_factor, random_shape, rel_err


def split(f, result):
    # dS, dA, dB and d_x of a backward's (grad, d_x)
    grad, d_x = result
    return (*views(f.shape, grad), d_x)


def materialize_bruteforce(f):
    sh = f.shape
    out = np.zeros((sh.m, sh.n))
    for a_i, b_i in zip(f.a, f.b):
        for i1 in range(sh.m1):
            for j1 in range(sh.n1):
                for i2 in range(sh.m2):
                    for j2 in range(sh.n2):
                        out[i1 * sh.m2 + i2, j1 * sh.n2 + j2] += (
                            f.s[i1, j1] * a_i[i1, j1] * b_i[i2, j2]
                        )
    return out


def test_shape_validation():
    with pytest.raises(ValueError):
        KronShape(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        KronShape(2, 2, 2, 2, 0)
    sh = KronShape(4, 8, 2, 32, 1)
    assert (sh.m, sh.n, sh.full_rank) == (8, 256, 32)


def test_materialize_degenerate_scalar_factor(rng):
    b = rng.standard_normal((3, 4))
    f = KronFactor(KronShape(1, 1, 3, 4, 1), np.ones((1, 1)), [np.ones((1, 1))], [b])
    assert np.array_equal(kb.materialize(f), b)


def test_materialize_zero_mask(rng):
    f = random_dense_factor(KronShape(2, 3, 2, 2, 2), rng)
    f.s[:] = 0.0
    assert np.array_equal(kb.materialize(f), np.zeros((4, 6)))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", [(5, 392, 2, 2), (3, 4, 2, 5), (1, 6, 4, 4)])
def test_build_weight_operand_is_contiguous_masked_columns(dims, r, rng):
    # the (m1*n1, r) S * A_i operand is written in place with the bits and the
    # C-contiguous layout of the transposed copy of the broadcast product
    f = random_dense_factor(KronShape(*dims, r), rng)
    _, masked_a = build_weight(f)
    expected = np.ascontiguousarray(kb.hadamard(f.a, f.s).reshape(r, -1).T)
    assert masked_a.shape == expected.shape and masked_a.flags.c_contiguous
    assert np.array_equal(masked_a.view(np.uint64), expected.view(np.uint64))


def test_materialize_matches_definitional_sum(rng):
    f = random_dense_factor(KronShape(3, 2, 2, 4, 3), rng)
    assert np.max(np.abs(kb.materialize(f) - materialize_bruteforce(f))) <= 1e-12


def test_forward_zero_mask_gives_zero(rng):
    f = random_dense_factor(KronShape(2, 2, 3, 3, 2), rng)
    f.s[:] = 0.0
    x = rng.standard_normal((4, f.shape.n))
    o, _ = kb.forward(f, x)
    assert np.array_equal(o, np.zeros((4, f.shape.m)))


def test_forward_degenerate_is_dense_b(rng):
    b = rng.standard_normal((3, 5))
    f = KronFactor(KronShape(1, 1, 3, 5, 1), np.ones((1, 1)), [np.ones((1, 1))], [b])
    x = rng.standard_normal((4, 5))
    o, _ = kb.forward(f, x)
    assert np.max(np.abs(o - x @ b.T)) <= 1e-12


def test_forward_matches_dense_oracle(rng):
    f = random_dense_factor(KronShape(3, 2, 2, 3, 2), rng)  # m=6, n=6
    x = rng.standard_normal((5, 6))
    o, _ = kb.forward(f, x)
    assert np.max(np.abs(o - x @ kb.materialize(f).T)) <= 1e-10


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_forward_dense_equivalence_random_shapes(seed):
    r = np.random.default_rng(seed)
    shape = random_shape(r, max_dim=64)
    f = random_dense_factor(shape, r)
    x = r.standard_normal((int(r.integers(1, 6)), shape.n))
    o, _ = kb.forward(f, x)
    assert np.max(np.abs(o - x @ kb.materialize(f).T)) <= 1e-10


def test_forward_linearity(rng):
    f = random_dense_factor(KronShape(2, 3, 3, 2, 2), rng)
    x1 = rng.standard_normal((4, f.shape.n))
    x2 = rng.standard_normal((4, f.shape.n))
    a, b = 1.7, -0.4
    o_combo, _ = kb.forward(f, a * x1 + b * x2)
    o1, _ = kb.forward(f, x1)
    o2, _ = kb.forward(f, x2)
    assert np.max(np.abs(o_combo - (a * o1 + b * o2))) <= 1e-10


def test_forward_shape_mismatch(rng):
    f = random_dense_factor(KronShape(2, 2, 2, 2, 1), rng)
    with pytest.raises(ValueError):
        kb.forward(f, np.ones((3, 5)))


def test_backward_zero_a_zeroes_ds(rng):
    f = random_dense_factor(KronShape(2, 3, 2, 2, 2), rng)
    for a_i in f.a:
        a_i[:] = 0.0
    x = rng.standard_normal((3, f.shape.n))
    o, cache = kb.forward(f, x)
    d_s = split(f, kb.backward(f, cache, rng.standard_normal(o.shape)))[0]
    assert np.array_equal(d_s, np.zeros_like(f.s))


def test_backward_zero_mask_zeroes_da(rng):
    f = random_dense_factor(KronShape(2, 3, 2, 2, 2), rng)
    f.s[:] = 0.0
    x = rng.standard_normal((3, f.shape.n))
    o, cache = kb.forward(f, x)
    for d_a in split(f, kb.backward(f, cache, rng.standard_normal(o.shape)))[1]:
        assert np.array_equal(d_a, np.zeros_like(f.s))


def test_backward_matches_finite_differences(rng):
    # m = 4, n = 6, r = 2 under the squared loss, rel err <= 1e-6
    f = random_dense_factor(KronShape(2, 3, 2, 2, 2), rng)
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal((3, 4))

    def loss():
        o, _ = kb.forward(f, x)
        d = o - y
        return float(np.sum(d * d))

    o, cache = kb.forward(f, x)
    d_s, d_a, d_b, d_x = split(f, kb.backward(f, cache, 2.0 * (o - y)))
    assert rel_err(d_s, finite_diff(loss, f.s)) <= 1e-6
    for i in range(2):
        assert rel_err(d_a[i], finite_diff(loss, f.a[i])) <= 1e-6
        assert rel_err(d_b[i], finite_diff(loss, f.b[i])) <= 1e-6
    assert rel_err(d_x, finite_diff(loss, x)) <= 1e-6


def _rel(got, want):
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)


def materialized_step(f, x, d_out, with_dx):
    # the layer of factor f on the materialized path: output and gradients
    layer = Layer(kron_spec(f.shape), factor=f)
    out, cache = layer_forward(layer, "materialized", x)
    return out, layer_backward(layer, x, cache, d_out, with_dx)


@given(seed=st.integers(0, 2**31), with_dx=st.booleans())
@settings(max_examples=40, deadline=None)
def test_materialized_path_matches_fold_path(seed, with_dx):
    # random shapes up to 32 x 32 with r up to 4: the materialized forward and
    # backward give the fold path's output and gradients within 1e-12 relative
    r = np.random.default_rng(seed)
    f = random_dense_factor(random_shape(r, max_dim=32), r)
    x = r.standard_normal((int(r.integers(1, 9)), f.shape.n))
    d_out = r.standard_normal((x.shape[0], f.shape.m))
    out, cache = kb.forward(f, x)
    got_out, got = materialized_step(f, x, d_out, with_dx)
    assert _rel(got_out, out) <= 1e-12
    got_s, got_a, got_b, got_x = split(f, got)
    backward = kb.backward if with_dx else kb.backward_params
    want_s, want_a, want_b, want_x = split(f, backward(f, cache, d_out))
    assert _rel(got_s, want_s) <= 1e-12
    for g, w in zip([*got_a, *got_b], [*want_a, *want_b], strict=True):
        assert g.shape == w.shape and _rel(g, w) <= 1e-12
    if with_dx:
        assert _rel(got_x, want_x) <= 1e-12
    else:
        assert got_x is None


def _per_rank_loop(f, x, d_out):
    # the fold path term by term: per rank term i one thin GEMM pair through
    # the folded input and the folded mid_i, summed over i; the stacked path
    # must give the same output and gradients
    sh = f.shape
    xf = fold_input(x, sh.n1, sh.n2)
    d_of = unfold_output(d_out, sh.m2)
    out = np.zeros((x.shape[0] * sh.m2, sh.m1))
    d_s, d_xf, d_a, d_b = np.zeros_like(f.s), np.zeros_like(xf), [], []
    for a_i, b_i in zip(f.a, f.b):
        masked = f.s * a_i
        mid = fold_mid(b_i @ xf, sh.n1)
        out += mid @ masked.T
        g = d_of.T @ mid
        d_a.append(g * f.s)
        d_s += g * a_i
        d_mid = unfold_mid(d_of @ masked, sh.m2)
        d_b.append(d_mid @ xf.T)
        d_xf += b_i.T @ d_mid
    return fold_output(out, sh.m2), d_s, d_a, d_b, unfold_input(d_xf, sh.n1)


@pytest.mark.parametrize("seed", range(20))
def test_fold_path_matches_per_rank_loop(seed):
    r = np.random.default_rng(seed)
    f = random_dense_factor(random_shape(r, max_dim=32, max_r=4), r)
    for rows in (1, 3, 17):
        x = r.standard_normal((rows, f.shape.n))
        d_out = r.standard_normal((rows, f.shape.m))
        want_out, want_s, want_a, want_b, want_x = _per_rank_loop(f, x, d_out)
        out, cache = kb.forward(f, x)
        d_s, d_a, d_b, d_x = split(f, kb.backward(f, cache, d_out))
        assert _rel(out, want_out) <= 1e-12
        assert _rel(d_s, want_s) <= 1e-12
        assert _rel(d_x, want_x) <= 1e-12
        for g, w in zip([*d_a, *d_b], [*want_a, *want_b], strict=True):
            assert g.shape == w.shape and _rel(g, w) <= 1e-12


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_fold_path_is_rank_stacked(rng, r):
    # whatever the rank, the forward is two GEMMs, the backward three without
    # the input gradient and four with it, and X is cached without a copy
    f = random_dense_factor(KronShape(3, 4, 2, 5, r), rng)
    x = rng.standard_normal((6, f.shape.n))
    d_out = rng.standard_normal((6, f.shape.m))

    def matmuls(ops):
        return [name for name, _ in ops].count("matmul")

    with counting() as ops:
        _, cache = kb.forward(f, x)
    assert matmuls(ops) == 2
    assert sum(flops for _, flops in ops) == kron_forward_matmul_flops(6, f.shape)
    assert np.shares_memory(cache.x, x)
    for backward, want in ((kb.backward_params, 3), (kb.backward, 4)):
        with counting() as ops:
            backward(f, cache, d_out)
        assert matmuls(ops) == want


def test_materialized_backward_matches_finite_differences(rng):
    f = random_dense_factor(KronShape(2, 3, 2, 2, 2), rng)
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal((3, 4))

    layer = Layer(kron_spec(f.shape), factor=f)

    def loss():
        d = layer_forward(layer, "materialized", x)[0] - y
        return float(np.sum(d * d))

    o, cache = layer_forward(layer, "materialized", x)
    d_s, d_a, d_b, d_x = split(f, layer_backward(layer, x, cache, 2.0 * (o - y), with_dx=True))
    assert rel_err(d_s, finite_diff(loss, f.s)) <= 1e-6
    for i in range(2):
        assert rel_err(d_a[i], finite_diff(loss, f.a[i])) <= 1e-6
        assert rel_err(d_b[i], finite_diff(loss, f.b[i])) <= 1e-6
    assert rel_err(d_x, finite_diff(loss, x)) <= 1e-6


def test_zeroing_one_mask_entry_zeroes_exactly_that_tile(rng):
    f = random_dense_factor(KronShape(2, 3, 2, 2, 2), rng)
    w_before = kb.materialize(f)
    f.s[1, 2] = 0.0
    w_after = kb.materialize(f)
    for i1 in range(2):
        for j1 in range(3):
            tile = w_after[i1 * 2 : (i1 + 1) * 2, j1 * 2 : (j1 + 1) * 2]
            if (i1, j1) == (1, 2):
                assert np.array_equal(tile, np.zeros((2, 2)))
            else:
                assert np.array_equal(tile, w_before[i1 * 2 : (i1 + 1) * 2, j1 * 2 : (j1 + 1) * 2])


def test_reconstruct_zero_matrix():
    f = kb.reconstruct_from_blockwise(np.zeros((4, 6)), (2, 3))
    assert f.shape.r == 1
    assert np.array_equal(kb.materialize(f), np.zeros((4, 6)))


def test_reconstruct_single_tile(rng):
    w = np.zeros((4, 4))
    w[2:4, 0:2] = rng.standard_normal((2, 2))
    f = kb.reconstruct_from_blockwise(w, (2, 2))
    assert f.shape.r == 1
    assert np.array_equal(f.b[0], w[2:4, 0:2])
    assert np.array_equal(kb.materialize(f), w)


def test_reconstruct_three_of_four_tiles(rng):
    w = rng.standard_normal((8, 8))
    w[0:4, 4:8] = 0.0
    f = kb.reconstruct_from_blockwise(w, (4, 4))
    assert f.shape.r == 3
    assert np.array_equal(kb.materialize(f), w)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_reconstruct_is_exact_on_any_matrix(seed):
    r = np.random.default_rng(seed)
    m2 = int(r.integers(1, 5))
    n2 = int(r.integers(1, 5))
    w = r.standard_normal((m2 * int(r.integers(1, 5)), n2 * int(r.integers(1, 5))))
    f = kb.reconstruct_from_blockwise(w, (m2, n2))
    assert np.array_equal(kb.materialize(f), w)


def test_reconstruct_divisibility_error():
    with pytest.raises(ValueError):
        kb.reconstruct_from_blockwise(np.ones((4, 4)), (3, 2))


def test_reconstruct_normal_form_is_a_fixed_point(rng):
    # factors in constructive normal form survive materialize -> reconstruct
    # bit-exactly (same rank, mask and factor entries)
    w = rng.standard_normal((6, 8))
    w.reshape(3, 2, 2, 4)[0, :, 1, :] = 0.0
    w.reshape(3, 2, 2, 4)[2, :, 0, :] = 0.0
    f = kb.reconstruct_from_blockwise(w, (2, 4))
    g = kb.reconstruct_from_blockwise(kb.materialize(f), (2, 4))
    assert g.shape == f.shape
    assert np.array_equal(g.s, f.s)
    for x, y in zip([*f.a, *f.b], [*g.a, *g.b], strict=True):
        assert np.array_equal(x, y)


def test_count_params_paper_example():
    assert kb.count_params(KronShape(4, 8, 2, 32, 1)) == 128


def test_count_params_trivial():
    assert kb.count_params(KronShape(1, 1, 1, 1, 1)) == 3


def test_count_params_pattern_shapes():
    # the two 8x256 pattern candidates at rank 4: 704 + 416 = 1120
    assert kb.count_params(KronShape(2, 64, 4, 4, 4)) == 704
    assert kb.count_params(KronShape(1, 32, 8, 8, 4)) == 416


def test_sparsity_rate(rng):
    f = random_dense_factor(KronShape(2, 4, 2, 2, 1), rng)
    f.s[:] = 0.0
    assert kb.sparsity_rate(f, 1e-6) == 1.0
    f.s[:] = 1.0
    assert kb.sparsity_rate(f, 1e-6) == 0.0
    f.s.ravel()[[0, 3, 5]] = 0.0
    assert kb.sparsity_rate(f, 1e-6) == pytest.approx(3 / 8)
    with pytest.raises(ValueError):
        kb.sparsity_rate(f, eps_zero=0.0)


def test_factor_serialization_roundtrip(rng):
    f = random_dense_factor(KronShape(3, 2, 2, 5, 2), rng)
    buf = io.BytesIO()
    from kronblock.factor import read_factor, write_factor

    write_factor(buf, f)
    buf.seek(0)
    g = read_factor(buf)
    assert g.shape == f.shape
    assert np.array_equal(g.s, f.s)
    for x, y in zip([*f.a, *f.b], [*g.a, *g.b], strict=True):
        assert np.array_equal(x, y)


def test_factor_serialization_bad_magic():
    from kronblock.factor import read_factor

    with pytest.raises(ValueError, match="magic"):
        read_factor(io.BytesIO(b"NOPE" + b"\x00" * 64))


def test_factor_serialization_truncated_header():
    from kronblock.factor import read_factor

    with pytest.raises(ValueError, match="truncated factor header"):
        read_factor(io.BytesIO(b"KBF1" + b"\x00" * 12))


def test_factor_header_dims_overflow():
    # dims whose payload size overflows an index must not reach fh.read
    import struct

    from kronblock.factor import read_factor

    raw = b"KBF1" + struct.pack("<5q", 2**40, 2**40, 1, 1, 1)
    with pytest.raises(ValueError, match=r"\(1099511627776, 1099511627776, 1, 1, 1\) declare"):
        read_factor(io.BytesIO(raw))


def test_factor_header_dims_beyond_file():
    import struct

    from kronblock.factor import read_factor

    raw = b"KBF1" + struct.pack("<5q", 100, 100, 1, 1, 1) + b"\x00" * 80
    with pytest.raises(ValueError, match="declare 160008 payload bytes, but only 80 remain"):
        read_factor(io.BytesIO(raw))


def test_factor_file_trailing_bytes(tmp_path, rng):
    from kronblock.factor import load_factor, save_factor

    path = tmp_path / "f.kbf"
    save_factor(path, random_dense_factor(KronShape(2, 2, 2, 2, 1), rng))
    path.write_bytes(path.read_bytes() + b"\x01")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        load_factor(path)


def test_factor_validation(rng):
    with pytest.raises(ValueError):
        KronFactor(KronShape(2, 2, 2, 2, 2), np.ones((2, 2)), [np.ones((2, 2))], [np.ones((2, 2))])


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stacked_factor_storage(r):
    # A and B are (r, m1, n1) / (r, m2, n2) stacks, and S, A, B are views of
    # one flat buffer in S, A_1..A_r, B_1..B_r order; list input, stacked
    # input and copy() all give that layout
    rng = np.random.default_rng(r)
    shape = KronShape(3, 4, 2, 5, r)
    s = rng.standard_normal((3, 4))
    a = [rng.standard_normal((3, 4)) for _ in range(r)]
    b = [rng.standard_normal((2, 5)) for _ in range(r)]
    want = np.concatenate([s.ravel(), *(x.ravel() for x in a), *(x.ravel() for x in b)])
    from_lists = KronFactor(shape, s, a, b)
    from_stacks = KronFactor(shape, s, np.stack(a), np.stack(b))
    copied = from_lists.copy()
    for f in (from_lists, from_stacks, copied):
        assert f.a.shape == (r, 3, 4) and f.b.shape == (r, 2, 5)
        assert f.flat.shape == (kb.count_params(shape),) and f.flat.flags.c_contiguous
        assert np.array_equal(f.flat, want)
        for view in (f.s, f.a, f.b):
            assert np.shares_memory(view, f.flat)
        assert [x.shape for x in f.a] == [(3, 4)] * r
        assert all(np.array_equal(f.a[i], a[i]) and np.array_equal(f.b[i], b[i]) for i in range(r))
    # the constructor copies: no two factors share parameters
    assert not np.shares_memory(copied.flat, from_lists.flat)
    assert not np.shares_memory(from_lists.s, s)
    f = from_lists
    f.a[0] += 1.0
    assert f.flat[12] == want[12] + 1.0


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gradients_share_one_buffer(r):
    # on the fold, materialized and dense paths, with and without the input
    # gradient, a layer backward returns (grad, d_x): grad one fresh
    # C-contiguous array laid out as the layer's params (for a factored layer
    # dS, dA, dB in the order of its flat parameters), d_x None exactly when
    # not asked for
    rng = np.random.default_rng(10 + r)
    f = random_dense_factor(KronShape(2, 3, 4, 2, r), rng)
    x = rng.standard_normal((5, f.shape.n))
    d_out = rng.standard_normal((5, f.shape.m))
    kron = Layer(kron_spec(f.shape), factor=f)
    dense = Layer(dense_spec(f.shape.m, f.shape.n), w=rng.standard_normal((f.shape.m, f.shape.n)))
    for layer, path in ((kron, "fold"), (kron, "materialized"), (dense, "dense")):
        for with_dx in (False, True):
            cache = layer_forward(layer, path, x)[1]
            grad, d_x = layer_backward(layer, x, cache, d_out, with_dx)
            assert grad.shape == layer.params.shape and grad.flags.c_contiguous
            assert not np.shares_memory(grad, layer.params)
            assert (d_x is None) != with_dx
            assert not with_dx or d_x.shape == (5, f.shape.n)
    fold = kb.backward_params(f, kb.forward(f, x)[1], d_out)[0]
    built = materialized_step(f, x, d_out, False)[1][0]
    for g in (fold, built):
        d_s, d_a, d_b = views(f.shape, g)
        assert d_a.shape == f.a.shape and d_b.shape == f.b.shape
        for view in (d_s, d_a, d_b):
            assert np.shares_memory(view, g)
        want = np.concatenate([d_s.ravel(), d_a.ravel(), d_b.ravel()])
        assert np.array_equal(g, want)


def test_factor_file_payload_order(tmp_path):
    # the .kbf payload is S, A_1..A_r, B_1..B_r, each row-major float64
    rng = np.random.default_rng(4)
    shape = KronShape(2, 3, 3, 2, 3)
    s = rng.standard_normal((2, 3))
    a = [rng.standard_normal((2, 3)) for _ in range(3)]
    b = [rng.standard_normal((3, 2)) for _ in range(3)]
    path = tmp_path / "f.kbf"
    kb.save_factor(path, KronFactor(shape, s, a, b))
    payload = path.read_bytes()[4 + 40:]
    assert payload == b"".join(x.astype("<f8").tobytes() for x in [s, *a, *b])
