import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronblock import (
    fold_input,
    fold_mid,
    fold_output,
    fold_tiles,
    hadamard,
    unfold_input,
    unfold_mid,
    unfold_output,
    unfold_tiles,
)
from kronblock.linalg import add, counting, matmul, row_view, tile_rows, tile_view

dims = st.integers(min_value=1, max_value=6)


def kron_bruteforce(a, b):
    m1, n1 = a.shape
    m2, n2 = b.shape
    out = np.zeros((m1 * m2, n1 * n2))
    for i1 in range(m1):
        for j1 in range(n1):
            for i2 in range(m2):
                for j2 in range(n2):
                    out[i1 * m2 + i2, j1 * n2 + j2] = a[i1, j1] * b[i2, j2]
    return out


def test_kron_scalar_identity(rng):
    b = rng.standard_normal((3, 4))
    assert np.array_equal(np.kron([[1.0]], b), b)


def test_kron_identity_times_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_matches_definitional_double_loop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(np.kron(a, b), kron_bruteforce(a, b))


@given(m1=dims, n1=dims, m2=dims, n2=dims, seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_kron_tile_convention(m1, n1, m2, n2, seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((m1, n1))
    b = r.standard_normal((m2, n2))
    w = np.kron(a, b)
    for i1 in range(m1):
        for j1 in range(n1):
            tile = w[i1 * m2 : (i1 + 1) * m2, j1 * n2 : (j1 + 1) * n2]
            assert np.array_equal(tile, a[i1, j1] * b)


def test_hadamard_ones_zeros(rng):
    a = rng.standard_normal((3, 5))
    assert np.array_equal(hadamard(a, np.ones_like(a)), a)
    assert np.array_equal(hadamard(a, np.zeros_like(a)), np.zeros_like(a))


def test_hadamard_entrywise():
    out = hadamard([[1.0, 2.0], [3.0, 4.0]], [[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(out, [[2.0, 0.0], [0.0, 8.0]])


def test_hadamard_shape_mismatch():
    with pytest.raises(ValueError):
        hadamard(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        hadamard(np.ones((3, 2, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        hadamard(np.ones((2, 2)), np.ones((3, 2, 2)))


def test_hadamard_stack_matches_and_counts_per_matrix_products(rng):
    # a (r, p, q) stack times one (p, q) matrix: the r products S * A_i of a
    # factored layer, bit for bit, counted as the r*p*q flops of r calls
    from kronblock.linalg import counting

    s, a = rng.standard_normal((3, 5)), rng.standard_normal((4, 3, 5))
    with counting() as ops:
        out = hadamard(a, s)
    assert ops == [("hadamard", 4 * 3 * 5)]
    assert np.array_equal(out, np.stack([hadamard(s, a_i) for a_i in a]))


def test_hadamard_out_fills_out_and_counts_a_size(rng):
    # the product lands in ``out``, a plain array or a strided view, which is
    # returned; the count is that of the same product without ``out``
    s, a = rng.standard_normal((3, 5)), rng.standard_normal((4, 3, 5))
    out = np.empty((4, 3, 5))
    columns = np.empty((15, 4))
    with counting() as ops:
        assert hadamard(a, s, out) is out
        hadamard(a, s, out=columns.T.reshape(4, 3, 5))
    assert ops == [("hadamard", a.size)] * 2
    assert np.array_equal(out, hadamard(a, s))
    assert np.array_equal(columns, hadamard(a, s).reshape(4, 15).T)
    with pytest.raises(ValueError, match="out shape"):
        hadamard(a, s, np.empty((4, 15)))


@pytest.mark.parametrize("p,q,s", [(1, 1, 1), (1, 7, 1), (6, 1, 5), (7, 13, 3), (64, 33, 16),
                                   (256, 8, 2)])
@pytest.mark.parametrize("transposed", [False, True])
def test_matmul_and_add_out_match_the_allocating_form(p, q, s, transposed):
    # ``out``, here a view into a larger flat buffer as a factored layer's dB
    # is, gets the bits of the allocating call and is returned; ``add`` also
    # runs in place. The counts are those of the calls without ``out``
    rng = np.random.default_rng(p * q * s)
    a = rng.standard_normal((q, p)).T if transposed else rng.standard_normal((p, q))
    b, c = rng.standard_normal((q, s)), rng.standard_normal((p, s))
    with counting() as allocating:
        product = matmul(a, b)
        total = add(product, c)
    view = np.empty(3 + p * s)[3:].reshape(p, s)
    with counting() as ops:
        assert matmul(a, b, out=view) is view
        assert np.array_equal(view, product)
        assert add(view, c, out=view) is view
    assert np.array_equal(view, total)
    assert ops == allocating == [("matmul", p * s * (2 * q - 1)), ("add", p * s)]


SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)


@given(m1=dims, m2=dims, n1=dims, n2=dims, data=st.data())
@settings(max_examples=60, deadline=None)
def test_tile_rows_product_matches_tile_view_broadcast_bit_for_bit(m1, m2, n1, n2, data):
    # whole rows of w times the repeated per-tile factor give the bits of the
    # factor broadcast over tile_view, for float scales (with zeros), bool
    # masks and bool masks as 0.0/1.0, on weights holding +-0, +-inf and NaN
    values = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(SPECIAL))
    w = data.draw(arrays(np.float64, (m1 * m2, n1 * n2), elements=values))
    scale = data.draw(arrays(np.float64, (m1, n1),
                             elements=st.one_of(st.floats(0.0, 1.0), st.just(0.0))))
    mask = data.draw(arrays(np.bool_, (m1, n1)))
    for factor, rows in ((scale, tile_rows(scale, n2)), (mask, tile_rows(mask, n2)),
                         (mask, tile_rows(mask.astype(np.float64), n2))):
        assert rows.shape == (m1, 1, n1 * n2)
        broadcast, rowwise = w.copy(), w.copy()
        with np.errstate(invalid="ignore"):  # inf * 0
            tile_view(broadcast, m2, n2)[:] *= factor[:, None, :, None]
            row_view(rowwise, m2)[:] *= rows
        assert np.array_equal(broadcast.view(np.uint64), rowwise.view(np.uint64))


def test_row_view_is_a_view_of_tile_rows():
    w = np.arange(24.0).reshape(4, 6)
    rows = row_view(w, 2)
    assert rows.shape == (2, 2, 6) and np.shares_memory(rows, w)
    assert np.array_equal(rows[1], w[2:4])
    with pytest.raises(ValueError, match="row_view rows"):
        row_view(w, 3)


def test_fold_input_single_sample_column():
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(fold_input(x, 1, 3), x.T)


def test_fold_input_small_example():
    # x = [a, b, c, d] with n1 = n2 = 2 -> [[a, c], [b, d]]
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert np.array_equal(fold_input(x, 2, 2), np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_fold_output_small_example():
    # m = 4, m1 = 2, m2 = 2, N = 1: out[0, i1*2 + i2] = v[i2, i1]
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(fold_output(v, 2), np.array([[1.0, 3.0, 2.0, 4.0]]))


@given(n=st.integers(1, 4), n1=dims, n2=dims, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_fold_input_roundtrip(n, n1, n2, seed):
    x = np.random.default_rng(seed).standard_normal((n, n1 * n2))
    assert np.array_equal(unfold_input(fold_input(x, n1, n2), n1), x)


@given(n=st.integers(1, 4), m2=dims, n1=dims, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_fold_mid_roundtrip(n, m2, n1, seed):
    v = np.random.default_rng(seed).standard_normal((m2, n * n1))
    assert np.array_equal(unfold_mid(fold_mid(v, n1), m2), v)


@given(n=st.integers(1, 4), m1=dims, m2=dims, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_fold_output_roundtrip(n, m1, m2, seed):
    v = np.random.default_rng(seed).standard_normal((n * m2, m1))
    assert np.array_equal(unfold_output(fold_output(v, m2), m2), v)


@given(m1=dims, n1=dims, m2=dims, n2=dims, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_fold_tiles_roundtrip_and_index_formula(m1, n1, m2, n2, seed):
    # out[i1*n1 + j1, i2*n2 + j2] == w[i1*m2 + i2, j1*n2 + j2]
    w = np.random.default_rng(seed).standard_normal((m1 * m2, n1 * n2))
    t = fold_tiles(w, m2, n2)
    assert t.shape == (m1 * n1, m2 * n2)
    i1, j1, i2, j2 = np.meshgrid(range(m1), range(n1), range(m2), range(n2), indexing="ij")
    assert np.array_equal(t[i1 * n1 + j1, i2 * n2 + j2], w[i1 * m2 + i2, j1 * n2 + j2])
    assert np.array_equal(unfold_tiles(t, n1, n2), w)


def test_three_sample_batch_roundtrips(rng):
    # n1=4, n2=3, m1=2, m2=5 at batch 3
    x = rng.standard_normal((3, 12))
    assert np.array_equal(unfold_input(fold_input(x, 4, 3), 4), x)
    v = rng.standard_normal((5, 12))
    assert np.array_equal(unfold_mid(fold_mid(v, 4), 5), v)
    o = rng.standard_normal((15, 2))
    assert np.array_equal(unfold_output(fold_output(o, 5), 5), o)


def test_fold_index_formula(rng):
    # out[j2, s*n1 + j1] == x[s, j1*n2 + j2]
    n, n1, n2 = 3, 4, 5
    x = rng.standard_normal((n, n1 * n2))
    xf = fold_input(x, n1, n2)
    for s in range(n):
        for j1 in range(n1):
            for j2 in range(n2):
                assert xf[j2, s * n1 + j1] == x[s, j1 * n2 + j2]


def test_fold_dimension_errors():
    with pytest.raises(ValueError):
        fold_input(np.ones((2, 5)), 2, 2)
    with pytest.raises(ValueError):
        unfold_mid(np.ones((5, 3)), 2)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_kron_apply_via_folds_matches_dense(seed):
    # (A (x) B) x computed densely equals the fold pipeline, <= 1e-12.
    r = np.random.default_rng(seed)
    m1, n1, m2, n2 = (int(r.integers(1, 9)) for _ in range(4))
    n_batch = int(r.integers(1, 5))
    a = r.standard_normal((m1, n1))
    b = r.standard_normal((m2, n2))
    x = r.standard_normal((n_batch, n1 * n2))
    dense = x @ np.kron(a, b).T
    piped = fold_output(fold_mid(b @ fold_input(x, n1, n2), n1) @ a.T, m2)
    assert np.max(np.abs(dense - piped)) <= 1e-12
