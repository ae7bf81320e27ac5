import numpy as np
import pytest

import kronblock as kb
from kronblock import KronShape
from kronblock.network import (
    Layer,
    build_network,
    dense_spec,
    eval_paths,
    evaluate,
    kron_spec,
    load_network,
    net_backward,
    net_forward,
    net_predict,
    save_network,
    softmax,
    softmax_cross_entropy,
)

from conftest import finite_diff, rel_err


def two_layer_net(rng, loss="squared_frobenius", act="relu", kinds=("kron", "kron")):
    specs = []
    s1 = KronShape(2, 3, 3, 2, 2)  # 6 -> 6
    s2 = KronShape(2, 2, 2, 3, 2)  # 6 -> 4
    for kind, shape in zip(kinds, (s1, s2)):
        if kind == "kron":
            specs.append(kron_spec(shape, act if shape is s1 else "identity"))
        else:
            specs.append(dense_spec(shape.m, shape.n, act if shape is s1 else "identity"))
    return build_network(specs, seed=int(rng.integers(0, 2**31)))


def test_identity_dense_layer_passthrough(rng):
    net = build_network([dense_spec(4, 4)], seed=0)
    net.layers[0].w[:] = np.eye(4)
    x = rng.standard_normal((3, 4))
    out, _ = net_forward(net, x)
    assert np.array_equal(out, x)


def test_two_layer_zero_weights_relu(rng):
    net = build_network([dense_spec(5, 4, "relu"), dense_spec(3, 5)], seed=0)
    for layer in net.layers:
        layer.w[:] = 0.0
    out, _ = net_forward(net, rng.standard_normal((2, 4)))
    assert np.array_equal(out, np.zeros((2, 3)))


def densified(net):
    layers = [
        Layer(dense_spec(l.spec.out_dim, l.spec.in_dim, l.spec.activation), w=l.weight_matrix())
        for l in net.layers
    ]
    return kb.Network(layers)


def test_kron_net_matches_densified_net(rng):
    net = two_layer_net(rng)
    dnet = densified(net)
    x = rng.standard_normal((5, net.in_dim))
    out, _ = net_forward(net, x)
    dout, _ = net_forward(dnet, x)
    assert np.max(np.abs(out - dout)) <= 1e-10


def test_kron_vs_dense_shared_gradients(rng):
    # loss and input gradient agree between the factored net and its dense twin
    net = two_layer_net(rng)
    dnet = densified(net)
    x = rng.standard_normal((4, net.in_dim))
    y = rng.standard_normal((4, net.out_dim))
    _, c1 = net_forward(net, x)
    _, c2 = net_forward(dnet, x)
    l1, _, dx1 = net_backward(net, c1, y, "squared_frobenius")
    l2, _, dx2 = net_backward(dnet, c2, y, "squared_frobenius")
    assert abs(l1 - l2) <= 1e-8
    assert np.max(np.abs(dx1 - dx2)) <= 1e-8


def test_perfect_fit_zero_gradients(rng):
    net = two_layer_net(rng, act="identity")
    x = rng.standard_normal((3, net.in_dim))
    out, cache = net_forward(net, x)
    loss, grads, dx = net_backward(net, cache, out.copy(), "squared_frobenius")
    assert loss == 0.0
    for g in grads:
        parts = [g.d_w] if hasattr(g, "d_w") else [g.d_s, *g.d_a, *g.d_b]
        for p in parts:
            assert np.array_equal(p, np.zeros_like(p))


def _net_params(net):
    for layer in net.layers:
        if layer.spec.kind == "kron":
            yield layer.factor.s
            yield from layer.factor.a
            yield from layer.factor.b
        else:
            yield layer.w


def _net_grads(grads):
    for g in grads:
        if hasattr(g, "d_w"):
            yield g.d_w
        else:
            yield g.d_s
            yield from g.d_a
            yield from g.d_b


@pytest.mark.parametrize("kinds", [("kron", "kron"), ("dense", "dense"), ("kron", "dense")])
@pytest.mark.parametrize("act", ["relu", "identity"])
@pytest.mark.parametrize("loss", ["squared_frobenius", "softmax_cross_entropy"])
def test_full_network_gradient_check(rng, kinds, act, loss):
    net = two_layer_net(rng, act=act, kinds=kinds)
    x = rng.standard_normal((3, net.in_dim))
    if loss == "squared_frobenius":
        target = rng.standard_normal((3, net.out_dim))
    else:
        target = rng.integers(0, net.out_dim, size=3)

    def loss_fn():
        out, cache = net_forward(net, x)
        return net_backward(net, cache, target, loss)[0]

    out, cache = net_forward(net, x)
    _, grads, dx = net_backward(net, cache, target, loss)
    for arr, g in zip(_net_params(net), _net_grads(grads)):
        assert rel_err(g, finite_diff(loss_fn, arr)) <= 1e-6
    assert rel_err(dx, finite_diff(loss_fn, x)) <= 1e-6


def test_relu_dead_unit_blocks_gradient(rng):
    net = build_network([dense_spec(2, 3, "relu"), dense_spec(2, 2)], seed=1)
    x = np.array([[1.0, 2.0, 3.0]])
    # unit 0 of layer 1 gets a negative pre-activation, unit 1 a positive one
    net.layers[0].w[0, :] = -1.0
    net.layers[0].w[1, :] = 1.0
    out, cache = net_forward(net, x)
    _, grads, _ = net_backward(net, cache, np.ones((1, 2)), "squared_frobenius")
    assert np.array_equal(grads[0].d_w[0, :], np.zeros(3))
    assert np.any(grads[0].d_w[1, :] != 0.0)


def test_softmax_rows_and_stability():
    logits = np.array([[700.0, -700.0, 0.0], [5.0, 5.0, 5.0]])
    p = softmax(logits)
    assert np.all(np.isfinite(p))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
    loss, seed = softmax_cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss) and np.all(np.isfinite(seed))


def test_evaluate_all_correct(rng):
    net = build_network([dense_spec(3, 4)], seed=0)
    x = rng.standard_normal((6, 4))
    out, _ = net_forward(net, x)
    labels = np.argmax(out, axis=1)
    assert evaluate(net, x, labels)["accuracy"] == 1.0


def test_evaluate_zero_logits_tie_breaks_to_class_zero(rng):
    net = build_network([dense_spec(3, 4)], seed=0)
    net.layers[0].w[:] = 0.0
    x = rng.standard_normal((5, 4))
    labels = np.zeros(5, dtype=np.int64)
    assert evaluate(net, x, labels)["accuracy"] == 1.0


def test_evaluate_deterministic_across_rebuilds(rng):
    x = np.random.default_rng(7).standard_normal((8, 6))
    labels = np.random.default_rng(8).integers(0, 4, size=8)
    vals = []
    for _ in range(2):
        net = build_network([kron_spec(KronShape(2, 3, 2, 2, 2))], seed=99)
        vals.append(evaluate(net, x, labels)["loss"])
    assert vals[0] == vals[1]


# (specs, rows, the eval_paths the cost model gives at that row count): both
# sides of the rule, relu and identity, and nets mixing dense and factored layers
PREDICT_CASES = [
    ([kron_spec(KronShape(5, 392, 2, 2, 2))], 64, ["materialized"]),
    ([kron_spec(KronShape(5, 392, 2, 2, 2))], 1, ["fold"]),
    ([kron_spec(KronShape(5, 49, 2, 16, 2), "softmax_output")], 64, ["fold"]),
    (
        [kron_spec(KronShape(4, 4, 4, 4, 2), "relu"), dense_spec(8, 16, "relu"),
         kron_spec(KronShape(3, 2, 2, 4, 2))],
        64,
        ["fold", "dense", "materialized"],
    ),
    (
        [dense_spec(32, 12, "relu"), kron_spec(KronShape(8, 16, 2, 2, 1), "relu"),
         kron_spec(KronShape(1, 16, 4, 1, 3), "relu")],
        33,
        ["dense", "fold", "materialized"],
    ),
]


@pytest.mark.parametrize("specs,rows,paths", PREDICT_CASES)
def test_net_predict_matches_net_forward(specs, rows, paths):
    net = build_network(specs, seed=11)
    x = np.random.default_rng(rows).standard_normal((rows, net.in_dim))
    assert eval_paths(net, rows) == paths
    want, _ = net_forward(net, x)
    got = net_predict(net, x)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_network_dim_chaining_validated():
    with pytest.raises(ValueError):
        kb.Network(
            [
                Layer(dense_spec(4, 3), w=np.zeros((4, 3))),
                Layer(dense_spec(2, 5), w=np.zeros((2, 5))),
            ]
        )


def test_checkpoint_roundtrip(tmp_path, rng):
    net = two_layer_net(rng, kinds=("kron", "dense"))
    path = tmp_path / "net.kbn"
    save_network(path, net)
    loaded = load_network(path)
    x = rng.standard_normal((3, net.in_dim))
    a, _ = net_forward(net, x)
    b, _ = net_forward(loaded, x)
    assert np.array_equal(a, b)
    assert [l.spec for l in loaded.layers] == [l.spec for l in net.layers]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.kbn"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_network(path)


def _corrupt_checkpoint(tmp_path, rng, edit):
    path = tmp_path / "net.kbn"
    save_network(path, two_layer_net(rng, kinds=("dense", "kron")))
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(edit(raw)))
    return path


def _set_byte(offset, value):
    def edit(raw):
        raw[offset] = value
        return raw

    return edit


# layout: 4-byte magic, u16 version + i64 layer count, then per layer the
# kind byte (offset 14 for layer 0) and the activation byte (offset 15)


def test_checkpoint_unknown_activation_byte(tmp_path, rng):
    path = _corrupt_checkpoint(tmp_path, rng, _set_byte(15, 9))
    with pytest.raises(ValueError, match="layer 0: unknown activation byte 9"):
        load_network(path)


def test_checkpoint_unknown_layer_kind_byte(tmp_path, rng):
    path = _corrupt_checkpoint(tmp_path, rng, _set_byte(14, 7))
    with pytest.raises(ValueError, match="layer 0: unknown layer kind byte 7"):
        load_network(path)


def test_checkpoint_truncated_header(tmp_path, rng):
    path = _corrupt_checkpoint(tmp_path, rng, lambda raw: raw[:8])
    with pytest.raises(ValueError, match=r"truncated network checkpoint header .*got 4"):
        load_network(path)


def test_checkpoint_trailing_bytes(tmp_path, rng):
    path = _corrupt_checkpoint(tmp_path, rng, lambda raw: raw + b"\x00\x00\x00")
    with pytest.raises(ValueError, match="3 trailing bytes"):
        load_network(path)


def test_checkpoint_dense_dims_beyond_file(tmp_path):
    import struct

    path = tmp_path / "net.kbn"
    head = b"KBN1" + struct.pack("<Hq", 1, 1) + struct.pack("<BB", 0, 1)
    for m, n in ((2**40, 2**40), (1000, 1000)):
        path.write_bytes(head + struct.pack("<2q", m, n) + b"\x00" * 64)
        with pytest.raises(ValueError, match=f"layer 0: dense dims {m}x{n} declare"):
            load_network(path)


@pytest.mark.parametrize("dims", [(2**40, 2**40, 1, 1, 1), (100, 100, 1, 1, 1)])
def test_checkpoint_factor_dims_beyond_file(tmp_path, dims):
    import struct

    path = tmp_path / "net.kbn"
    head = b"KBN1" + struct.pack("<Hq", 1, 1) + struct.pack("<BB", 1, 1)
    path.write_bytes(head + b"KBF1" + struct.pack("<5q", *dims) + b"\x00" * 64)
    with pytest.raises(ValueError, match=r"factor dims \(m1, n1, m2, n2, r\) = .* declare"):
        load_network(path)
