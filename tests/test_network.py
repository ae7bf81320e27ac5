import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kronblock as kb
from kronblock import KronShape
from kronblock.data import Dataset
from kronblock.network import (
    Layer,
    build_network,
    dense_spec,
    eval_paths,
    evaluate,
    kron_spec,
    layer_backward,
    load_network,
    loss_and_seed,
    net_backward,
    net_backward_params,
    net_forward,
    net_predict,
    product_orientation,
    save_network,
    softmax_cross_entropy,
    squared_frobenius,
    train_paths,
)

from conftest import finite_diff, random_mixed_net, rel_err, run_fresh


def two_layer_net(rng, act="relu", kinds=("kron", "kron")):
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
        Layer(
            dense_spec(l.spec.out_dim, l.spec.in_dim, l.spec.activation),
            w=kb.materialize(l.factor) if l.spec.kind == "kron" else l.w,
        )
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
    # a factored net on the materialized path is its dense twin plus the
    # projection of each weight gradient onto the factors: the output, loss
    # and every input gradient are the twin's bit for bit, and each factored
    # gradient is weight_gradient of the twin's dW
    net = two_layer_net(rng)
    assert train_paths(net, 4) == ["materialized", "materialized"]
    dnet = densified(net)
    x = rng.standard_normal((4, net.in_dim))
    y = rng.standard_normal((4, net.out_dim))
    out1, c1 = net_forward(net, x)
    out2, c2 = net_forward(dnet, x)
    l1, g1, dx1 = net_backward(net, c1, y)
    l2, g2, dx2 = net_backward(dnet, c2, y)
    assert np.array_equal(out1, out2) and l1 == l2 and np.array_equal(dx1, dx2)
    for idx, (layer, lc, tc) in enumerate(zip(net.layers, c1.layers, c2.layers, strict=True)):
        want = kb.factor.weight_gradient(layer.factor, lc.fcache[1], g2[idx])
        assert np.array_equal(g1[idx], want)
        d_out = rng.standard_normal(lc.out.shape)
        got_dx = layer_backward(layer, lc.x_in, lc.fcache, d_out, True)[1]
        twin_dx = layer_backward(dnet.layers[idx], tc.x_in, tc.fcache, d_out, True)[1]
        assert np.array_equal(got_dx, twin_dx)


def test_perfect_fit_zero_gradients(rng):
    net = two_layer_net(rng, act="identity")
    x = rng.standard_normal((3, net.in_dim))
    out, cache = net_forward(net, x)
    loss, grads, dx = net_backward(net, cache, out.copy())
    assert loss == 0.0
    for p in _net_grads(net, grads):
        assert np.array_equal(p, np.zeros_like(p))


def _net_grads(net, grads):
    # each layer's array split as its parameters are: the dense W, or S, the
    # A_i and the B_i of a factored layer
    for layer, g in zip(net.layers, grads, strict=True):
        if layer.spec.kind == "kron":
            d_s, d_a, d_b = kb.factor.views(layer.spec.shape, g)
            yield d_s
            yield from d_a
            yield from d_b
        else:
            yield g


def _net_params(net):
    return _net_grads(net, [layer.params for layer in net.layers])


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
        return net_backward(net, cache, target)[0]

    out, cache = net_forward(net, x)
    _, grads, dx = net_backward(net, cache, target)
    for arr, g in zip(_net_params(net), _net_grads(net, grads)):
        assert rel_err(g, finite_diff(loss_fn, arr)) <= 1e-6
    assert rel_err(dx, finite_diff(loss_fn, x)) <= 1e-6


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_training_backward_matches_net_backward(seed):
    # mixed dense/kron nets of 1-3 layers, every activation, both losses: the
    # training backward differs from net_backward only by the input gradient
    # it does not return, so every loss and parameter gradient is
    # bit-identical
    r = np.random.default_rng(seed)
    net = random_mixed_net(r, seed)
    n = int(r.integers(1, 6))
    x = r.standard_normal((n, net.in_dim))
    _, cache = net_forward(net, x)
    for loss in ("squared_frobenius", "softmax_cross_entropy"):
        if loss == "squared_frobenius":
            target = r.standard_normal((n, net.out_dim))
        else:
            target = r.integers(0, net.out_dim, size=n)
        want_loss, want, _ = net_backward(net, cache, target)
        got_loss, got = net_backward_params(net, cache, target)
        assert got_loss == want_loss
        assert all(g.shape == layer.params.shape for g, layer in zip(got, net.layers))
        for a, b in zip(_net_grads(net, got), _net_grads(net, want), strict=True):
            assert np.array_equal(a, b)
    for layer, lc in zip(net.layers, cache.layers):
        d_out = r.standard_normal(lc.out.shape)
        want, _ = layer_backward(layer, lc.x_in, lc.fcache, d_out, with_dx=True)
        got, d_x = layer_backward(layer, lc.x_in, lc.fcache, d_out, with_dx=False)
        assert d_x is None
        assert np.array_equal(got, want)


def _magnitudes(net, x, target):
    """Output, loss, gradients and input gradient of the squared-loss step
    run on absolute values: |parameters|, |x| and the target -|target|, so
    the seed is 2(|O| + |Y|). Each entry is at least the sum of the
    magnitudes of the summands of the same entry of the real step: no term
    cancels, and each relu only widens its mask."""
    mag = net.copy()
    for layer in mag.layers:
        np.abs(layer.params, out=layer.params)
    out, cache = net_forward(mag, np.abs(x))
    loss, grads, dx = net_backward(mag, cache, -np.abs(target))
    return out, loss, grads, dx


def _rounding_bound(net, n_batch):
    """2 gamma_k = 2ku / (1 - ku): two computations of one exact value, each
    within gamma_k of the magnitude of its summands (Higham, "Accuracy and
    Stability of Numerical Algorithms", 3.1-3.5), where k bounds the
    roundings along any chain of the step. Each layer's forward and backward
    nest at most three sums of at most max(N, r) * m * n terms each, so
    k = 8 * sum over layers of max(N, r) * m * n also covers the loss."""
    k = 8 * sum(
        max(n_batch, layer.spec.shape.r if layer.spec.kind == "kron" else 1)
        * layer.spec.out_dim * layer.spec.in_dim
        for layer in net.layers
    )
    ku = k * np.finfo(np.float64).eps / 2
    return 2 * ku / (1 - ku)


@given(seed=st.integers(0, 2**31))
@example(seed=655540739)  # its input gradient cancels to 2e-6 of its summands
@settings(max_examples=40, deadline=None)
def test_training_paths_agree_on_mixed_nets(seed):
    # mixed dense/kron nets of 1-3 layers: the step train_paths picks gives the
    # output, loss and every gradient of an all-fold and an all-materialized
    # step, each entry within the rounding bound of its summands' magnitude
    from kronblock import flops as fl

    r = np.random.default_rng(seed)
    net = random_mixed_net(r, seed)
    n = int(r.integers(1, 6))
    x = r.standard_normal((n, net.in_dim))
    target = r.standard_normal((n, net.out_dim))
    picked = train_paths(net, n)
    out, cache = net_forward(net, x)
    loss, grads, dx = net_backward(net, cache, target)
    for layer, lc, path in zip(net.layers, cache.layers, picked):
        # the fold path caches its intermediates; the weight product caches
        # its weight and, for a factored layer, the stacked S * A_i
        if path == "fold":
            assert isinstance(lc.fcache, kb.factor.KronForwardCache)
        elif path == "materialized":
            w, masked_a = lc.fcache
            assert np.array_equal(w, kb.materialize(layer.factor)) and masked_a is not None
        else:
            assert lc.fcache[0] is layer.w and lc.fcache[1] is None
    m_out, m_loss, m_grads, m_dx = _magnitudes(net, x, target)
    tol = _rounding_bound(net, n)
    train_path = fl.train_path
    for forced in ("fold", "materialized"):
        fl.train_path = lambda *_args, forced=forced, **_kw: forced
        try:
            assert train_paths(net, n) == [p if p == "dense" else forced for p in picked]
            f_out, f_cache = net_forward(net, x)
            f_loss, f_grads, f_dx = net_backward(net, f_cache, target)
        finally:
            fl.train_path = train_path
        assert abs(f_loss - loss) <= tol * m_loss
        for got, want, mag in [(f_out, out, m_out), (f_dx, dx, m_dx)] + list(
            zip(*(_net_grads(net, g) for g in (f_grads, grads, m_grads)), strict=True)
        ):
            assert np.all(np.abs(got - want) <= tol * mag)


def test_relu_dead_unit_blocks_gradient(rng):
    net = build_network([dense_spec(2, 3, "relu"), dense_spec(2, 2)], seed=1)
    x = np.array([[1.0, 2.0, 3.0]])
    # unit 0 of layer 1 gets a negative pre-activation, unit 1 a positive one
    net.layers[0].w[0, :] = -1.0
    net.layers[0].w[1, :] = 1.0
    out, cache = net_forward(net, x)
    _, grads, _ = net_backward(net, cache, np.ones((1, 2)))
    assert np.array_equal(grads[0][0, :], np.zeros(3))
    assert np.any(grads[0][1, :] != 0.0)


def test_softmax_rows_and_stability():
    # the seed is (softmax(O) - onehot) / N: at extreme logits it stays
    # finite, and the softmax rows it gives back sum to one
    logits = np.array([[700.0, -700.0, 0.0], [5.0, 5.0, 5.0]])
    labels = np.array([0, 1])
    loss, seed = softmax_cross_entropy(logits, labels)
    assert np.isfinite(loss) and np.all(np.isfinite(seed))
    p = seed * len(labels)
    p[np.arange(len(labels)), labels] += 1.0
    assert np.all(p >= 0.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12


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
        [kron_spec(KronShape(4, 2, 4, 8, 2), "relu"), dense_spec(8, 16, "relu"),
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
    # the golden select run's (4,4) pattern: materialized from 14 rows
    ([kron_spec(KronShape(4, 8, 4, 4, 2))], 64, ["materialized"]),
]


@pytest.mark.parametrize("specs,rows,paths", PREDICT_CASES)
def test_net_predict_matches_net_forward(specs, rows, paths):
    net = build_network(specs, seed=11)
    x = np.random.default_rng(rows).standard_normal((rows, net.in_dim))
    assert eval_paths(net, rows) == paths
    want, _ = net_forward(net, x)
    got = net_predict(net, x)
    assert got.shape == want.shape
    if train_paths(net, rows) == paths:
        # every layer runs the one layer_forward on the same path: same bits
        assert got.tobytes() == want.tobytes()
    else:
        # a layer that trains on the other path sums in another order
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "weight_rows,input_rows,orientation",
    [(15, 511, "direct"), (15, 512, "swapped"), (16, 2048, "direct"), (1, 1, "direct"),
     (2, 4096, "swapped")],
)
def test_product_orientation_rule(weight_rows, input_rows, orientation):
    # swapped only for a weight under THIN_WEIGHT_ROWS rows and an input of at
    # least SWAP_MIN_ROWS rows
    assert product_orientation(weight_rows, input_rows) == orientation


# The thin products a layer can take: weights of 1 to 15 rows at the widths of
# the paper's and the benchmark's layers and of the narrow layers the tests
# train and evaluate at 512 or more rows, at the batch sizes of a single
# sample, an odd remainder, training, both sides of SWAP_MIN_ROWS and the
# eval sets
THIN_PRODUCT_CHECK = """
import json, sys
import numpy as np
from kronblock.linalg import matmul
from kronblock.network import THIN_WEIGHT_ROWS, predict_product

rows, widths, batches = json.loads(sys.argv[1])
rng = np.random.default_rng(0)
failed = []
for n in widths:
    for nb in batches:
        x = rng.standard_normal((nb, n))
        for m in rows:
            assert m < THIN_WEIGHT_ROWS
            w = rng.standard_normal((m, n))
            got = predict_product(x, w)
            if not (got.flags.c_contiguous and got.tobytes() == matmul(x, w.T).tobytes()):
                failed.append(f"W {m}x{n}, X {nb}x{n}")
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_thin_weight_product_orientations_bit_identical(threads):
    # predict_product swaps a thin weight's product to (W @ X.T).T from
    # SWAP_MIN_ROWS input rows; in a fresh process at each BLAS thread count,
    # it must give the bits of X @ W.T on either side of that bound
    cases = [list(range(1, 16)), [3, 4, 16, 24, 32, 256, 784, 1024],
             [1, 7, 64, 511, 512, 768, 2048, 4096]]
    proc = run_fresh(THIN_PRODUCT_CHECK, json.dumps(cases), threads=threads)
    assert proc.returncode == 0, f"orientations differ at {proc.stdout.strip()} {proc.stderr}"


# (specs, batch sizes): fold, materialized and dense layers, thin and not, at
# one sample and the benchmark's eval sizes, where every layer's train path is
# its eval path, so net_forward's output is net_predict's to the bit
EVALUATE_CASES = [
    ([kron_spec(KronShape(5, 392, 2, 2, 2), "softmax_output")], (1, 2048)),
    ([kron_spec(KronShape(8, 16, 2, 2, 1), "relu"), dense_spec(10, 16, "softmax_output")],
     (1, 512)),
    ([dense_spec(24, 32, "relu"), kron_spec(KronShape(3, 6, 2, 4, 2))], (1, 512)),
    ([kron_spec(KronShape(1, 16, 4, 1, 2), "relu"), dense_spec(3, 4, "identity")], (1, 2048)),
    ([dense_spec(10, 784, "softmax_output")], (1, 2048)),
]


@pytest.mark.parametrize("loss", ["squared_frobenius", "softmax_cross_entropy"])
@pytest.mark.parametrize("case", range(len(EVALUATE_CASES)))
def test_evaluate_matches_training_losses(case, loss):
    # the squared loss evaluates regression targets (here one-hot rows) in
    # eval_metrics, the cross entropy class labels in evaluate
    specs, batches = EVALUATE_CASES[case]
    net = build_network(specs, seed=case)
    rng = np.random.default_rng(case)
    for nb in batches:
        assert train_paths(net, nb) == eval_paths(net, nb)
        x = rng.standard_normal((nb, net.in_dim))
        labels = rng.integers(0, net.out_dim, size=nb)
        out, _ = net_forward(net, x)
        if loss == "squared_frobenius":
            onehot = np.zeros_like(out)
            onehot[np.arange(nb), labels] = 1.0
            want_loss, _ = squared_frobenius(out, onehot)
        else:
            want_loss, _ = softmax_cross_entropy(out, labels)
        accuracy = float(np.mean(np.argmax(out, axis=1) == labels))
        if loss == "squared_frobenius":
            assert kb.train.eval_metrics(net, Dataset(x, y=onehot)) == (want_loss, accuracy)
        else:
            assert evaluate(net, x, labels) == {"loss": want_loss, "accuracy": accuracy}


def _reference_softmax_cross_entropy(o, labels):
    # softmax_cross_entropy as it was written before the shared loss helper:
    # a row-wise max and np.mean
    nbatch = o.shape[0]
    z = o - o.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - z[np.arange(nbatch), labels]))
    seed = e / total
    seed[np.arange(nbatch), labels] -= 1.0
    return loss, seed / nbatch


@pytest.mark.parametrize("rows,classes", [(1, 1), (1, 10), (7, 3), (64, 10), (512, 16),
                                          (2048, 10)])
def test_softmax_cross_entropy_matches_reference_bits(rows, classes):
    rng = np.random.default_rng(rows * classes)
    o = rng.standard_normal((rows, classes)) * 5.0
    labels = rng.integers(0, classes, size=rows)
    if classes >= 3:
        # +0.0 and -0.0 tying for a row's max, in either order, and huge logits
        o[0, :3] = (0.0, -0.0, -1.0)
        o[-1, :3] = (-0.0, 0.0, -700.0)
        o[rows // 2, :] = -0.0
        o[rows // 3, :2] = (700.0, -700.0)
    loss, seed = softmax_cross_entropy(o, labels)
    want_loss, want_seed = _reference_softmax_cross_entropy(o, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert seed.tobytes() == want_seed.tobytes()


def test_loss_and_seed_follows_the_targets(rng):
    # 1-D class labels pick the cross entropy, 2-D targets the squared loss
    o = rng.standard_normal((5, 4))
    labels, y = rng.integers(0, 4, size=5), rng.standard_normal((5, 4))
    for target, loss_fn in ((labels, softmax_cross_entropy), (y, squared_frobenius)):
        loss, seed = loss_and_seed(o, target)
        want_loss, want_seed = loss_fn(o, target)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert seed.tobytes() == want_seed.tobytes()


@pytest.mark.parametrize("x,message", [
    (np.zeros(6), "x must be 2-D"),
    (np.zeros((2, 3, 2)), "x must be 2-D"),
    (np.zeros((2, 5)), "input has 5 features, network expects 6"),
])
def test_net_predict_checks_its_input(x, message):
    net = build_network([dense_spec(4, 6)], seed=0)
    with pytest.raises(ValueError, match=message):
        net_predict(net, x)
    with pytest.raises(ValueError, match=message):
        evaluate(net, x, np.zeros(2, dtype=np.int64))


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


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    # the bytes of one valid file per binary format: a two-layer checkpoint (a
    # factored and a dense layer), a factor file, and a 3-D uint8 and a 1-D
    # float64 IDX
    rng = np.random.default_rng(5)
    net = build_network([kron_spec(KronShape(2, 3, 2, 2, 2), "relu"), dense_spec(3, 4)], seed=5)
    directory = tmp_path_factory.mktemp("valid")
    save_network(directory / "net.kbn", net)
    kb.save_factor(directory / "f.kbf", net.layers[0].factor)
    kb.write_idx(directory / "img.idx", rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8))
    kb.write_idx(directory / "vec.idx", rng.standard_normal(5))
    return {path.name: path.read_bytes() for path in directory.iterdir()}


_LOADERS = {"net.kbn": load_network, "f.kbf": kb.load_factor,
            "img.idx": kb.read_idx, "vec.idx": kb.read_idx}


@given(
    name=st.sampled_from(sorted(_LOADERS)),
    cut=st.none() | st.integers(0, 200),
    flips=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 255)), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_corrupt_files_raise_only_value_error(tmp_path_factory, valid_files, name, cut, flips):
    # a truncated or byte-flipped checkpoint, factor or IDX file either loads
    # or raises ValueError (the CLI's one-line error), never anything else
    raw = valid_files[name]
    data = bytearray(raw if cut is None else raw[: cut % (len(raw) + 1)])
    for offset, mask in flips:
        if data:
            data[offset % len(data)] ^= mask
    path = tmp_path_factory.getbasetemp() / f"fuzzed-{name}"
    path.write_bytes(bytes(data))
    try:
        _LOADERS[name](path)
    except ValueError:
        pass
