import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronblock as kb
from kronblock import (
    KronShape,
    LAMBDA_GRID,
    MetricRecord,
    TrainConfig,
    TrainingDivergedError,
    make_teacher_dataset,
    prune_blocks,
    train_group_lasso,
    train_kron,
)
from kronblock.network import (
    build_network,
    dense_spec,
    kron_spec,
    net_backward,
    net_forward,
    train_paths,
)
from kronblock import train as train_mod
from kronblock.factor import views
from kronblock.linalg import tile_norms, tile_view
from kronblock.train import (
    dense_tile_sparsity,
    eval_metrics,
    init_velocities,
    mask_l1_prox,
    net_mask_sparsity,
    sgd_step,
    soft_threshold,
)
from kronblock.data import Dataset, batches


def teacher_zero_mask(teacher, block):
    m2, n2 = block
    m1, n1 = teacher.shape[0] // m2, teacher.shape[1] // n2
    return np.array(
        [
            [np.all(teacher[i * m2 : (i + 1) * m2, j * n2 : (j + 1) * n2] == 0) for j in range(n1)]
            for i in range(m1)
        ]
    )


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=4, learning_rate=0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, momentum=1.0)


def test_soft_threshold_exact_zeros():
    x = np.array([[0.5, -0.2], [0.05, -0.04]])
    out = soft_threshold(x, 0.1)
    assert np.array_equal(out, np.array([[0.4, -0.1], [0.0, 0.0]]))


@given(seed=st.integers(0, 2**31), t=st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_soft_threshold_properties(seed, t):
    x = np.random.default_rng(seed).standard_normal((3, 4))
    out = soft_threshold(x, t)
    below = np.abs(x) <= t
    assert np.all(out[below] == 0.0)
    assert np.allclose(np.abs(out[~below]), np.abs(x[~below]) - t)
    assert np.array_equal(np.sign(out[~below]), np.sign(x[~below]))


@given(seed=st.integers(0, 2**31), t=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_group_lasso_prox_properties(seed, t):
    from kronblock.linalg import tile_norms
    from kronblock.train import group_lasso_prox

    w = np.random.default_rng(seed).standard_normal((4, 6))
    before = tile_norms(w, 2, 2)
    group_lasso_prox(w, (2, 2), t)
    after = tile_norms(w, 2, 2)
    died = before <= t
    assert np.all(after[died] == 0.0)
    assert np.allclose(after[~died], before[~died] - t)


def test_lambda_zero_matches_plain_sgd(rng):
    # hand-rolled momentum SGD oracle must coincide bit-for-bit at lam=0
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 32, seed=1, classification=True)
    shape = KronShape(2, 4, 2, 2, 2)
    cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.05, momentum=0.9, lam=0.0, seed=4)

    net = build_network([kron_spec(shape)], seed=2)
    oracle = net.copy()
    train_kron(net, ds, cfg)

    f = oracle.layers[0].factor
    vel = {
        "s": np.zeros_like(f.s),
        "a": [np.zeros_like(x) for x in f.a],
        "b": [np.zeros_like(x) for x in f.b],
    }
    for epoch in range(1, cfg.epochs + 1):
        for xb, tb in batches(ds, cfg.batch_size, cfg.shuffle, seed=(cfg.seed, epoch)):
            _, cache = net_forward(oracle, xb)
            _, grads, _ = net_backward(oracle, cache, tb)
            d_s, d_a, d_b = views(shape, grads[0])
            vel["s"] = cfg.momentum * vel["s"] + d_s
            f.s -= cfg.learning_rate * vel["s"]
            for i in range(shape.r):
                vel["a"][i] = cfg.momentum * vel["a"][i] + d_a[i]
                f.a[i] -= cfg.learning_rate * vel["a"][i]
                vel["b"][i] = cfg.momentum * vel["b"][i] + d_b[i]
                f.b[i] -= cfg.learning_rate * vel["b"][i]

    trained = net.layers[0].factor
    assert np.array_equal(trained.s, f.s)
    for x, y in zip([*trained.a, *trained.b], [*f.a, *f.b], strict=True):
        assert np.array_equal(x, y)


def _per_array_sgd(net, grads, vel, cfg):
    # momentum SGD on every matrix on its own, the mask prox right after the
    # mask's step: the update sgd_step and then mask_l1_prox must reproduce
    # bit for bit
    lr, mu = cfg.learning_rate, cfg.momentum
    for layer, g, v in zip(net.layers, grads, vel):
        if layer.spec.kind == "dense":
            v["w"] = mu * v["w"] + g
            layer.w -= lr * v["w"]
            continue
        f = layer.factor
        d_s, d_a, d_b = views(f.shape, g)
        v["s"] = mu * v["s"] + d_s
        f.s -= lr * v["s"]
        if cfg.lam > 0:
            f.s[:] = soft_threshold(f.s, lr * cfg.lam)
        for i in range(f.shape.r):
            v["a"][i] = mu * v["a"][i] + d_a[i]
            f.a[i] -= lr * v["a"][i]
            v["b"][i] = mu * v["b"][i] + d_b[i]
            f.b[i] -= lr * v["b"][i]


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
@pytest.mark.parametrize(
    "path,tiling,batch", [("fold", (8, 8, 4, 4), 4), ("materialized", (2, 4, 2, 2), 8)]
)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sgd_step_matches_per_array_reference(r, path, tiling, batch, lam):
    # one flat update per layer (a factored layer, then a dense one) and then
    # the mask's L1 prox equal the per-array update, on either training path
    shape = KronShape(*tiling, r)
    net = build_network([kron_spec(shape, "relu"), dense_spec(3, shape.m)], seed=r)
    assert train_paths(net, batch) == [path, "dense"]
    ref = net.copy()
    cfg = TrainConfig(epochs=1, batch_size=batch, learning_rate=0.1, momentum=0.9, lam=lam)
    vel = init_velocities(net)
    f, w = ref.layers[0].factor, ref.layers[1].w
    ref_vel = [
        {"s": np.zeros_like(f.s), "a": [np.zeros_like(x) for x in f.a],
         "b": [np.zeros_like(x) for x in f.b]},
        {"w": np.zeros_like(w)},
    ]
    rng = np.random.default_rng(r)
    for _ in range(4):
        x = rng.standard_normal((batch, shape.n))
        labels = rng.integers(0, 3, batch)
        _, grads, _ = net_backward(net, net_forward(net, x)[1], labels, False)
        sgd_step(net, grads, vel, cfg)
        if lam > 0:
            mask_l1_prox(net, cfg.learning_rate * lam)
        _, grads, _ = net_backward(ref, net_forward(ref, x)[1], labels, False)
        _per_array_sgd(ref, grads, ref_vel, cfg)
        got = net.layers[0].factor
        assert np.array_equal(got.s, f.s)
        for x_got, x_ref in zip([*got.a, *got.b], [*f.a, *f.b], strict=True):
            assert np.array_equal(x_got, x_ref)
        assert np.array_equal(net.layers[1].w, w)
    if lam == 3.0:
        assert np.any(f.s == 0.0)


@pytest.mark.parametrize("path,tilings,batch", [
    ("fold", ((8, 8, 4, 4), (8, 8, 4, 4)), 4),
    ("materialized", ((2, 4, 2, 2), (2, 2, 2, 2)), 8),
])
def test_train_step_concatenates_nothing(monkeypatch, path, tilings, batch):
    # the backward writes dS, the dA_i and the dB_i straight into their views
    # of one flat gradient, so a training step of two factored layers, the
    # second with the input gradient, joins no arrays
    shapes = [KronShape(*tiling, 2) for tiling in tilings]
    net = build_network([kron_spec(shapes[0], "relu"), kron_spec(shapes[1])], seed=1)
    assert train_paths(net, batch) == [path, path]
    cfg = TrainConfig(epochs=1, batch_size=batch, learning_rate=0.1, lam=0.5)
    vel = init_velocities(net)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, net.in_dim))
    labels = rng.integers(0, net.out_dim, batch)
    calls = []
    concatenate = np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda *a, **k: calls.append(1) or concatenate(*a, **k))
    train_mod.train_step(net, x, labels, vel, cfg)
    assert calls == []


def test_huge_lambda_kills_mask_in_one_epoch():
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 32, seed=1, classification=True)
    net = build_network([kron_spec(KronShape(2, 4, 2, 2, 2))], seed=2)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, lam=1e4, seed=4)
    net, records = train_kron(net, ds, cfg)
    assert records[-1].sparsity_rate == 1.0
    assert np.array_equal(net.layers[0].factor.s, np.zeros((2, 4)))


def test_teacher_recovery_with_grid_lambda():
    # noiseless regression teacher: the student's zero tiles must cover the
    # teacher's, with lambda taken from the documented sweep grid
    ds, teacher = make_teacher_dataset(8, 16, (2, 2), 0.6, 512, seed=1, classification=False)
    tz = teacher_zero_mask(teacher, (2, 2))
    net = build_network([kron_spec(KronShape(4, 8, 2, 2, 4))], seed=3)
    lam = LAMBDA_GRID[7]  # 3.16e-2
    cfg = TrainConfig(
        epochs=300, batch_size=16, learning_rate=4e-3, momentum=0.0,
        lam=lam, seed=5,
    )
    net, records = train_kron(net, ds, cfg)
    student_zero = np.abs(net.layers[0].factor.s) < 1e-6
    assert np.all(student_zero[tz]), "student failed to zero all teacher-zero tiles"
    assert records[-1].eval_loss < 0.1


def test_mask_entries_exact_zero_or_clearly_nonzero():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.6, 256, seed=2, classification=False)
    net = build_network([kron_spec(KronShape(4, 8, 2, 2, 2))], seed=3)
    cfg = TrainConfig(
        epochs=20, batch_size=16, learning_rate=4e-3, momentum=0.0,
        lam=0.05, seed=5,
    )
    net, _ = train_kron(net, ds, cfg)
    s = net.layers[0].factor.s
    assert np.all((s == 0.0) | (np.abs(s) > 1e-300))


def test_group_lasso_lambda_zero_is_plain_sgd(rng):
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 32, seed=1, classification=True)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05, momentum=0.9, lam=0.0, seed=4)
    net = build_network([dense_spec(4, 8)], seed=2)
    oracle = net.copy()
    train_group_lasso(net, ds, cfg, (2, 2))

    w = oracle.layers[0].w
    vel = np.zeros_like(w)
    for epoch in range(1, cfg.epochs + 1):
        for xb, tb in batches(ds, cfg.batch_size, cfg.shuffle, seed=(cfg.seed, epoch)):
            _, cache = net_forward(oracle, xb)
            _, grads, _ = net_backward(oracle, cache, tb)
            vel = cfg.momentum * vel + grads[0]
            w -= cfg.learning_rate * vel
    assert np.array_equal(net.layers[0].w, w)


def test_group_lasso_unexcited_tile_dies(rng):
    # features for tile column 3 are always zero -> that tile sees pure shrinkage
    x = rng.standard_normal((64, 8))
    x[:, 6:8] = 0.0
    teacher = rng.standard_normal((4, 8))
    ds = kb.Dataset(x, y=x @ teacher.T)
    net = build_network([dense_spec(4, 8)], seed=2)
    cfg = TrainConfig(
        epochs=80, batch_size=16, learning_rate=2e-3, momentum=0.0,
        lam=3.0, seed=4,
    )
    net, _ = train_group_lasso(net, ds, cfg, (2, 2))
    w = net.layers[0].w
    assert np.array_equal(w[:, 6:8], np.zeros((4, 2)))
    assert np.all(np.abs(w[:, :6]) > 0)  # excited tiles survive


def test_group_lasso_tiles_exact_zero_or_positive_norm():
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 64, seed=3, classification=True)
    net = build_network([dense_spec(4, 8)], seed=2)
    cfg = TrainConfig(epochs=30, batch_size=16, learning_rate=0.3, momentum=0.0, lam=0.05, seed=4)
    net, _ = train_group_lasso(net, ds, cfg, (2, 2))
    from kronblock.linalg import tile_norms

    norms = tile_norms(net.layers[0].w, 2, 2)
    assert np.all((norms == 0.0) | (norms > 1e-300))


def test_group_lasso_loss_parity_with_kron():
    # noisy regression teacher: both trainers reach the held-out noise floor
    ds, _ = make_teacher_dataset(
        8, 16, (2, 2), 0.5, 2048, noise_sigma=0.3, seed=6, classification=False
    )
    tr, te = kb.train_test_split(ds, 0.25, seed=6)
    cfg = TrainConfig(
        epochs=100, batch_size=32, learning_rate=1e-3, momentum=0.0,
        lam=0.0, seed=4,
    )
    knet = build_network([kron_spec(KronShape(4, 8, 2, 2, 4))], seed=2)
    _, krecs = train_kron(knet, tr, cfg, eval_data=te)
    gnet = build_network([dense_spec(8, 16)], seed=2)
    _, grecs = train_group_lasso(gnet, tr, cfg, (2, 2), eval_data=te)
    assert abs(grecs[-1].eval_loss - krecs[-1].eval_loss) <= 0.10 * krecs[-1].eval_loss


def test_group_lasso_requires_dense_net(rng):
    net = build_network([kron_spec(KronShape(2, 4, 2, 2, 1))], seed=0)
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 16, seed=1, classification=True)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)
    with pytest.raises(ValueError):
        train_group_lasso(net, ds, cfg, (2, 2))


@pytest.mark.parametrize(
    "trainer,name",
    [
        (lambda net, ds, cfg, block: train_group_lasso(net, ds, cfg, block), "train_group_lasso"),
        (lambda net, ds, cfg, block: prune_blocks(net, ds, cfg, block, 0.5, 1), "prune_blocks"),
    ],
    ids=["group_lasso", "prune"],
)
def test_dense_baselines_check_net_and_block(trainer, name):
    # both dense baselines reject a factored layer and a block that does not
    # tile a layer, with the same messages
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 16, seed=1, classification=True)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)
    kron_net = build_network([kron_spec(KronShape(2, 4, 2, 2, 1))], seed=0)
    with pytest.raises(ValueError, match=rf"^{name} expects an all-dense network$"):
        trainer(kron_net, ds, cfg, (2, 2))
    dense_net = build_network([dense_spec(4, 8)], seed=0)
    with pytest.raises(ValueError, match=r"^\(3,2\) does not divide 4x8$"):
        trainer(dense_net, ds, cfg, (3, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda net, ds, cfg: train_group_lasso(net, ds, cfg, (0, 2)),
        lambda net, ds, cfg: prune_blocks(net, ds, cfg, (2, 0), 0.5, 1),
        lambda net, ds, cfg: make_teacher_dataset(4, 8, (0, 2), 0.5, 16, seed=1,
                                                  classification=True),
        lambda net, ds, cfg: kb.build_pattern_set([(4, 8)], [[(0, 2)], [(2, 2)]], 1),
        lambda net, ds, cfg: tile_norms(net.layers[0].w, 0, 2),
        lambda net, ds, cfg: dense_spec(2.5, 3),
    ],
    ids=["group_lasso", "prune", "teacher", "pattern_set", "tile_norms", "dense_spec"],
)
def test_zero_or_non_integer_size_is_a_value_error(call):
    # a zero block size used to end in a ZeroDivisionError, and a float dense
    # width passed the spec and failed later with a TypeError
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 16, seed=1, classification=True)
    net = build_network([dense_spec(4, 8)], seed=0)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)
    with pytest.raises(ValueError):
        call(net, ds, cfg)


def test_prune_zero_target_keeps_everything():
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 32, seed=1, classification=True)
    net = build_network([dense_spec(4, 8)], seed=2)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05, seed=4)
    net, records = prune_blocks(net, ds, cfg, (2, 2), target_rate=0.0, rounds=1)
    assert records[-1].sparsity_rate == 0.0


def test_prune_hits_exact_half():
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 32, seed=1, classification=True)
    net = build_network([dense_spec(4, 8)], seed=2)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05, seed=4)
    net, records = prune_blocks(net, ds, cfg, (2, 2), target_rate=0.5, rounds=1)
    assert records[-1].sparsity_rate == 0.5
    assert dense_tile_sparsity(net, (2, 2), cfg.eps_zero) == 0.5


def test_prune_tie_break_row_major():
    ds, _ = make_teacher_dataset(4, 4, (2, 2), 0.0, 8, seed=1, classification=True)
    net = build_network([dense_spec(4, 4)], seed=2)
    net.layers[0].w[:] = 1.0  # all tiles tie
    # learning rate small enough that updates underflow: weights stay bit-exact
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=1e-300, momentum=0.0, seed=4)
    net, _ = prune_blocks(net, ds, cfg, (2, 2), target_rate=0.5, rounds=1)
    from kronblock.linalg import tile_norms

    norms = tile_norms(net.layers[0].w, 2, 2)
    # row-major first two tiles (0,0) and (0,1) pruned
    assert norms[0, 0] == 0.0 and norms[0, 1] == 0.0
    assert norms[1, 0] > 0.0 and norms[1, 1] > 0.0


def test_prune_rate_validation():
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 16, seed=1, classification=True)
    net = build_network([dense_spec(4, 8)], seed=2)
    cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.05)
    with pytest.raises(ValueError):
        prune_blocks(net, ds, cfg, (2, 2), target_rate=1.0, rounds=1)


def test_prune_accuracy_parity_with_kron():
    # matched ~50% sparsity on the classification teacher task
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.5, 1024, seed=9, classification=True)
    tr, te = kb.train_test_split(ds, 0.25, seed=9)
    pnet = build_network([dense_spec(8, 16)], seed=2)
    pcfg = TrainConfig(epochs=120, batch_size=tr.n, learning_rate=0.5, momentum=0.9, seed=4)
    pnet, precs = prune_blocks(pnet, tr, pcfg, (2, 2), target_rate=0.5, rounds=2, eval_data=te)

    knet = build_network([kron_spec(KronShape(4, 8, 2, 2, 4))], seed=2)
    kcfg = TrainConfig(
        epochs=360, batch_size=tr.n, learning_rate=0.5, momentum=0.9, lam=0.055, seed=4
    )
    knet, krecs = train_kron(knet, tr, kcfg, eval_data=te)
    assert abs(krecs[-1].sparsity_rate - precs[-1].sparsity_rate) <= 0.15
    assert abs(krecs[-1].accuracy - precs[-1].accuracy) <= 0.05


# Reference forms of the dense baselines' tile-wise products: each per-tile
# factor broadcast over the (m1, m2, n1, n2) tile view. The trainers multiply
# whole rows by linalg.tile_rows instead, and must keep these bits.


def reference_group_lasso_prox(w, block, t):
    m2, n2 = block
    norms = tile_norms(w, m2, n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > t, 1.0 - t / norms, 0.0)
    tile_view(w, m2, n2)[:] *= scale[:, None, :, None]


def reference_prune_blocks(net, data, cfg, block, target_rate, rounds, eval_data):
    m2, n2 = block
    masks = [np.ones((l.spec.m // m2, l.spec.n // n2), dtype=bool) for l in net.layers]
    vel = init_velocities(net)
    records = []

    def mask_grads(grads):
        for g, mask in zip(grads, masks):
            tile_view(g, m2, n2)[:] *= mask[:, None, :, None]

    def run_phase():
        for _ in range(cfg.epochs):
            epoch = len(records) + 1
            loss = train_mod._epoch_pass(net, data, cfg, epoch, vel, grad_hook=mask_grads)
            sparsity = dense_tile_sparsity(net, block, cfg.eps_zero)
            records.append(
                train_mod.collect_metrics(net, eval_data, cfg, epoch, loss, sparsity=sparsity)
            )

    run_phase()
    for k in range(1, rounds + 1):
        for layer, mask, v in zip(net.layers, masks, vel):
            norms = tile_norms(layer.w, m2, n2).ravel()
            order = np.lexsort((np.arange(mask.size), norms))
            mask.ravel()[order[: int(round(mask.size * target_rate * k / rounds))]] = False
            tile_view(layer.w, m2, n2)[:] *= mask[:, None, :, None]
            tile_view(v, m2, n2)[:] *= mask[:, None, :, None]
        run_phase()
    return net, records


BASELINE_NETS = {
    # (layers, block, group-LASSO lambda that zeroes some tiles but not all):
    # a (2,2) one-layer net of the paper's thin shape, and a two-layer relu
    # net tiled (4,4)
    "thin": ([dense_spec(10, 96, "softmax_output")], (2, 2), 0.3),
    "two_layer": ([dense_spec(32, 48, "relu"), dense_spec(8, 32, "softmax_output")], (4, 4), 0.6),
}


def baseline_task(name):
    specs, block, _ = BASELINE_NETS[name]
    m, n = specs[-1].m, specs[0].n
    ds, _ = make_teacher_dataset(m, n, block, 0.5, 160, seed=3, classification=True)
    tr, te = kb.train_test_split(ds, 0.2, seed=3)
    return build_network(specs, seed=5), tr, te, block


def assert_same_run(run, reference):
    (net, records), (ref_net, ref_records) = run, reference
    for layer, ref in zip(net.layers, ref_net.layers, strict=True):
        assert layer.w.tobytes() == ref.w.tobytes()
    assert [r.to_dict() for r in records] == [r.to_dict() for r in ref_records]


@pytest.mark.parametrize("name", sorted(BASELINE_NETS))
def test_group_lasso_matches_broadcast_reference_bit_for_bit(name, monkeypatch):
    net, tr, te, block = baseline_task(name)
    lam = BASELINE_NETS[name][2]
    cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.1, lam=lam, seed=4)
    run = train_group_lasso(net.copy(), tr, cfg, block, eval_data=te)
    assert 0.0 < run[1][-1].sparsity_rate < 1.0  # the prox zeroed some tiles
    monkeypatch.setattr(train_mod, "group_lasso_prox", reference_group_lasso_prox)
    assert_same_run(run, train_group_lasso(net.copy(), tr, cfg, block, eval_data=te))


@pytest.mark.parametrize("name", sorted(BASELINE_NETS))
def test_prune_matches_broadcast_reference_bit_for_bit(name):
    net, tr, te, block = baseline_task(name)
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.1, seed=4)
    run = prune_blocks(net.copy(), tr, cfg, block, 0.5, 2, eval_data=te)
    assert run[1][-1].sparsity_rate == 0.5
    assert_same_run(run, reference_prune_blocks(net.copy(), tr, cfg, block, 0.5, 2, te))


def test_determinism_bit_identical_metrics():
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 64, seed=1, classification=True)
    runs = []
    for _ in range(2):
        net = build_network([kron_spec(KronShape(2, 4, 2, 2, 2))], seed=2)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.1, lam=0.01, seed=4)
        _, records = train_kron(net, ds, cfg)
        runs.append([r.to_dict() for r in records])
    assert runs[0] == runs[1]


def test_monotone_sparsity_in_lambda():
    # >= 5 documented grid points on the regression teacher task
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.6, 512, seed=1, classification=False)
    rates = []
    for lam in LAMBDA_GRID[4:]:  # 1e-3 .. 1e-1
        net = build_network([kron_spec(KronShape(4, 8, 2, 2, 4))], seed=3)
        cfg = TrainConfig(
            epochs=120, batch_size=16, learning_rate=4e-3, momentum=0.0,
            lam=lam, seed=5,
        )
        _, records = train_kron(net, ds, cfg)
        rates.append(records[-1].sparsity_rate)
    assert all(b >= a for a, b in zip(rates, rates[1:])), rates
    assert rates[-1] > rates[0]  # the grid spans a meaningful response


def test_loss_decreases_over_first_epoch():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.6, 256, seed=1, classification=False)
    net = build_network([kron_spec(KronShape(4, 8, 2, 2, 4))], seed=3)
    out, _ = net_forward(net, ds.x)
    initial = float(np.sum((out - ds.y) ** 2))
    cfg = TrainConfig(
        epochs=1, batch_size=16, learning_rate=4e-3, momentum=0.0,
        lam=0.0, seed=5,
    )
    _, records = train_kron(net, ds, cfg)
    assert records[0].eval_loss < initial


def test_divergence_guard():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.5, 64, seed=1, classification=False)
    net = build_network([kron_spec(KronShape(4, 8, 2, 2, 2))], seed=3)
    cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=5.0, seed=5)
    with pytest.raises(TrainingDivergedError):
        train_kron(net, ds, cfg)


def test_metric_record_fields_filled():
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 64, seed=1, classification=True)
    net = build_network([kron_spec(KronShape(2, 4, 2, 2, 2))], seed=2)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.1, lam=0.01, seed=4)
    _, records = train_kron(net, ds, cfg)
    assert len(records) == 2
    rec = records[-1]
    assert isinstance(rec, MetricRecord)
    assert rec.epoch == 2
    assert np.isfinite(rec.train_loss) and np.isfinite(rec.eval_loss)
    assert 0.0 <= rec.accuracy <= 1.0
    assert 0.0 <= rec.sparsity_rate <= 1.0
    assert rec.trainable_params == kb.count_params(KronShape(2, 4, 2, 2, 2))
    assert rec.forward_flops > 0 and rec.backward_flops > 0


def test_mixed_net_sparsity_counts_only_masks(rng):
    net = build_network([kron_spec(KronShape(2, 4, 2, 2, 1)), dense_spec(3, 4)], seed=0)
    net.layers[0].factor.s[:] = 0.0
    assert net_mask_sparsity(net, 1e-6) == 1.0


@pytest.mark.parametrize("loss", ["squared_frobenius", "softmax_cross_entropy"])
def test_eval_metrics_matches_training_forward(loss):
    # labelled and regression sets, on a net whose layer the cost model puts
    # on the materialized path at 256 rows (and on fold at one row); the
    # squared loss of labels is that of their one-hot rows as regression
    # targets
    net = build_network([kron_spec(KronShape(5, 392, 2, 2, 2))], seed=5)
    assert kb.network.eval_paths(net, 256) == ["materialized"]
    assert kb.network.eval_paths(net, 1) == ["fold"]
    for classification in (True, False):
        ds, _ = make_teacher_dataset(10, 784, (2, 2), 0.5, 256, seed=6,
                                     classification=classification)
        for rows in (ds.subset(np.arange(256)), ds.subset(np.arange(1))):
            out, _ = net_forward(net, rows.x)
            if classification:
                target = rows.labels
                onehot = np.zeros_like(out)
                onehot[np.arange(rows.n), target] = 1.0
                if loss == "squared_frobenius":
                    want = float(np.sum((out - onehot) ** 2))
                else:
                    want, _ = kb.network.softmax_cross_entropy(out, target)
                want_acc = float(np.mean(np.argmax(out, axis=1) == target))
            else:
                want = float(np.sum((out - rows.y) ** 2))
                want_acc = float(np.mean(np.argmax(out, axis=1) == np.argmax(rows.y, axis=1)))
            if classification and loss == "squared_frobenius":
                rows = Dataset(rows.x, y=onehot)
            got, acc = eval_metrics(net, rows)
            assert abs(got - want) <= 1e-12 * abs(want)
            assert acc == want_acc


def test_benchmark_tracer_installs_and_traces_eval(monkeypatch):
    # the benchmark's tracer rebinds kronblock names by module attribute, so a
    # name it expects and the package drops would fail its install
    import os

    from kronblock import train as train_module

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    from spans import Tracer

    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 64, seed=1, classification=True)
    net = build_network([kron_spec(KronShape(2, 4, 2, 2, 2))], seed=2)
    want = train_module.eval_metrics(net, ds)
    tracer = Tracer()
    tracer.install()
    try:
        got = train_module.eval_metrics(net, ds)
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.totals()["train.eval"]["calls"] == 1


def test_training_skips_first_layer_input_gradient(monkeypatch):
    # training never asks for the gradient w.r.t. the network input, so on
    # either training path only the second layer of a two-layer net computes
    # one, once per step: the fold path's backward and backward_params share
    # _backward, and the materialized path's layer_backward returns the input
    # gradient beside its weight_gradient
    from kronblock import factor as kf
    from kronblock import network
    from kronblock.network import train_paths
    from kronblock.patterns import SelectConfig, build_pattern_set, select_pattern

    calls = []
    fold_backward, layer_backward = kf._backward, network.layer_backward

    def spy_fold(factor, cache, d_out, with_dx):
        if with_dx:
            calls.append("fold")
        return fold_backward(factor, cache, d_out, with_dx)

    def spy_materialized(layer, x, cache, d_out, with_dx):
        grad, d_x = layer_backward(layer, x, cache, d_out, with_dx)
        if d_x is not None and not isinstance(cache, kf.KronForwardCache):
            calls.append("materialized")
        return grad, d_x

    monkeypatch.setattr(kf, "_backward", spy_fold)
    monkeypatch.setattr(network, "layer_backward", spy_materialized)
    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 40, seed=1, classification=True)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.05, seed=4)
    steps = cfg.epochs * 3  # 40 rows in batches of 16

    for path, first, second in (
        ("materialized", KronShape(2, 4, 2, 2, 2), KronShape(2, 2, 2, 2, 2)),
        ("fold", KronShape(2, 2, 2, 4, 1), KronShape(2, 2, 2, 2, 1)),
    ):
        two = build_network([kron_spec(first, "relu"), kron_spec(second)], seed=2)
        assert train_paths(two, 16) == train_paths(two, 8) == [path, path]
        calls.clear()
        train_kron(build_network([kron_spec(first)], seed=2), ds, cfg)
        assert calls == []
        train_kron(two, ds, cfg)
        assert calls == [path] * steps

    calls.clear()
    pset = build_pattern_set([(4, 8)], [[(2, 2)], [(2, 4)]], rank=2, seed=3)
    select_pattern(pset, ds, SelectConfig(
        train=cfg, increment_period_epochs=1, max_epochs=2, finetune_epochs=1))
    assert calls == []


def test_epoch_pass_holds_one_step_at_a_time():
    # a step's forward cache and gradients die with train_step, so the next
    # step's forward does not allocate next to them: over three steps of the
    # 1024->1024->16 benchmark net at 256 rows, _epoch_pass peaks within
    # 0.5 MiB of a single train_step (each takes its batch from batches)
    import tracemalloc

    specs = [kron_spec(KronShape(64, 64, 16, 16, 2), "relu"),
             kron_spec(KronShape(1, 64, 16, 16, 2), "softmax_output")]
    net = build_network(specs, seed=0)
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((768, 1024)), labels=rng.integers(0, 16, size=768))
    cfg = TrainConfig(epochs=1, batch_size=256, learning_rate=0.01, shuffle=False)
    assert train_paths(net, 256) == ["fold", "materialized"]

    def peak(run):
        state = net.copy()
        vel = init_velocities(state)
        tracemalloc.start()
        try:
            run(state, vel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(lambda state, vel: train_mod.train_step(
        state, *next(batches(data, cfg.batch_size, False)), vel, cfg))
    three = peak(lambda state, vel: train_mod._epoch_pass(state, data, cfg, 1, vel))
    assert three - one <= 0.5 * 2**20, (one / 2**20, three / 2**20)


@pytest.mark.parametrize("kind,bound_mib", [("dense", 13), ("kron", 19)])
def test_train_step_holds_no_dead_arrays(kind, bound_mib):
    # one step of the 1024->1024->16 benchmark net, or of its dense twin, at
    # 256 rows after a warm-up step: the update writes lr*v into the spent
    # gradient, relu runs in place, and the training backward masks in place
    # and keeps no input gradient, which took the traced peak from 22.2 to
    # 12.2 MiB (dense) and from 22.3 to 18.3 MiB (factored)
    import tracemalloc

    shapes = [(KronShape(64, 64, 16, 16, 2), "relu"), (KronShape(1, 64, 16, 16, 2), "softmax_output")]
    net = build_network([
        dense_spec(shape.m, shape.n, act) if kind == "dense" else kron_spec(shape, act)
        for shape, act in shapes
    ], seed=0)
    rng = np.random.default_rng(0)
    xb, labels = rng.standard_normal((256, 1024)), rng.integers(0, 16, size=256)
    cfg = TrainConfig(epochs=1, batch_size=256, learning_rate=0.01)
    vel = init_velocities(net)
    train_mod.train_step(net, xb, labels, vel, cfg)
    tracemalloc.start()
    try:
        train_mod.train_step(net, xb, labels, vel, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


def test_benchmark_tracer_sees_every_training_step(monkeypatch):
    # train_step looks up net_forward and sgd_step in kronblock.train, where
    # the benchmark's tracer binds them, so a traced run sees every step of
    # the trainers and of pattern selection
    import os

    from kronblock.patterns import SelectConfig, build_pattern_set, select_pattern

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    from spans import Tracer

    ds, _ = make_teacher_dataset(4, 8, (2, 2), 0.5, 40, seed=1, classification=True)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.05, seed=4)
    pset = build_pattern_set([(4, 8)], [[(2, 2)], [(2, 4)]], rank=1, seed=3)
    scfg = SelectConfig(train=cfg, max_epochs=2, increment_period_epochs=1, finetune_epochs=1)
    tracer = Tracer()
    tracer.install()
    try:
        train_mod.train_kron(build_network([kron_spec(KronShape(2, 4, 2, 2, 1))], seed=2), ds, cfg)
        select_pattern(pset, ds, scfg)
    finally:
        tracer.uninstall()
    # 3 batches per epoch: 2 epochs of train_kron, 2 joint epochs of 2
    # patterns and 1 fine-tune epoch
    steps = 3 * (2 + 2 * 2 + 1)
    totals = tracer.totals()
    assert totals["network.forward"]["calls"] == steps
    assert totals["train.sgd_step"]["calls"] == steps
