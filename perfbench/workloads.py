"""The benchmark's workloads and the phases each one times.

Every workload runs the same six user-facing operations of kronblock, each
timed as one phase, so every workload reports every end-to-end metric:

==============  =====================================================  ============================
phase           what one iteration does                                metric
==============  =====================================================  ============================
kron_train      ``train_kron`` on the factored net, per-epoch eval     ``kron_train_samples_per_s``
group_lasso     ``train_group_lasso`` on the dense twin                ``group_lasso_samples_per_s``
prune           ``prune_blocks`` on the dense twin, one round          ``prune_samples_per_s``
eval            ``evaluate`` of the trained factored net, held out     ``eval_samples_per_s``
select          ``select_pattern``: joint phase and fine-tune          ``select_samples_per_s``
flop_check      ``kronblock flops`` through ``cli.main``, every config ``flop_check_s``
==============  =====================================================  ============================

The workloads differ in geometry, which moves the cost between modules:

* ``linear784`` -- the paper's 784->10 linear model on a synthetic 10-class
  teacher at the MNIST geometry (real MNIST is not in the repository). The
  factored layer (5,392,2,2) is thin (m1=5, n2=2): its GEMMs are tiny, so fold
  copies and per-batch Python dominate, and this is where the factored layer
  loses to the dense one. Its flop audit is the paper's five configurations at
  batch 4, the heaviest use of the interpreted instrumented counter.
* ``wide1024`` -- a two-layer ReLU net 1024->1024->16 with (16,16) tiles.
  The GEMMs are large enough for BLAS to do real work, so changes to the
  factored execution path show here and not in ``linear784``, and the dense
  twin is BLAS-bound.

Each phase iteration starts from the same state, so its metric records repeat
exactly; the runner checks their digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from kronblock import cli, data, network, patterns, train
from kronblock.factor import KronShape
from kronblock.network import build_network, dense_spec, kron_spec


@dataclass(frozen=True)
class Workload:
    teacher: tuple  # (m, n, block, zero_tile_fraction)
    n_train: int
    n_test: int
    kron_layers: tuple  # ((KronShape, activation), ...)
    block: tuple  # tile of the dense twin's group-LASSO and pruning
    batch: int
    kron_lr: float
    dense_lr: float
    lam: float
    epochs: int
    select_blocks: tuple  # one block per layer, per candidate pattern
    select_rank: int
    select_samples: int
    select_lr: float
    select_max_epochs: int
    select_finetune_epochs: int
    flop_configs: tuple


WORKLOADS = {
    "linear784": Workload(
        teacher=(10, 784, (2, 2), 0.5),
        n_train=8192,
        n_test=2048,
        kron_layers=((KronShape(5, 392, 2, 2, 2), "softmax_output"),),
        block=(2, 2),
        batch=64,
        kron_lr=0.1,
        dense_lr=0.1,
        lam=1e-3,
        epochs=1,
        select_blocks=(((2, 2),), ((2, 16),), ((5, 16),)),
        select_rank=2,
        select_samples=2048,
        select_lr=0.1,
        select_max_epochs=2,
        select_finetune_epochs=1,
        flop_configs=(
            {"kind": "dense", "m": 10, "n": 784},
            {"kind": "kron", "shape": [5, 392, 2, 2], "rank": 2},
            {"kind": "kron", "shape": [5, 49, 2, 16], "rank": 2},
            {"kind": "two_layer_dense", "d_in": 784, "d_hidden": 64, "d_out": 10},
            {"kind": "two_layer_kron", "shape1": [8, 49, 8, 16], "rank1": 2,
             "shape2": [5, 8, 2, 8], "rank2": 2},
        ),
    ),
    "wide1024": Workload(
        teacher=(16, 1024, (16, 16), 0.5),
        n_train=2048,
        n_test=512,
        kron_layers=(
            (KronShape(64, 64, 16, 16, 2), "relu"),
            (KronShape(1, 64, 16, 16, 2), "softmax_output"),
        ),
        block=(16, 16),
        batch=256,
        kron_lr=1.0,
        dense_lr=0.05,
        lam=1e-4,
        epochs=1,
        select_blocks=(((16, 16), (16, 16)), ((32, 32), (16, 32))),
        select_rank=2,
        select_samples=512,
        select_lr=1.0,
        select_max_epochs=2,
        select_finetune_epochs=1,
        flop_configs=(
            {"kind": "two_layer_kron", "shape1": [64, 64, 16, 16], "rank1": 2,
             "shape2": [1, 64, 16, 16], "rank2": 2, "batch": 1},
            {"kind": "dense", "m": 16, "n": 1024, "batch": 1},
        ),
    ),
}

FLOP_BATCH = 4


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class State:
    """Inputs of one workload under one seed: the data, the initial nets, the
    pattern-selection config and the flop-audit config files."""

    def __init__(self, wl: Workload, seed: int, workdir: str):
        self.wl = wl
        m, n, tile, zero_fraction = wl.teacher
        ds, _ = data.make_teacher_dataset(
            m, n, tile, zero_fraction, wl.n_train + wl.n_test, seed=seed, classification=True
        )
        self.train, self.test = data.train_test_split(ds, wl.n_test / ds.n, seed=seed)
        self.kron_net = build_network([kron_spec(s, act) for s, act in wl.kron_layers], seed=seed)
        self.dense_net = build_network(
            [dense_spec(s.m, s.n, act) for s, act in wl.kron_layers], seed=seed
        )
        self.kron_cfg = train.TrainConfig(
            epochs=wl.epochs, batch_size=wl.batch, learning_rate=wl.kron_lr, lam=wl.lam, seed=seed
        )
        self.dense_cfg = train.TrainConfig(
            epochs=wl.epochs, batch_size=wl.batch, learning_rate=wl.dense_lr, lam=wl.lam, seed=seed
        )
        self.select_data = self.train.subset(np.arange(wl.select_samples))
        dims = [(s.m, s.n) for s, _ in wl.kron_layers]
        activations = [act for _, act in wl.kron_layers]
        self.pattern_set = patterns.build_pattern_set(
            dims, [list(b) for b in wl.select_blocks], wl.select_rank, activations, seed
        )
        self.select_cfg = patterns.SelectConfig(
            train=train.TrainConfig(
                epochs=1, batch_size=wl.batch, learning_rate=wl.select_lr, seed=seed
            ),
            increment_period_epochs=1,
            max_epochs=wl.select_max_epochs,
            finetune_epochs=wl.select_finetune_epochs,
        )
        self.flop_paths = []
        for i, cfg in enumerate(wl.flop_configs):
            path = os.path.join(workdir, f"flops{i}.json")
            with open(path, "w") as fh:
                json.dump({"flops": {"batch": FLOP_BATCH, "seed": seed, **cfg}}, fh)
            self.flop_paths.append(path)
        # the factored net after kron_train, for the eval phase and the gate
        self.trained = None
        self.trained_eval_loss = None


# Each phase returns (samples processed, digest of its outputs, losses, extra).
# Samples count training samples visited; the per-epoch evaluation that the
# trainers run is timed but not counted, as a CLI user waits for it too.


def phase_kron_train(st: State):
    net, records = train.train_kron(st.kron_net.copy(), st.train, st.kron_cfg, eval_data=st.test)
    st.trained = net
    st.trained_eval_loss = records[-1].eval_loss
    rows = [r.to_dict() for r in records]
    return st.train.n * st.wl.epochs, digest(rows), _losses(rows), net


def phase_group_lasso(st: State):
    _, records = train.train_group_lasso(
        st.dense_net.copy(), st.train, st.dense_cfg, st.wl.block, eval_data=st.test
    )
    rows = [r.to_dict() for r in records]
    return st.train.n * st.wl.epochs, digest(rows), _losses(rows), None


def phase_prune(st: State):
    _, records = train.prune_blocks(
        st.dense_net.copy(), st.train, st.dense_cfg, st.wl.block, 0.5, 1, eval_data=st.test
    )
    rows = [r.to_dict() for r in records]
    return st.train.n * len(rows), digest(rows), _losses(rows), None


def phase_eval(st: State):
    result = network.evaluate(st.trained, st.test.x, st.test.labels)
    return st.test.n, digest(result), [result["loss"]], None


def phase_select(st: State):
    pset = patterns.PatternSet(st.pattern_set.shapes, [n.copy() for n in st.pattern_set.nets])
    result = patterns.select_pattern(pset, st.select_data, st.select_cfg)
    rows = {
        "winner": result.winner,
        "stop_epoch": result.stop_epoch,
        "history": [h.to_dict() for h in result.history],
        "finetune": [r.to_dict() for r in result.finetune_metrics],
    }
    samples = st.select_data.n * (result.stop_epoch + st.wl.select_finetune_epochs)
    losses = _losses(rows["finetune"])
    return samples, digest(rows), losses, result


@dataclass
class FlopCheck:
    reports: list  # the parsed report of each config
    seconds: list  # the time of each config's run


def phase_flop_check(st: State):
    """Runs ``kronblock flops`` on every config, timing each."""
    check = FlopCheck([], [])
    for path in st.flop_paths:
        t0 = time.perf_counter()
        check.reports.append(json.loads(_capture(cli.main, ["flops", "--config", path])))
        check.seconds.append(time.perf_counter() - t0)
    return len(check.reports), digest(check.reports), [], check


def _losses(rows) -> list[float]:
    return [v for r in rows for k, v in r.items() if k in ("train_loss", "eval_loss")]


def _capture(fn, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn(argv)
    if code != 0:
        raise RuntimeError(f"kronblock {' '.join(argv)} exited with {code}")
    return buf.getvalue()


# (phase, function, end-to-end metric); flop_check reports seconds per
# iteration, every other phase samples per second.
PHASES = (
    ("kron_train", phase_kron_train, "kron_train_samples_per_s"),
    ("group_lasso", phase_group_lasso, "group_lasso_samples_per_s"),
    ("prune", phase_prune, "prune_samples_per_s"),
    ("eval", phase_eval, "eval_samples_per_s"),
    ("select", phase_select, "select_samples_per_s"),
    ("flop_check", phase_flop_check, "flop_check_s"),
)
