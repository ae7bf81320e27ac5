#!/usr/bin/env python3
"""Time one training step of a factored layer on both paths, and of the dense layer of the same size.

For each shape and batch size this times the parts of a
training step on the two training paths of the factored layer and on its
dense ``m x n`` twin, each through the code that trains,
``network.layer_forward`` and ``network.layer_backward``:

* ``forward``: ``factor.forward`` (fold), or ``x @ W.T`` on the weight W
  that ``factor.build_weight`` builds (materialized) or on the twin's own
  (dense);
* ``backward_dx``: the backward with the input gradient, as every layer
  after the first runs it: ``factor.backward`` (fold), or ``dO.T @ x`` and
  ``dO @ W``, projected onto the factors by ``factor.weight_gradient`` on
  the materialized path;
* ``backward``: the same without the input gradient (``factor.backward_params``
  on the fold path), as the first layer runs it in training;
* ``update``: one ``train.sgd_step`` on a one-layer net: one momentum
  update of the layer's ``Layer.params`` from its gradient, one array in
  the same layout: the factored layer's S, A, B buffer (the same on both
  paths) or the dense twin's ``w``. ``sgd_step`` consumes its gradient, so
  an untimed copy restores the gradient before each call.

Each part records the median and interquartile range of repeated runs, its
flops by the cost model of ``kronblock.flops`` and the achieved GFLOP/s (the
cost model counts one flop per updated parameter, so the update's rate is a
lower bound). The path rule is judged on three steps of the factored
layer: ``eval``, the forward alone, as ``network.eval_paths`` runs it, and
``backward`` and ``backward_dx``, the training step without and with the
input gradient. For each, ``pick`` is the path ``flops.train_path`` picks
(without the input gradient for ``eval``), ``faster`` the path whose
measured medians of the step's parts (the forward, plus that backward) sum
to less, and ``pick_is_faster`` whether they agree; steps where they do not
are listed under ``rule_wrong``.
``step_peak_bytes`` holds, per path and step, the ``tracemalloc`` peak of one
untimed training step (forward, that backward and ``sgd_step``) after a
warm-up step: the memory the step allocates beside the layer's state. BLAS
runs on one thread unless OPENBLAS_NUM_THREADS is set; the environment
(Python, numpy, BLAS name, version and thread count, heap policy and CPU
count) goes into the same file.

Three more sections:

* ``thin_products``: the weight product of a materialized or dense layer in
  both orientations, ``direct`` (``X @ W.T``) and ``swapped``
  (``(W @ X.T).T`` made C-contiguous), the two timed in turn, for weights of
  2 to 64 rows at the widths 784 and 1024 and at every batch. Each cell
  records each side's flops (``kronblock.flops``) and GFLOP/s, the median
  speedup of the swap, the orientation ``network.product_orientation``
  picks (swapped below ``network.THIN_WEIGHT_ROWS`` weight rows from
  ``network.SWAP_MIN_ROWS`` input rows) and whether it was the faster one;
  cells where it was not are listed under ``thin_rule_wrong``;
* ``tile_ops``: the tile-wise products of the dense baselines on a 10x784
  (2,2), a 1024x1024 (16,16) and a 16x1024 (16,16) matrix:
  ``train.group_lasso_prox``, the prune gradient mask as ``prune_blocks``
  runs it (whole rows times its kept ``linalg.tile_rows`` factor), and
  ``factor.build_weight`` at (5,392,2,2) r=2;
* ``epochs``: the ``kron_train``, ``group_lasso`` and ``prune`` phases of
  every benchmark workload of ``perfbench/workloads.py`` (``prune_blocks``
  runs one round: two epochs, train and fine-tune), each divided by the
  epochs it trains, and one epoch of ``select_pattern``'s joint phase over
  every pattern, no fine-tune, on the same state. Each records the seconds
  per epoch, samples per second and ``flops_per_epoch``, the cost model's
  flops of the epoch's training steps (forward, backward and update of every
  batch and pattern net); the per-epoch evaluation and the proximal steps
  are timed but not counted.

Each records the median and interquartile range of repeated runs. What one
cell or workload times (the parts of a step, the two orientations, the two
tile-wise products, the four trainers) runs in turn, each going first in
turn (``time_turns``), so a slow spell of the host slows all of them alike.
A whole ``network.evaluate`` call is timed end to end by perfbench's
``eval`` phase.

Run: python benchmarks/bench_train.py [--repeats 20] [--out BENCH_train.json]
     [--shape 5,392,2,2[,r] ...] [--batches 1,64,256,512,2048]

The default batches are one row and every row count a benchmark workload
trains, evaluates or selects on. A ``--shape`` without a fifth element, and
each default shape but the three 16x32 layers of acceptance criterion 7
(rank 4), is at rank 2, the file's ``rank``; every cell records its own
``r``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from kronblock import flops as fl  # noqa: E402
from kronblock.cli import run_environment  # noqa: E402
from kronblock.factor import KronShape, build_weight, random_factor  # noqa: E402
from kronblock.linalg import matmul, row_view, tile_rows  # noqa: E402
from kronblock.network import (  # noqa: E402
    THIN_WEIGHT_ROWS,
    Layer,
    Network,
    dense_spec,
    kron_spec,
    layer_backward,
    layer_forward,
    product_orientation,
)
from kronblock.patterns import PatternSet, select_pattern  # noqa: E402
from kronblock.train import TrainConfig, group_lasso_prox, init_velocities, sgd_step  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    State,
    phase_group_lasso,
    phase_kron_train,
    phase_prune,
)

RANK = 2
SHAPES = tuple(
    KronShape(*dims, RANK)
    for dims in ((5, 392, 2, 2), (5, 49, 2, 16), (2, 49, 5, 16), (64, 64, 16, 16),
                 (1, 64, 16, 16), (32, 32, 32, 32), (8, 16, 2, 2), (4, 8, 4, 4))
) + tuple(
    # the 16x32 teacher layer of acceptance criterion 7, at its three block sizes
    KronShape(*dims, 4) for dims in ((8, 16, 2, 2), (4, 8, 4, 4), (2, 4, 8, 8))
)
# one row, and every row count a benchmark workload trains, evaluates or
# selects on
BATCHES = tuple(sorted({1, *(n for wl in WORKLOADS.values()
                             for n in (wl.batch, wl.n_test, wl.select_samples))}))
SEED = 0
PATHS = ("fold", "materialized", "dense")
PARTS = ("forward", "backward_dx", "backward")
# the two backward parts, each the step of a layer without / with the input gradient
STEPS = {"backward": False, "backward_dx": True}
# the steps the path rule is judged on: the parts each runs, and whether it
# computes the input gradient. Evaluation is the forward alone, on the pick
# of a step without the input gradient
JUDGED = {"eval": (("forward",), False),
          **{part: (("forward", part), dx) for part, dx in STEPS.items()}}
# lr small enough that repeated steps keep the weights finite
UPDATE_CFG = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-6)
# (m, n, block) of the tile-wise products: the linear784 dense twin and the
# two layers of the wide1024 one
TILE_MATRICES = ((10, 784, (2, 2)), (1024, 1024, (16, 16)), (16, 1024, (16, 16)))
# the prox threshold lr * lam of linear784: repeated calls shrink a tile by
# about 1e-4 each, so the timed weights stay far from subnormal numbers
PROX_T = 1e-4
BUILD_SHAPE = KronShape(5, 392, 2, 2, 2)
# weight rows on both sides of THIN_WEIGHT_ROWS, at the paper's input width
# and the 1024-wide benchmark net's
THIN_ROWS = (2, 4, 10, 15, 16, 24, 64)
THIN_WIDTHS = (784, 1024)


def environment() -> dict:
    """``run_info.json``'s environment (Python, numpy and BLAS versions, the
    BLAS thread count and the heap policy) plus the CPUs this process may use."""
    return {**run_environment(), "nproc": len(os.sched_getaffinity(0))}


def time_turns(fns, repeats: int) -> list[list[float]]:
    """Per function of ``fns``, its times over ``repeats`` rounds after one
    warm-up call each. Every round runs all of them in turn, round i starting
    with ``fns[i % k]``, so each goes first in turn and a slow spell of the
    host slows all alike."""
    for fn in fns:
        fn()
    k = len(fns)
    times = [[] for _ in fns]
    for i in range(repeats):
        for j in range(i, i + k):
            t0 = time.perf_counter()
            fns[j % k]()
            times[j % k].append(time.perf_counter() - t0)
    return times


def timing(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "iqr_s": q3 - q1}


def path_row(flops: int, times: list[float]) -> dict:
    row = {"flops": flops, **timing(times)}
    row["gflops"] = flops / row["median_s"] / 1e9 if row["median_s"] > 0 else 0.0
    return row


def shape_dims(shape: KronShape) -> list[int]:
    return [shape.m1, shape.n1, shape.m2, shape.n2]


def parse_batches(text: str) -> list[int]:
    """Comma-separated positive row counts."""
    batches = [int(v) for v in text.split(",")]
    if min(batches) < 1:
        raise argparse.ArgumentTypeError(f"batches must be positive, got {text!r}")
    return batches


def parse_shape(text: str) -> KronShape:
    """``m1,n1,m2,n2`` at rank ``RANK``, or ``m1,n1,m2,n2,r``."""
    dims = tuple(int(v) for v in text.split(","))
    if len(dims) not in (4, 5) or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"shape must be m1,n1,m2,n2[,r], got {text!r}")
    return KronShape(*dims[:4], dims[4] if len(dims) == 5 else RANK)


def flops_by_part(n_batch: int, shape: KronShape, path: str) -> dict:
    """Cost-model flops of each part of the factored layer on ``path``, or of
    its dense twin for ``path == "dense"``."""

    def pieces(with_dx):
        if path == "dense":
            return fl._layer_pieces(n_batch, dense_spec(shape.m, shape.n), with_dx)[:2]
        return fl._kron_path_pieces(n_batch, shape, with_dx)[path]

    fwd, bwd_dx = pieces(True)
    _, bwd = pieces(False)
    return {
        "forward": sum(fwd.values()),
        "backward_dx": sum(bwd_dx.values()),
        "backward": sum(bwd.values()),
    }


def time_update(layer: Layer, grad, repeats: int) -> list[float]:
    """Times of ``sgd_step`` after a warm-up call, each on the gradient
    restored from an untimed copy: the step writes ``lr * v`` into it."""
    net = Network([layer])
    vel = init_velocities(net)
    fresh = grad.copy()
    times = []
    for _ in range(repeats + 1):
        grad[:] = fresh
        t0 = time.perf_counter()
        sgd_step(net, [grad], vel, UPDATE_CFG)
        times.append(time.perf_counter() - t0)
    return times[1:]


def step_peak(layer: Layer, path: str, x, d_out, with_dx: bool) -> int:
    """Traced peak bytes of one training step of a copy of ``layer`` on
    ``path`` (forward, backward, ``sgd_step``) after a warm-up step."""
    net = Network([layer.copy()])
    vel = init_velocities(net)

    def step():
        _, cache = layer_forward(net.layers[0], path, x)
        grad = layer_backward(net.layers[0], x, cache, d_out, with_dx)[0]
        sgd_step(net, [grad], vel, UPDATE_CFG)

    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def parts(layer: Layer, path: str, x, d_out, repeats: int) -> dict:
    """Times of each part of ``layer``'s training step on ``path``, the
    parts run in turn."""
    _, cache = layer_forward(layer, path, x)
    return dict(zip(PARTS, time_turns([
        lambda: layer_forward(layer, path, x),
        lambda: layer_backward(layer, x, cache, d_out, True),
        lambda: layer_backward(layer, x, cache, d_out, False),
    ], repeats)))


def measure(shape: KronShape, n_batch: int, repeats: int, rng) -> dict:
    x = rng.standard_normal((n_batch, shape.n))
    d_out = rng.standard_normal((n_batch, shape.m))
    kron = Layer(kron_spec(shape), factor=random_factor(shape, rng))
    dense = Layer(dense_spec(shape.m, shape.n),
                  w=rng.standard_normal((shape.m, shape.n)) / np.sqrt(shape.n))
    layers = {"fold": kron, "materialized": kron, "dense": dense}
    times = {path: parts(layers[path], path, x, d_out, repeats) for path in PATHS}
    cell = {"shape": shape_dims(shape), "r": shape.r, "m": shape.m, "n": shape.n, "batch": n_batch}
    for path in PATHS:
        flops = flops_by_part(n_batch, shape, path)
        cell[path] = {part: path_row(flops[part], times[path][part]) for part in PARTS}

    def update_row(flops, path):
        layer = layers[path]
        grad = layer_backward(layer, x, layer_forward(layer, path, x)[1], d_out, False)[0]
        return path_row(flops, time_update(layer.copy(), grad, repeats))

    cell["update"] = {
        "kron": update_row(fl.kron_layer_report(n_batch, shape).update, "fold"),
        "dense": update_row(fl.dense_layer_report(n_batch, shape.m, shape.n).update, "dense"),
    }
    cell["step_peak_bytes"] = {
        path: {part: step_peak(layers[path], path, x, d_out, dx) for part, dx in STEPS.items()}
        for path in PATHS
    }

    cell["pick"] = {step: fl.train_path(n_batch, shape, dx) for step, (_, dx) in JUDGED.items()}
    cell["faster"] = {
        step: "materialized" if step_s(cell, "materialized", step) < step_s(cell, "fold", step)
        else "fold"
        for step in JUDGED
    }
    cell["pick_is_faster"] = {step: cell["pick"][step] == cell["faster"][step] for step in JUDGED}
    return cell


def step_s(cell: dict, path: str, step: str) -> float:
    """Summed medians of the parts that ``step`` runs on ``path``."""
    return sum(cell[path][part]["median_s"] for part in JUDGED[step][0])


def measure_thin(m: int, n: int, n_batch: int, repeats: int, rng) -> dict:
    """Both orientations of ``X @ W.T`` for an ``m x n`` weight and
    ``n_batch`` input rows, and the orientation the rule picks."""
    w = rng.standard_normal((m, n))
    x = rng.standard_normal((n_batch, n))
    flops = fl.dense_layer_report(n_batch, m, n).breakdown["forward.matmul"]
    direct, swapped = (
        path_row(flops, times)
        for times in time_turns(
            [lambda: matmul(x, w.T), lambda: np.ascontiguousarray(matmul(w, x.T).T)], repeats
        )
    )
    pick = product_orientation(m, n_batch)
    faster = "swapped" if swapped["median_s"] < direct["median_s"] else "direct"
    return {
        "m": m, "n": n, "batch": n_batch, "direct": direct, "swapped": swapped,
        "swap_speedup": direct["median_s"] / swapped["median_s"] if swapped["median_s"] else 0.0,
        "pick": pick, "faster": faster, "pick_is_faster": pick == faster,
    }


def thin_products(batches: list[int], repeats: int, rng) -> list[dict]:
    """``measure_thin`` for every weight width, weight row count and batch."""
    cells = []
    for n in THIN_WIDTHS:
        for m in THIN_ROWS:
            for n_batch in batches:
                cell = measure_thin(m, n, n_batch, repeats, rng)
                cells.append(cell)
                direct, swapped = cell["direct"], cell["swapped"]
                print(f"W {m:>2}x{n:<5} N={n_batch:<5} direct {direct['median_s'] * 1e3:9.3f} ms "
                      f"swapped {swapped['median_s'] * 1e3:9.3f} ms  "
                      f"x{cell['swap_speedup']:4.2f}  pick {cell['pick']:<8} "
                      f"{'ok' if cell['pick_is_faster'] else 'WRONG'}")
    return cells


def tile_ops(repeats: int, rng) -> dict:
    """Times of the dense baselines' tile-wise products and of ``build_weight``."""
    cells = []
    for m, n, (m2, n2) in TILE_MATRICES:
        w = rng.standard_normal((m, n))
        d_w = rng.standard_normal((m, n))
        # about half the tiles pruned
        keep = tile_rows((rng.random((m // m2, n // n2)) < 0.5).astype(np.float64), n2)

        def prune_grad_mask():
            row_view(d_w, m2)[:] *= keep

        prox, mask = time_turns(
            [lambda: group_lasso_prox(w, (m2, n2), PROX_T), prune_grad_mask], repeats)
        cells.append({"m": m, "n": n, "block": [m2, n2],
                      "group_lasso_prox": timing(prox), "prune_grad_mask": timing(mask)})
    factor = random_factor(BUILD_SHAPE, rng)
    build = {"shape": shape_dims(BUILD_SHAPE), "r": BUILD_SHAPE.r,
             **timing(time_turns([lambda: build_weight(factor)], repeats)[0])}
    return {"matrices": cells, "build_weight": build}


def step_flops(nets, n_samples: int, batch: int) -> int:
    """Cost-model flops of one epoch of training steps of each net in ``nets``
    over ``n_samples`` rows: the step total of one ``layers_report`` per batch
    size, times the batches of that size."""
    full, rest = divmod(n_samples, batch)
    counts = {batch: full, rest: 1} if rest else {batch: full}
    return sum(
        count * fl.layers_report(b, [layer.spec for layer in net.layers]).total
        for net in nets for b, count in counts.items()
    )


def select_one_epoch(st: State) -> int:
    """``select_pattern``'s joint phase for one epoch, without fine-tune, on
    a copy of the workload's pattern nets; returns the samples it trained on."""
    cfg = replace(st.select_cfg, max_epochs=1, finetune_epochs=0)
    nets = [net.copy() for net in st.pattern_set.nets]
    select_pattern(PatternSet(st.pattern_set.shapes, nets), st.select_data, cfg)
    return st.select_data.n


def epoch_runs(st: State) -> dict:
    """Per trainer: (a call returning the samples it trained on, samples per
    epoch, flops per epoch) for one workload's state."""
    n, batch = st.train.n, st.wl.batch
    dense = step_flops([st.dense_net], n, batch)
    n_select = st.select_data.n
    return {
        "train_kron": (lambda: phase_kron_train(st)[0], n, step_flops([st.kron_net], n, batch)),
        "group_lasso": (lambda: phase_group_lasso(st)[0], n, dense),
        "prune": (lambda: phase_prune(st)[0], n, dense),
        "select": (lambda: select_one_epoch(st), n_select,
                   step_flops(st.pattern_set.nets, n_select, st.select_cfg.train.batch_size)),
    }


def epochs(repeats: int) -> list[dict]:
    """Per benchmark workload, the time of one epoch of each trainer, the
    trainers run in turn."""
    cells = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, wl in WORKLOADS.items():
            st = State(wl, SEED, workdir)
            runs = epoch_runs(st)
            trained = {trainer: [] for trainer in runs}
            all_times = time_turns([
                lambda run=run, out=trained[trainer]: out.append(run())
                for trainer, (run, _, _) in runs.items()
            ], repeats)
            for (trainer, (_, samples, flops)), times in zip(runs.items(), all_times):
                n_epochs = trained[trainer][0] // samples
                t = timing([s / n_epochs for s in times])
                cells.append({
                    "workload": name, "trainer": trainer, "epochs": n_epochs,
                    "samples_per_epoch": samples, "flops_per_epoch": flops, **t,
                    "samples_per_s": samples / t["median_s"],
                    "gflops": flops / t["median_s"] / 1e9,
                })
                print(f"{name:<10} {trainer:<12} {t['median_s'] * 1e3:9.2f} ms/epoch "
                      f"{samples / t['median_s']:10.0f} samples/s")
    return cells


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--out", default=str(ROOT / "BENCH_train.json"))
    p.add_argument("--shape", type=parse_shape, action="append",
                   help="m1,n1,m2,n2[,r] (repeatable; default: the eleven built-in shapes)")
    p.add_argument("--batches", type=parse_batches, default=list(BATCHES),
                   help="comma-separated row counts (default: 1,64,256,512,2048)")
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2")
    shapes, batches = args.shape or SHAPES, args.batches

    rng = np.random.default_rng(SEED)
    cells = []
    for shape in shapes:
        for n_batch in batches:
            cell = measure(shape, n_batch, args.repeats, rng)
            cells.append(cell)
            label = str((*cell["shape"], shape.r))
            for path in PATHS:
                row = "  ".join(
                    f"{part} {cell[path][part]['median_s'] * 1e3:8.3f} ms" for part in PARTS
                )
                peak = cell["step_peak_bytes"][path]["backward_dx"] / 2**20
                print(f"{label:<18} N={n_batch:<4} {path:<12} {row}  peak {peak:8.3f} MiB")
            print(f"{'':<18} {'':<6} pick " + "  ".join(
                f"{step} {cell['pick'][step]} ({'ok' if cell['pick_is_faster'][step] else 'WRONG'})"
                for step in JUDGED
            ))

    wrong = [
        {"shape": c["shape"], "r": c["r"], "batch": c["batch"], "step": step,
         "pick": c["pick"][step], "fold_step_s": step_s(c, "fold", step),
         "materialized_step_s": step_s(c, "materialized", step)}
        for c in cells for step in JUDGED if not c["pick_is_faster"][step]
    ]
    steps = len(cells) * len(JUDGED)
    print(f"rule picked the faster path in {steps - len(wrong)} of {steps} steps")
    thin = thin_products(batches, args.repeats, rng)
    thin_wrong = [{"m": c["m"], "n": c["n"], "batch": c["batch"], "pick": c["pick"],
                   "direct_median_s": c["direct"]["median_s"],
                   "swapped_median_s": c["swapped"]["median_s"]}
                  for c in thin if not c["pick_is_faster"]]
    print(f"orientation rule picked the faster product in {len(thin) - len(thin_wrong)} "
          f"of {len(thin)} cells")
    tiles = tile_ops(args.repeats, rng)
    for cell in tiles["matrices"]:
        print(f"{cell['m']}x{cell['n']} {tuple(cell['block'])}: prox "
              f"{cell['group_lasso_prox']['median_s'] * 1e6:8.1f} us, mask "
              f"{cell['prune_grad_mask']['median_s'] * 1e6:8.1f} us")
    print(f"build_weight {tiles['build_weight']['median_s'] * 1e6:8.1f} us")
    result = {
        "benchmark": "one training step per layer: fold and materialized paths vs dense twin; "
                     "thin weight products in both orientations",
        "rank": RANK,
        "repeats": args.repeats,
        "seed": SEED,
        "environment": environment(),
        "cells": cells,
        "rule_right": steps - len(wrong),
        "rule_wrong": wrong,
        "thin_weight_rows": THIN_WEIGHT_ROWS,
        "thin_products": thin,
        "thin_rule_right": len(thin) - len(thin_wrong),
        "thin_rule_wrong": thin_wrong,
        "tile_ops": tiles,
        "epochs": epochs(args.repeats),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
