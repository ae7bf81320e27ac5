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
* ``update``: one ``train.sgd_step`` on a one-layer net (momentum, no prox):
  one momentum update of the factored layer's flat S, A, B buffer (the same
  on both paths), or of the dense twin's ``w``.

Each part records the median and interquartile range of repeated runs, its
flops by the cost model of ``kronblock.flops`` and the achieved GFLOP/s (the
cost model counts one flop per updated parameter, so the update's rate is a
lower bound). For the step without and with the input gradient, ``pick`` is
the path ``flops.train_path`` picks, ``faster`` the path whose measured
forward plus backward medians are smaller, and ``pick_is_faster`` whether
they agree; steps where they do not are listed under ``rule_wrong``. BLAS
runs on one thread unless OPENBLAS_NUM_THREADS is set; the environment
(Python, numpy, BLAS name, version and thread count) goes into the same file.

Run: python benchmarks/bench_train.py [--repeats 20] [--out BENCH_train.json]
     [--shape 5,392,2,2[,r] ...] [--batches 1,64,512]

A ``--shape`` without a fifth element, and each default shape but the three
16x32 layers of acceptance criterion 7 (rank 4), is at rank 2, the file's
``rank``; every cell records its own ``r``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from bench_eval import RANK, parse_shape, path_row, shape_dims, time_path  # noqa: E402
from bench_flops import ROOT, environment  # noqa: E402  (puts src/ on sys.path)

import numpy as np  # noqa: E402

from kronblock import flops as fl  # noqa: E402
from kronblock.factor import KronShape, random_factor  # noqa: E402
from kronblock.network import (  # noqa: E402
    Layer,
    Network,
    dense_spec,
    kron_spec,
    layer_backward,
    layer_forward,
)
from kronblock.train import TrainConfig, init_velocities, sgd_step  # noqa: E402

SHAPES = tuple(
    KronShape(*dims, RANK)
    for dims in ((5, 392, 2, 2), (5, 49, 2, 16), (64, 64, 16, 16), (1, 64, 16, 16),
                 (32, 32, 32, 32))
) + tuple(
    # the 16x32 teacher layer of acceptance criterion 7, at its three block sizes
    KronShape(*dims, 4) for dims in ((8, 16, 2, 2), (4, 8, 4, 4), (2, 4, 8, 8))
)
BATCHES = (1, 64, 512)
SEED = 0
PATHS = ("fold", "materialized", "dense")
PARTS = ("forward", "backward_dx", "backward")
# the two backward parts, each the step of a layer without / with the input gradient
STEPS = {"backward": False, "backward_dx": True}
# lr small enough that repeated steps keep the weights finite; lam 0, so the
# update is the momentum step alone (the cost model's update)
UPDATE_CFG = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-6)


def flops_by_part(n_batch: int, shape: KronShape, path: str) -> dict:
    """Cost-model flops of each part of the factored layer on ``path``, or of
    its dense twin for ``path == "dense"``."""

    def pieces(with_dx):
        if path == "dense":
            return fl._layer_pieces(n_batch, (shape.m, shape.n), with_dx)[:2]
        return fl._kron_path_pieces(n_batch, shape, with_dx)[path]

    fwd, bwd_dx = pieces(True)
    _, bwd = pieces(False)
    return {
        "forward": sum(fwd.values()),
        "backward_dx": sum(bwd_dx.values()),
        "backward": sum(bwd.values()),
    }


def time_update(layer: Layer, grad, repeats: int) -> list[float]:
    net = Network([layer])
    vel = init_velocities(net)
    return time_path(lambda: sgd_step(net, [grad], vel, UPDATE_CFG), repeats)


def parts(layer: Layer, path: str, x, d_out, repeats: int) -> dict:
    """Times of each part of ``layer``'s training step on ``path``."""
    _, cache = layer_forward(layer, path, x)
    return {
        "forward": time_path(lambda: layer_forward(layer, path, x), repeats),
        "backward_dx": time_path(lambda: layer_backward(layer, x, cache, d_out, True), repeats),
        "backward": time_path(lambda: layer_backward(layer, x, cache, d_out, False), repeats),
    }


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
        grad = layer_backward(layer, x, layer_forward(layer, path, x)[1], d_out, False)
        return path_row(flops, time_update(layer.copy(), grad, repeats))

    cell["update"] = {
        "kron": update_row(fl.kron_update_flops(shape), "fold"),
        "dense": update_row(fl.dense_update_flops(shape.m, shape.n), "dense"),
    }

    def step_s(path, part):
        return cell[path]["forward"]["median_s"] + cell[path][part]["median_s"]

    cell["pick"] = {part: fl.train_path(n_batch, shape, dx) for part, dx in STEPS.items()}
    cell["faster"] = {
        part: "materialized" if step_s("materialized", part) < step_s("fold", part) else "fold"
        for part in STEPS
    }
    cell["pick_is_faster"] = {part: cell["pick"][part] == cell["faster"][part] for part in STEPS}
    return cell


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--out", default=str(ROOT / "BENCH_train.json"))
    p.add_argument("--shape", type=parse_shape, action="append",
                   help="m1,n1,m2,n2[,r] (repeatable; default: the eight built-in shapes)")
    p.add_argument("--batches", default=",".join(map(str, BATCHES)))
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2")
    shapes = args.shape or SHAPES
    batches = [int(v) for v in args.batches.split(",")]

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
                print(f"{label:<18} N={n_batch:<4} {path:<12} {row}")
            print(f"{'':<18} {'':<6} pick " + "  ".join(
                f"{part} {cell['pick'][part]} ({'ok' if cell['pick_is_faster'][part] else 'WRONG'})"
                for part in STEPS
            ))

    wrong = [
        {"shape": c["shape"], "batch": c["batch"], "step": part, "pick": c["pick"][part],
         "fold_step_s": c["fold"]["forward"]["median_s"] + c["fold"][part]["median_s"],
         "materialized_step_s": (c["materialized"]["forward"]["median_s"]
                                 + c["materialized"][part]["median_s"])}
        for c in cells for part in STEPS if not c["pick_is_faster"][part]
    ]
    steps = len(cells) * len(STEPS)
    print(f"rule picked the faster training path in {steps - len(wrong)} of {steps} steps")
    result = {
        "benchmark": "one training step per layer: fold and materialized paths vs dense twin",
        "rank": RANK,
        "repeats": args.repeats,
        "seed": SEED,
        "environment": environment(),
        "cells": cells,
        "rule_right": steps - len(wrong),
        "rule_wrong": wrong,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
