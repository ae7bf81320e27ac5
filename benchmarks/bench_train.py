#!/usr/bin/env python3
"""Time one training step of a factored layer and of the dense layer of the same size.

For each shape (all at rank 2) and batch size this times the four parts of a
training step, for the factored layer and for its dense ``m x n`` twin:

* ``forward``: ``factor.forward``, or ``x @ W.T`` for the dense layer;
* ``backward_dx``: the backward with the input gradient (``factor.backward``,
  or ``dO.T @ x`` and ``dO @ W``), as every layer after the first runs it;
* ``backward``: the backward without it (``factor.backward_params``, or
  ``dO.T @ x``), as the first layer runs it in training;
* ``update``: one ``train.sgd_step`` on a one-layer net (momentum, no prox).

Each part records the median and interquartile range of repeated runs, its
flops by the cost model of ``kronblock.flops`` and the achieved GFLOP/s (the
cost model counts one flop per updated parameter, so the update's rate is a
lower bound). BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set; the
environment (Python, numpy, BLAS name, version and thread count) goes into the
same file.

Run: python benchmarks/bench_train.py [--repeats 20] [--out BENCH_train.json]
     [--shape 5,392,2,2 ...] [--batches 1,64,512]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from bench_eval import parse_shape, path_row, time_path  # noqa: E402
from bench_flops import ROOT, environment  # noqa: E402  (puts src/ on sys.path)

import numpy as np  # noqa: E402

from kronblock import flops as fl  # noqa: E402
from kronblock.factor import (  # noqa: E402
    KronShape,
    backward,
    backward_params,
    forward,
    random_factor,
)
from kronblock.network import (  # noqa: E402
    DenseGradient,
    Layer,
    Network,
    dense_spec,
    kron_spec,
)
from kronblock.train import TrainConfig, init_velocities, sgd_step  # noqa: E402

RANK = 2
SHAPES = ((5, 392, 2, 2), (5, 49, 2, 16), (64, 64, 16, 16))
BATCHES = (1, 64, 512)
SEED = 0
PARTS = ("forward", "backward_dx", "backward", "update")
# lr small enough that repeated steps keep the weights finite; lam 0, so the
# update is the momentum step alone (the cost model's update)
UPDATE_CFG = TrainConfig(epochs=1, batch_size=1, learning_rate=1e-6)


def flops_by_part(n_batch: int, dims) -> dict:
    """Cost-model flops of each part for a ``KronShape`` or a dense ``(m, n)``."""
    fwd, bwd_dx, upd = fl._layer_pieces(n_batch, dims, with_dx=True)
    _, bwd, _ = fl._layer_pieces(n_batch, dims, with_dx=False)
    return {
        "forward": sum(fwd.values()),
        "backward_dx": sum(bwd_dx.values()),
        "backward": sum(bwd.values()),
        "update": upd,
    }


def time_update(layer: Layer, grad, repeats: int) -> list[float]:
    net = Network([layer])
    vel = init_velocities(net)
    return time_path(lambda: sgd_step(net, [grad], vel, UPDATE_CFG), repeats)


def kron_parts(shape: KronShape, x, d_out, repeats: int, rng) -> dict:
    fac = random_factor(shape, rng)
    _, cache = forward(fac, x)
    grad = backward_params(fac, cache, d_out)
    return {
        "forward": time_path(lambda: forward(fac, x), repeats),
        "backward_dx": time_path(lambda: backward(fac, cache, d_out), repeats),
        "backward": time_path(lambda: backward_params(fac, cache, d_out), repeats),
        "update": time_update(Layer(kron_spec(shape), factor=fac.copy()), grad, repeats),
    }


def dense_parts(m: int, n: int, x, d_out, repeats: int, rng) -> dict:
    w = rng.standard_normal((m, n)) / np.sqrt(n)
    grad = DenseGradient(d_w=d_out.T @ x)
    return {
        "forward": time_path(lambda: x @ w.T, repeats),
        "backward_dx": time_path(lambda: (d_out.T @ x, d_out @ w), repeats),
        "backward": time_path(lambda: d_out.T @ x, repeats),
        "update": time_update(Layer(dense_spec(m, n), w=w.copy()), grad, repeats),
    }


def measure(dims: tuple, n_batch: int, repeats: int, rng) -> dict:
    shape = KronShape(*dims, RANK)
    x = rng.standard_normal((n_batch, shape.n))
    d_out = rng.standard_normal((n_batch, shape.m))
    cell = {"shape": list(dims), "r": RANK, "m": shape.m, "n": shape.n, "batch": n_batch}
    for kind, dims_of_kind, times in (
        ("kron", shape, kron_parts(shape, x, d_out, repeats, rng)),
        ("dense", (shape.m, shape.n), dense_parts(shape.m, shape.n, x, d_out, repeats, rng)),
    ):
        flops = flops_by_part(n_batch, dims_of_kind)
        cell[kind] = {part: path_row(flops[part], times[part]) for part in PARTS}
    return cell


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--out", default=str(ROOT / "BENCH_train.json"))
    p.add_argument("--shape", type=parse_shape, action="append",
                   help="m1,n1,m2,n2 (repeatable; default: the three built-in shapes)")
    p.add_argument("--batches", default=",".join(map(str, BATCHES)))
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2")
    shapes = args.shape or SHAPES
    batches = [int(v) for v in args.batches.split(",")]

    rng = np.random.default_rng(SEED)
    cells = []
    for dims in shapes:
        for n_batch in batches:
            cell = measure(dims, n_batch, args.repeats, rng)
            cells.append(cell)
            for kind in ("kron", "dense"):
                row = "  ".join(
                    f"{part} {cell[kind][part]['median_s'] * 1e3:8.3f} ms" for part in PARTS
                )
                print(f"{str(tuple(dims)):<18} N={n_batch:<4} {kind:<5} {row}")

    result = {
        "benchmark": "one training step per layer: factored layer vs dense twin",
        "rank": RANK,
        "repeats": args.repeats,
        "seed": SEED,
        "environment": environment(),
        "cells": cells,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
