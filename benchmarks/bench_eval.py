#!/usr/bin/env python3
"""Time the two inference paths of a factored layer against the rule that picks one.

For each shape (rank 2 unless given) and batch size this times the fold path
(``factor.forward``) and the materialized path (``network.layer_forward`` on
``"materialized"``: building W, then ``network.predict_product``) over
repeated runs, and
records each path's median and interquartile range, its analytic flops and
achieved GFLOP/s, the path that
``flops.train_path`` picks without the input gradient (the one rule that
``network.eval_paths`` and the first layer of a training step ask) and
whether that pick was the faster one measured. Cells where it was not are
listed under ``rule_wrong``.

At the same batch sizes it times two more things:

* ``thin_products``: a weight product ``X @ W.T`` in both orientations,
  ``direct`` (``X @ W.T``) and ``swapped`` (``(W @ X.T).T`` made
  C-contiguous), for weights of 2 to 64 rows at the widths 784 and 1024,
  the two timed in turn. Each cell records the median speedup of the swap,
  the orientation ``network.product_orientation`` picks (swapped below
  ``network.THIN_WEIGHT_ROWS`` weight rows from ``network.SWAP_MIN_ROWS``
  input rows) and whether it was the faster one; cells where it was not are
  listed under ``thin_rule_wrong``;
* ``evaluate``: one whole ``network.evaluate`` call (softmax cross entropy)
  on the benchmark's two nets, the paper's 784->10 factored layer and the
  1024->1024->16 ReLU net, each factored and as its dense twin, with the
  paths ``network.eval_paths`` gives the factored net.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set; the environment
(Python, numpy, BLAS name, version and thread count) goes into the same file.

Run: python benchmarks/bench_eval.py [--repeats 20] [--out BENCH_eval.json]
     [--shape 8,16,2,2[,r] ...] [--batches 1,64,512,2048]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from bench_flops import ROOT, environment  # noqa: E402  (puts src/ on sys.path)

import numpy as np  # noqa: E402

from kronblock.factor import KronShape, forward, random_factor  # noqa: E402
from kronblock.flops import (  # noqa: E402
    kron_forward_matmul_flops,
    materialized_forward_flops,
    train_path,
)
from kronblock.linalg import matmul  # noqa: E402
from kronblock.network import (  # noqa: E402
    THIN_WEIGHT_ROWS,
    Layer,
    build_network,
    dense_spec,
    eval_paths,
    evaluate,
    kron_spec,
    layer_forward,
    product_orientation,
)

RANK = 2
SHAPES = tuple(
    KronShape(*dims, RANK)
    for dims in (
        (5, 392, 2, 2),
        (5, 49, 2, 16),
        (2, 49, 5, 16),
        (8, 16, 2, 2),
        (4, 8, 4, 4),
        (64, 64, 16, 16),
        (32, 32, 32, 32),
        (1, 64, 16, 16),
    )
)
BATCHES = (1, 64, 512, 2048)
SEED = 0
# weight rows on both sides of THIN_WEIGHT_ROWS, at the paper's input width
# and the 1024-wide benchmark net's
THIN_ROWS = (2, 4, 10, 15, 16, 24, 64)
THIN_WIDTHS = (784, 1024)
# the benchmark's two nets (perfbench/workloads.py), factored
EVAL_NETS = {
    "linear784": ((KronShape(5, 392, 2, 2, 2), "softmax_output"),),
    "wide1024": (
        (KronShape(64, 64, 16, 16, 2), "relu"),
        (KronShape(1, 64, 16, 16, 2), "softmax_output"),
    ),
}


def time_path(fn, repeats: int) -> list[float]:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
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


def measure(shape: KronShape, n_batch: int, repeats: int, rng) -> dict:
    fac = random_factor(shape, rng)
    layer = Layer(kron_spec(shape), factor=fac)
    x = rng.standard_normal((n_batch, shape.n))
    fold = path_row(
        kron_forward_matmul_flops(n_batch, shape),
        time_path(lambda: forward(fac, x), repeats),
    )
    mat = path_row(
        materialized_forward_flops(n_batch, shape),
        time_path(lambda: layer_forward(layer, "materialized", x), repeats),
    )
    pick = train_path(n_batch, shape, False)
    faster = "materialized" if mat["median_s"] < fold["median_s"] else "fold"
    return {
        "shape": shape_dims(shape),
        "r": shape.r,
        "m": shape.m,
        "n": shape.n,
        "batch": n_batch,
        "fold": fold,
        "materialized": mat,
        "pick": pick,
        "faster": faster,
        "pick_is_faster": pick == faster,
    }


def time_pair(fa, fb, repeats: int) -> tuple[list[float], list[float]]:
    """Times of ``fa`` and ``fb`` run in turn, each going first in every other
    round, so that a slow spell of the host slows both alike."""
    fa(), fb()  # warm-up
    times = ([], [])
    for i in range(repeats):
        order = ((fa, times[0]), (fb, times[1]))
        for fn, out in order if i % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return times


def measure_thin(m: int, n: int, n_batch: int, repeats: int, rng) -> dict:
    w = rng.standard_normal((m, n))
    x = rng.standard_normal((n_batch, n))
    flops = n_batch * m * (2 * n - 1)
    direct, swapped = (
        path_row(flops, times)
        for times in time_pair(
            lambda: matmul(x, w.T), lambda: np.ascontiguousarray(matmul(w, x.T).T), repeats
        )
    )
    pick = product_orientation(m, n_batch)
    faster = "swapped" if swapped["median_s"] < direct["median_s"] else "direct"
    return {
        "m": m,
        "n": n,
        "batch": n_batch,
        "direct": direct,
        "swapped": swapped,
        "swap_speedup": direct["median_s"] / swapped["median_s"] if swapped["median_s"] else 0.0,
        "pick": pick,
        "faster": faster,
        "pick_is_faster": pick == faster,
    }


def measure_evaluate(name: str, n_batch: int, repeats: int, rng) -> dict:
    layers = EVAL_NETS[name]
    kron_net = build_network([kron_spec(s, act) for s, act in layers], seed=SEED)
    dense_net = build_network([dense_spec(s.m, s.n, act) for s, act in layers], seed=SEED)
    x = rng.standard_normal((n_batch, kron_net.in_dim))
    labels = rng.integers(0, kron_net.out_dim, size=n_batch)
    rows = {}
    for kind, net in (("kron", kron_net), ("dense", dense_net)):
        row = timing(time_path(lambda: evaluate(net, x, labels), repeats))
        row["samples_per_s"] = n_batch / row["median_s"] if row["median_s"] > 0 else 0.0
        rows[kind] = row
    return {"net": name, "batch": n_batch, "paths": eval_paths(kron_net, n_batch), **rows}


def parse_shape(text: str) -> KronShape:
    """``m1,n1,m2,n2`` at rank ``RANK``, or ``m1,n1,m2,n2,r``."""
    dims = tuple(int(v) for v in text.split(","))
    if len(dims) not in (4, 5) or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"shape must be m1,n1,m2,n2[,r], got {text!r}")
    return KronShape(*dims[:4], dims[4] if len(dims) == 5 else RANK)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--out", default=str(ROOT / "BENCH_eval.json"))
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
            fold, mat = cell["fold"], cell["materialized"]
            label = str(tuple(cell["shape"]))
            print(f"{label:<18} N={n_batch:<5} fold {fold['median_s'] * 1e3:9.3f} ms "
                  f"{fold['gflops']:6.2f} GF/s  materialized {mat['median_s'] * 1e3:9.3f} ms "
                  f"{mat['gflops']:6.2f} GF/s  pick {cell['pick']:<12} "
                  f"{'ok' if cell['pick_is_faster'] else 'WRONG'}")

    wrong = [{"shape": c["shape"], "batch": c["batch"], "pick": c["pick"],
              "fold_median_s": c["fold"]["median_s"],
              "materialized_median_s": c["materialized"]["median_s"]}
             for c in cells if not c["pick_is_faster"]]
    print(f"rule picked the faster path in {len(cells) - len(wrong)} of {len(cells)} cells")

    thin = []
    for n in THIN_WIDTHS:
        for m in THIN_ROWS:
            for n_batch in batches:
                cell = measure_thin(m, n, n_batch, args.repeats, rng)
                thin.append(cell)
                direct, swapped = cell["direct"], cell["swapped"]
                print(f"W {m:>2}x{n:<5} N={n_batch:<5} direct {direct['median_s'] * 1e3:9.3f} ms "
                      f"{direct['gflops']:6.2f} GF/s  swapped {swapped['median_s'] * 1e3:9.3f} ms "
                      f"{swapped['gflops']:6.2f} GF/s  x{cell['swap_speedup']:4.2f}  "
                      f"pick {cell['pick']:<8} "
                      f"{'ok' if cell['pick_is_faster'] else 'WRONG'}")
    thin_wrong = [{"m": c["m"], "n": c["n"], "batch": c["batch"], "pick": c["pick"],
                   "direct_median_s": c["direct"]["median_s"],
                   "swapped_median_s": c["swapped"]["median_s"]}
                  for c in thin if not c["pick_is_faster"]]
    print(f"orientation rule picked the faster product in {len(thin) - len(thin_wrong)} "
          f"of {len(thin)} cells")

    evals = []
    for name in EVAL_NETS:
        for n_batch in batches:
            cell = measure_evaluate(name, n_batch, args.repeats, rng)
            evals.append(cell)
            print(f"evaluate {name:<9} N={n_batch:<5} factored "
                  f"{cell['kron']['median_s'] * 1e3:9.3f} ms  dense "
                  f"{cell['dense']['median_s'] * 1e3:9.3f} ms  paths {cell['paths']}")

    result = {
        "benchmark": "factored-layer inference paths: fold vs materialized weight",
        "rank": RANK,
        "repeats": args.repeats,
        "seed": SEED,
        "environment": environment(),
        "cells": cells,
        "rule_right": len(cells) - len(wrong),
        "rule_wrong": wrong,
        "thin_weight_rows": THIN_WEIGHT_ROWS,
        "thin_products": thin,
        "thin_rule_right": len(thin) - len(thin_wrong),
        "thin_rule_wrong": thin_wrong,
        "evaluate": evals,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
