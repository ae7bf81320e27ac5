#!/usr/bin/env python3
"""Time the two inference paths of a factored layer against the rule that picks one.

For each shape (rank 2 unless given) and batch size this times the fold path
(``factor.forward``) and the materialized path
(``factor.materialized_forward``: building W, then ``x @ W.T``) over repeated
runs, and records each path's median and
interquartile range, its analytic flops and achieved GFLOP/s, the path that
``flops.forward_path`` picks and whether that pick was the faster one
measured. Cells where it was not are listed under ``rule_wrong``. BLAS runs
on one thread unless OPENBLAS_NUM_THREADS is set; the environment (Python,
numpy, BLAS name, version and thread count) goes into the same file.

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

from kronblock.factor import (  # noqa: E402
    KronShape,
    forward,
    materialized_forward,
    random_factor,
)
from kronblock.flops import (  # noqa: E402
    forward_path,
    kron_forward_matmul_flops,
    materialized_forward_flops,
)

RANK = 2
SHAPES = tuple(
    KronShape(*dims, RANK)
    for dims in (
        (5, 392, 2, 2),
        (5, 49, 2, 16),
        (2, 49, 5, 16),
        (8, 16, 2, 2),
        (64, 64, 16, 16),
        (32, 32, 32, 32),
        (1, 64, 16, 16),
    )
)
BATCHES = (1, 64, 512, 2048)
SEED = 0


def time_path(fn, repeats: int) -> list[float]:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def path_row(flops: int, times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "flops": flops,
        "median_s": median,
        "iqr_s": q3 - q1,
        "gflops": flops / median / 1e9 if median > 0 else 0.0,
    }


def shape_dims(shape: KronShape) -> list[int]:
    return [shape.m1, shape.n1, shape.m2, shape.n2]


def measure(shape: KronShape, n_batch: int, repeats: int, rng) -> dict:
    fac = random_factor(shape, rng)
    x = rng.standard_normal((n_batch, shape.n))
    fold = path_row(
        kron_forward_matmul_flops(n_batch, shape),
        time_path(lambda: forward(fac, x), repeats),
    )
    mat = path_row(
        materialized_forward_flops(n_batch, shape),
        time_path(lambda: materialized_forward(fac, x), repeats),
    )
    pick = forward_path(n_batch, shape)
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
                   help="m1,n1,m2,n2[,r] (repeatable; default: the seven built-in shapes)")
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
    result = {
        "benchmark": "factored-layer inference paths: fold vs materialized weight",
        "rank": RANK,
        "repeats": args.repeats,
        "seed": SEED,
        "environment": environment(),
        "cells": cells,
        "rule_right": len(cells) - len(wrong),
        "rule_wrong": wrong,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
