#!/usr/bin/env python3
"""Time the weight products of inference and whole ``evaluate`` calls.

At each batch size this times two things:

* ``thin_products``: a weight product ``X @ W.T`` in both orientations,
  ``direct`` (``X @ W.T``) and ``swapped`` (``(W @ X.T).T`` made
  C-contiguous), for weights of 2 to 64 rows at the widths 784 and 1024,
  the two timed in turn. Each cell records the median and interquartile
  range of each orientation, its flops and achieved GFLOP/s, the median
  speedup of the swap, the orientation ``network.product_orientation`` picks
  (swapped below ``network.THIN_WEIGHT_ROWS`` weight rows from
  ``network.SWAP_MIN_ROWS`` input rows) and whether it was the faster one;
  cells where it was not are listed under ``thin_rule_wrong``;
* ``evaluate``: one whole ``network.evaluate`` call (softmax cross entropy)
  on the factored net of every benchmark workload of
  ``perfbench/workloads.py`` and on its dense twin, with the paths
  ``network.eval_paths`` gives the factored net.

The fold and materialized paths of a single factored layer, and whether the
path rule picks the faster one for evaluation, are timed by
``bench_train.py`` (its ``eval`` step). BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set; the environment (Python, numpy, BLAS name,
version and thread count, heap policy and CPU count) goes into the same file.

Run: python benchmarks/bench_eval.py [--repeats 20] [--out BENCH_eval.json]
     [--batches 1,64,512,2048]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from kronblock.cli import run_environment  # noqa: E402
from kronblock.linalg import matmul  # noqa: E402
from kronblock.network import (  # noqa: E402
    THIN_WEIGHT_ROWS,
    build_network,
    dense_spec,
    eval_paths,
    evaluate,
    kron_spec,
    product_orientation,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

BATCHES = (1, 64, 512, 2048)
SEED = 0
# weight rows on both sides of THIN_WEIGHT_ROWS, at the paper's input width
# and the 1024-wide benchmark net's
THIN_ROWS = (2, 4, 10, 15, 16, 24, 64)
THIN_WIDTHS = (784, 1024)


def environment() -> dict:
    """``run_info.json``'s environment (Python, numpy and BLAS versions, the
    BLAS thread count and the heap policy) plus the CPUs this process may use."""
    return {**run_environment(), "nproc": len(os.sched_getaffinity(0))}


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
    layers = WORKLOADS[name].kron_layers
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--out", default=str(ROOT / "BENCH_eval.json"))
    p.add_argument("--batches", default=",".join(map(str, BATCHES)))
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2")
    batches = [int(v) for v in args.batches.split(",")]

    rng = np.random.default_rng(SEED)
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
    for name in WORKLOADS:
        for n_batch in batches:
            cell = measure_evaluate(name, n_batch, args.repeats, rng)
            evals.append(cell)
            print(f"evaluate {name:<9} N={n_batch:<5} factored "
                  f"{cell['kron']['median_s'] * 1e3:9.3f} ms  dense "
                  f"{cell['dense']['median_s'] * 1e3:9.3f} ms  paths {cell['paths']}")

    result = {
        "benchmark": "inference: thin weight products and whole evaluate calls",
        "repeats": args.repeats,
        "seed": SEED,
        "environment": environment(),
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
