#!/usr/bin/env python3
"""Time the instrumented flop counter per tag on the 784 -> 10 flop audit.

For each of the five audit configurations of the paper's 784 -> 10 linear
model (batch 4) and each of its two tags (forward and backward), this times
``instrumented_count`` over repeated runs and records the median and the
interquartile range of the repeats next to the analytic count the counter
must equal. The environment (Python, numpy, BLAS and its thread count, the
heap policy and the CPU count) goes into the same file.

Run: python benchmarks/bench_flops.py [--repeats 50] [--out BENCH_flops.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kronblock.cli import flop_audit_case, run_environment  # noqa: E402
from kronblock.flops import instrumented_count  # noqa: E402

BATCH = 4
SEED = 0
CONFIGS = (
    ("dense 10x784", {"kind": "dense", "m": 10, "n": 784}),
    ("kron (5,392,2,2) r2", {"kind": "kron", "shape": [5, 392, 2, 2], "rank": 2}),
    ("kron (5,49,2,16) r2", {"kind": "kron", "shape": [5, 49, 2, 16], "rank": 2}),
    ("two-layer dense 784-64-10",
     {"kind": "two_layer_dense", "d_in": 784, "d_hidden": 64, "d_out": 10}),
    ("two-layer kron (8,49,8,16) r2 + (5,8,2,8) r2",
     {"kind": "two_layer_kron", "shape1": [8, 49, 8, 16], "rank1": 2,
      "shape2": [5, 8, 2, 8], "rank2": 2}),
)


def environment() -> dict:
    """``run_info.json``'s environment (Python, numpy and BLAS versions, the
    BLAS thread count and the heap policy) plus the CPUs this process may use."""
    return {**run_environment(), "nproc": len(os.sched_getaffinity(0))}


def time_tag(tag: str, inputs: dict, repeats: int) -> tuple[int, list[float]]:
    counted = instrumented_count(tag, **inputs)  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        instrumented_count(tag, **inputs)
        times.append(time.perf_counter() - t0)
    return counted, times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--out", default=str(ROOT / "BENCH_flops.json"))
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2")

    rows = []
    for label, cfg in CONFIGS:
        report, prefix, inputs = flop_audit_case({"batch": BATCH, "seed": SEED, **cfg})
        for phase, analytic in (("forward", report.forward), ("backward", report.backward)):
            tag = f"{prefix}_{phase}"
            counted, times = time_tag(tag, inputs, args.repeats)
            if counted != analytic:
                raise SystemExit(f"{label} {tag}: counted {counted} != analytic {analytic}")
            q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
            rows.append({
                "config": label,
                "tag": tag,
                "analytic_flops": analytic,
                "median_s": median,
                "iqr_s": q3 - q1,
                "repeats": args.repeats,
            })
            print(f"{label:<46} {tag:<26} {analytic:>9} flops "
                  f"median {median * 1e3:8.3f} ms  IQR {(q3 - q1) * 1e3:7.3f} ms")

    total = sum(row["median_s"] for row in rows)
    print(f"one audit pass (sum of medians): {total * 1e3:.3f} ms")
    result = {
        "benchmark": "instrumented_count per tag, 784->10 flop audit",
        "batch": BATCH,
        "seed": SEED,
        "environment": environment(),
        "rows": rows,
        "audit_pass_median_s": total,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
