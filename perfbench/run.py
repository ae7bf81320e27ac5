#!/usr/bin/env python3
"""kronblock benchmark: one workload under one seed, timed, checked, reported.

    python3 perfbench/run.py --workload linear784 --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports kronblock from
``src/`` and exits with code 1, printing no result, when that is missing.
With ``--trace 0`` the last line of standard output is the end-to-end
result, with ``--trace 1`` the per-module result of a traced run (README.md
in this directory lists the metrics, the workloads and why each exists). The
line before it is a report with the environment, per-phase timings and the
paper's flop claim next to the measured time.

BLAS is pinned to one thread before numpy loads, so runs on a shared machine
do not compete with themselves and stay comparable. Each timed end-to-end
metric is the fast tail of its phase's iterations (``fast_tail``), scaled to
the speed at which the host ran the reference kernel of ``reference.py`` in
the same run; the report keeps the unscaled values.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, round_metrics

_START = time.perf_counter()  # set-up probes time kronblock's import from here
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3  # timed rounds per run, and of each kind when traced
SLICE_S = 0.25  # an untraced round repeats each phase for this long
PROBE_ROWS = 16
PROBE_REL_TOL = 1e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_kronblock():
    """Import kronblock from this checkout's src/ and nowhere else."""
    if not (SRC / "kronblock" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'kronblock'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kronblock

    if Path(kronblock.__file__).resolve().parent != SRC / "kronblock":
        sys.exit(f"error: imported kronblock from {kronblock.__file__}, not from {SRC}")
    return kronblock


class Gate:
    """Correctness checks, each one operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def layers(self, net, label: str, rng) -> None:
        """The factored forward matches X @ materialize(W).T on a probe batch."""
        import numpy as np
        from kronblock import factor

        for i, layer in enumerate(net.layers):
            if layer.spec.kind != "kron":
                continue
            x = rng.standard_normal((PROBE_ROWS, layer.spec.in_dim))
            out, _ = factor.forward(layer.factor, x)
            ref = x @ factor.materialize(layer.factor).T
            err = np.linalg.norm(out - ref) / max(np.linalg.norm(ref), np.finfo(float).tiny)
            self.check(err <= PROBE_REL_TOL, f"{label} layer {i}: forward rel err {err:.3g}")

    def flop_reports(self, reports) -> None:
        for i, rep in enumerate(reports):
            inst, ana = rep["instrumented"], rep["analytic"]
            equal = inst["forward"] == ana["forward"] and inst["backward"] == ana["backward"]
            self.check(equal and rep["equal"], f"flop config {i}: analytic != instrumented")


def openblas_threads():
    """The thread count OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(kronblock, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "use_numba": bool(kronblock.USE_NUMBA),
        "seed": seed,
    }


def flop_claim(st, rates: dict) -> dict:
    """Analytic flops per training step of the factored net and its dense twin,
    and their ratio next to the measured training-time ratio (not gated)."""
    from kronblock import network

    def flops(net):
        return {
            "forward": network.network_forward_flops(net, st.wl.batch),
            "backward": network.network_backward_flops(net, st.wl.batch),
            "update": network.network_update_flops(net),
        }

    kron, dense = flops(st.kron_net), flops(st.dense_net)
    kron_rate, dense_rate = rates["kron_train"], rates["group_lasso"]
    measured = dense_rate / kron_rate if kron_rate and dense_rate else None
    return {
        "batch": st.wl.batch,
        "kron": kron,
        "dense_twin": dense,
        "analytic_kron_over_dense": sum(kron.values()) / sum(dense.values()),
        "measured_kron_over_dense_time": measured,
    }


def setup_probe(args) -> float:
    """Set-up time (import, data, nets, pattern set, flop configs) measured in
    a fresh process, since import is paid once per process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"error: setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_phase(gate: Gate, name: str, fn, st, ref_digest):
    """One phase iteration: (seconds, samples, part seconds, digest) or None
    when it raised. A phase is one timed part, except flop_check, whose
    configs are timed one by one."""
    t0 = time.perf_counter()
    try:
        samples, dig, losses, extra = fn(st)
    except Exception:  # a failed operation is counted, and the run goes on
        gate.check(False, f"{name}: raised\n{traceback.format_exc()}")
        return None
    seconds = time.perf_counter() - t0
    gate.check(all(math.isfinite(v) for v in losses), f"{name}: non-finite loss")
    if ref_digest is not None:
        gate.check(dig == ref_digest, f"{name}: outputs differ from the first iteration")
    parts = (seconds,)
    if name == "flop_check":
        gate.flop_reports(extra.reports)
        parts = extra.seconds
    elif name == "select":
        gate.check(0 <= extra.winner < len(st.pattern_set.nets), "select: no winner")
    return seconds, samples, parts, dig


def fast_tail(times) -> float:
    """The tenth percentile of repeated timings (interpolated, so between the
    second and third fastest of a dozen).

    Co-tenants of a shared host slow the same code by up to 1.7x, in spells
    from a second to minutes, and never speed it up; the fast tail is the
    program's own cost with the least of that mixed in. Medians over whole
    runs moved by up to 70% between runs of one code."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[0]


def fast_seconds(rows) -> float:
    """The fast tail of a phase's iterations, per timed part and summed over
    the parts: shorter parts are likelier to fall in a quiet spell."""
    return sum(fast_tail(times) for times in zip(*(parts for _, _, parts in rows)))


def rate_metrics(samples: dict) -> dict:
    """Per phase, from its fast tail (``fast_seconds``): samples per second
    or, for flop_check, seconds per pass over the configs."""
    out = {}
    for name, rows in samples.items():
        if not rows:
            out[name] = 0.0
            continue
        seconds = fast_seconds(rows)
        out[name] = seconds if name == "flop_check" else rows[0][1] / seconds
    return out


def phase_stats(samples: dict) -> dict:
    """Mean, median, fast tail, extremes and count of each phase's iteration
    times, plus the highest percentile with at least ten iterations beyond
    it, if any."""
    stats = {}
    for name, rows in samples.items():
        if not rows:
            continue
        times = sorted(s for s, _, _ in rows)
        row = {
            "iterations": len(times),
            "mean_s": statistics.fmean(times),
            "median_s": statistics.median(times),
            "fast_s": fast_seconds(rows),
            "min_s": times[0],
            "max_s": times[-1],
            "samples_per_iteration": rows[0][1],
        }
        below = len(times) - 10
        if below >= len(times) / 2:
            row[f"p{100 * below // len(times)}_s"] = times[below - 1]
        stats[name] = row
    return stats


def run_rounds(args, st, gate: Gate, tracer, reference, phases):
    """Timed rounds until the time is up. An untraced round repeats each phase
    for SLICE_S seconds in turn; when tracing, every other round runs one
    iteration of each phase with the spans installed. Without tracing, each
    round starts with one set-up probe and one pass of the reference kernel,
    so that both are sampled across the whole run too. The first iteration of each phase fixes the digest every
    later one must reproduce. Returns the untraced and traced (seconds,
    samples, part seconds) per phase, the set-up probe times, the per-module
    metrics of each traced round and the span totals over all traced rounds."""
    ref = {}
    setup_times = []
    untraced = {name: [] for name, _, _ in phases}
    traced = {name: [] for name, _, _ in phases}
    layer_rounds = []
    span_totals: dict[str, dict[str, float]] = {}
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < (2 if tracer else 1) * MIN_ROUNDS or time.perf_counter() < deadline:
        tracing = tracer is not None and rounds % 2 == 1
        if tracer is None:
            setup_times.append(setup_probe(args))
            reference.probe()
        if tracing:
            tracer.reset()
            tracer.install()
        for name, fn, _metric in phases:
            slice_end = time.perf_counter() + (0.0 if tracing else SLICE_S)
            while True:
                done = run_phase(gate, name, fn, st, ref.get(name))
                if done:
                    ref.setdefault(name, done[3])
                    (traced if tracing else untraced)[name].append(done[:3])
                if not done or time.perf_counter() >= slice_end:
                    break
        if tracing:
            tracer.uninstall()
            layer_rounds.append(round_metrics(tracer))
            for span_name, row in tracer.totals().items():
                acc = span_totals.setdefault(span_name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    acc[key] += value
        rounds += 1
    return untraced, traced, setup_times, layer_rounds, span_totals


def main(argv=None) -> int:
    args = parse_args(argv)
    kronblock = import_kronblock()
    import numpy as np

    from reference import REFERENCE_S, Reference
    from workloads import PHASES, WORKLOADS, State

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            State(wl, args.seed, str(workdir))
            print(json.dumps({"setup_s": time.perf_counter() - _START}))
            return 0

        tracer = Tracer() if args.trace else None
        if tracer:  # trace the set-up too, for data.make_teacher_s
            tracer.install()
        st = State(wl, args.seed, str(workdir))
        if tracer:
            make_teacher_s = tracer.totals()["data.make_teacher"]["self_s"]
            tracer.uninstall()

        gate = Gate()
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xB0B)))
        gate.layers(st.kron_net, "initial factored net", rng)
        for k, net in enumerate(st.pattern_set.nets):
            gate.layers(net, f"pattern {k}", rng)
        reference = None if tracer else Reference()
        untraced, traced, setup_times, layer_rounds, span_totals = run_rounds(
            args, st, gate, tracer, reference, PHASES
        )
        if st.trained is not None:
            gate.layers(st.trained, "trained factored net", rng)

        rates = rate_metrics(untraced)
        report = {
            "workload": args.workload,
            "environment": environment(kronblock, args.seed),
            "phases": phase_stats(untraced),
            "flop_claim": flop_claim(st, rates),
            "failures": gate.failures[:5],
        }
        if tracer:
            plain, with_spans = report["phases"], phase_stats(traced)
            report["traced_phases"] = with_spans
            report["trace_overhead_pct_by_phase"] = {
                name: 100.0 * (with_spans[name]["mean_s"] / plain[name]["mean_s"] - 1.0)
                for name in plain.keys() & with_spans.keys()
            }
            report["spans"] = span_totals
            values = {
                name: statistics.median(r[name] for r in layer_rounds) for name in layer_rounds[0]
            }
            values["data.make_teacher_s"] = make_teacher_s
            values["trace.overhead_pct"] = 100.0 * (
                sum(row["mean_s"] for row in with_spans.values())
                / sum(row["mean_s"] for row in plain.values())
                - 1.0
            )
        else:
            # Timed metrics at the reference speed: times shrink and rates grow
            # by the factor the host slowed the reference kernel in this run.
            speed = REFERENCE_S / fast_tail(reference.times)
            raw = {
                "setup_s": statistics.median(setup_times),
                **{metric: rates[name] for name, _fn, metric in PHASES},
            }
            report["setup_probes_s"] = setup_times
            report["reference"] = {
                "times_s": reference.times, "fast_s": fast_tail(reference.times),
                "reference_s": REFERENCE_S, "speed": speed,
            }
            report["unscaled_metrics"] = raw
            values = {
                name: value / speed if name.endswith("_per_s") else value * speed
                for name, value in raw.items()
            }
            values["final_eval_loss"] = st.trained_eval_loss or 0.0
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # BENCHMARK.json names the metrics of each kind of run and their units.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if tracer else "end_to_end"]
        }

        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps({
            "correct": not gate.failures,
            "attempted": gate.attempted,
            "failed": len(gate.failures),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
