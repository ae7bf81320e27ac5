"""Span recorder for the traced run.

The traced run wraps public functions of the kronblock modules from outside
the package: each wrapper records a span (name, start, end, parent) and the
counts taken at the same boundary, and the wrapper is bound to every module
name a caller looks the function up by (``kronblock.train.net_forward`` as
well as ``kronblock.network.net_forward``, for example). Spans stay in memory;
``round_metrics`` turns one round's spans into the per-module metrics, and
the runner prints the per-name totals of ``Tracer.totals`` at the end.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

FOLDS = ("fold_input", "unfold_input", "fold_mid", "unfold_mid", "fold_output", "unfold_output")
INSTRUMENTED_TAGS = (
    "dense_forward",
    "dense_backward",
    "kron_forward",
    "kron_backward",
    "two_layer_dense_forward",
    "two_layer_dense_backward",
    "two_layer_kron_forward",
    "two_layer_kron_backward",
)
ANALYTIC_REPORTS = (
    "dense_layer_report",
    "kron_layer_report",
    "two_layer_dense_report",
    "two_layer_kron_report",
)


class Tracer:
    """In-memory spans plus counters, for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, child seconds]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += span[2] - span[1]

    def wrap(self, name, fn, count=None):
        """A stand-in for ``fn`` that records a span named ``name`` and, after
        each call, ``count(self.counts, result, *args, **kwargs)``."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A stand-in for a generator function that times each ``next()``."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,), {})
                except StopIteration:
                    return
                yield item

        return traced

    def bind(self, module, attr: str, replacement) -> None:
        """Point ``module.attr`` at ``replacement``; a module that does not
        import the name is left alone."""
        if hasattr(module, attr):
            self._bound.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._bound:
            module, attr, original = self._bound.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Rebind the traced functions in every module that looks them up."""
        from kronblock import cli, data, factor, flops, linalg, network, patterns, train

        def count_fold(c, out, *_a, **_k):
            c["fold_calls"] += 1
            c["fold_bytes"] += out.nbytes

        for fold in FOLDS:
            w = self.wrap("linalg.fold", getattr(linalg, fold), count_fold)
            for module in (linalg, factor, flops):
                self.bind(module, fold, w)

        def count_forward(c, _out, fac, x):
            c["factor.forward_calls"] += 1
            c["factor.forward_flops"] += flops.kron_forward_matmul_flops(x.shape[0], fac.shape)

        def count_backward(c, _out, fac, cache, _d):
            c["factor.backward_calls"] += 1
            c["factor.backward_flops"] += kron_backward_with_dx_flops(cache.batch, fac.shape)

        self.bind(factor, "forward", self.wrap("factor.forward", factor.forward, count_forward))
        self.bind(factor, "backward", self.wrap("factor.backward", factor.backward, count_backward))

        def count_net_forward(c, _out, net, x):
            n = x.shape[0]
            c["dense_flops"] += sum(
                n * layer.spec.m * (2 * layer.spec.n - 1)
                for layer in net.layers
                if layer.spec.kind == "dense"
            )

        def count_net_backward(c, _out, net, cache, *_a):
            n = cache.layers[0].x_in.shape[0]
            c["dense_flops"] += sum(
                layer.spec.m * layer.spec.n * (2 * n - 1)
                + n * layer.spec.n * (2 * layer.spec.m - 1)
                for layer in net.layers
                if layer.spec.kind == "dense"
            )

        net_fwd = self.wrap("network.forward", network.net_forward, count_net_forward)
        net_bwd = self.wrap("network.backward", network.net_backward, count_net_backward)
        for module in (network, train, patterns):
            self.bind(module, "net_forward", net_fwd)
            self.bind(module, "net_backward", net_bwd)
        for module, attr in (
            (network, "loss_and_seed"),
            (network, "softmax_cross_entropy"),
            (network, "squared_frobenius"),
            (train, "loss_and_seed"),
            (train, "squared_frobenius"),
        ):
            self.bind(module, attr, self.wrap("network.loss", getattr(module, attr)))

        batches = self.wrap_generator("data.batches", data.batches)
        for module in (train, patterns):
            self.bind(module, "batches", batches)
        teacher = self.wrap("data.make_teacher", data.make_teacher_dataset)
        self.bind(data, "make_teacher_dataset", teacher)

        sgd = self.wrap("train.sgd_step", train.sgd_step)
        for module in (train, patterns):
            self.bind(module, "sgd_step", sgd)
        for attr, name in (
            ("group_lasso_prox", "train.group_lasso_prox"),
            ("eval_metrics", "train.eval"),
            ("collect_metrics", "train.collect_metrics"),
        ):
            self.bind(train, attr, self.wrap(name, getattr(train, attr)))
        self.bind(patterns, "train_kron", self.wrap("patterns.finetune", train.train_kron))
        for trainer in ("train_kron", "train_group_lasso", "prune_blocks"):
            self.bind(train, trainer, self.wrap("train.loop", getattr(train, trainer)))
        select = self.wrap("patterns.select", patterns.select_pattern)
        self.bind(patterns, "select_pattern", select)

        def instrumented(tag, **inputs):
            name = f"flops.instrumented.{tag}"
            counted = self.call(name, flops.instrumented_count, (tag,), inputs)
            self.counts["instrumented_flops"] += counted
            return counted

        self.bind(cli, "instrumented_count", instrumented)
        for report in ANALYTIC_REPORTS:
            self.bind(cli, report, self.wrap("flops.analytic", getattr(cli, report)))
        self.bind(cli, "main", self.wrap("cli.flops", cli.main))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for name, start, end, _parent, child in self.spans:
            row = table[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child
        return dict(table)


def kron_backward_with_dx_flops(n_batch, shape) -> int:
    """Analytic flops of one ``factor.backward`` call, which always computes
    the input gradient: the single-layer backward of the cost model without
    its loss seed, plus the cost model's input-gradient term."""
    from kronblock import flops

    s = shape
    input_grad = s.r * n_batch * s.n1 * s.n2 * (2 * s.m2 - 1) + (s.r - 1) * n_batch * s.n
    return flops.kron_backward_flops(n_batch, s) - n_batch * s.m + input_grad


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-module metrics of the spans recorded since the last reset.

    A name ending in ``_s`` is self time, except ``train.eval_total_s`` and
    ``patterns.finetune_s``, which are inclusive."""
    t = tracer.totals()
    c = tracer.counts

    def self_s(name):
        return t[name]["self_s"] if name in t else 0.0

    def incl_s(name):
        return t[name]["incl_s"] if name in t else 0.0

    def rate(amount, seconds, scale=1.0):
        return amount / seconds / scale if seconds > 0 else 0.0

    instrumented_incl = sum(incl_s(f"flops.instrumented.{tag}") for tag in INSTRUMENTED_TAGS)
    out = {
        "linalg.fold_s": self_s("linalg.fold"),
        "linalg.fold_calls": c["fold_calls"],
        "linalg.fold_bytes_computed": c["fold_bytes"],
        "factor.forward_s": self_s("factor.forward"),
        "factor.backward_s": self_s("factor.backward"),
        "factor.forward_calls": c["factor.forward_calls"],
        "factor.backward_calls": c["factor.backward_calls"],
        "factor.forward_gflops": rate(c["factor.forward_flops"], incl_s("factor.forward"), 1e9),
        "factor.backward_gflops": rate(c["factor.backward_flops"], incl_s("factor.backward"), 1e9),
        "network.forward_s": self_s("network.forward"),
        "network.backward_s": self_s("network.backward"),
        "network.loss_s": self_s("network.loss"),
        "network.dense_gflops": rate(
            c["dense_flops"], self_s("network.forward") + self_s("network.backward"), 1e9
        ),
        "train.sgd_step_s": self_s("train.sgd_step"),
        "train.group_lasso_prox_s": self_s("train.group_lasso_prox"),
        "train.eval_s": self_s("train.eval"),
        "train.eval_total_s": incl_s("train.eval"),
        "train.collect_metrics_s": self_s("train.collect_metrics"),
        "train.loop_self_s": self_s("train.loop"),
        "data.batches_s": self_s("data.batches"),
        "patterns.select_self_s": self_s("patterns.select"),
        "patterns.finetune_s": incl_s("patterns.finetune"),
        "flops.instrumented_flops": c["instrumented_flops"],
        "flops.counted_flops_per_s": rate(c["instrumented_flops"], instrumented_incl),
        "flops.analytic_s": self_s("flops.analytic"),
        "cli.flops_s": self_s("cli.flops"),
    }
    for tag in INSTRUMENTED_TAGS:
        out[f"flops.instrumented_s.{tag}"] = self_s(f"flops.instrumented.{tag}")
    return out
