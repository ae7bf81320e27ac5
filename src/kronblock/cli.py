"""Experiment runner.

Subcommands:
  train          --config C --method {kron,group-lasso,prune} --out DIR
  select-pattern --config C --out DIR
  shape-opt      --m M --n N [--r-grid 1,2,4] [--json]
  flops          --config C
  decompose      --in MATRIX --block M2xN2 --out FACTOR

Configs are JSON; the full schema with every default is documented in the
README. Runs are deterministic under their seed: metric files contain no
timestamps (run_info.json carries the wall clock separately), so re-running
an identical config reproduces byte-identical outputs. Exit codes: 0 success,
1 validation error, 2 runtime error (e.g. divergence or over-regularization).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import time

import numpy as np

from .data import (
    Dataset,
    default_data_dir,
    find_mnist,
    load_idx,
    make_teacher_dataset,
    read_idx,
    train_test_split,
)
from .factor import (
    KronShape,
    count_params,
    materialize,
    random_factor,
    reconstruct_from_blockwise,
    save_factor,
)
from .flops import (
    dense_layer_report,
    instrumented_count,
    kron_layer_report,
    two_layer_dense_report,
    two_layer_kron_report,
)
from .network import (
    ACTIVATIONS,
    Network,
    build_network,
    dense_spec,
    eval_paths,
    kron_spec,
    save_network,
)
from .patterns import (
    OverRegularizedError,
    SelectConfig,
    build_pattern_set,
    select_pattern,
    selection_param_count,
)
from .shapeopt import optimal_shape, shape_report
from .train import (
    METRIC_FIELDS,
    MetricRecord,
    TrainConfig,
    TrainingDivergedError,
    dense_tile_sparsity,
    net_mask_sparsity,
    prune_blocks,
    train_group_lasso,
    train_kron,
)


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field path."""


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are rejected so that a config file
# fully determines the run)
# ---------------------------------------------------------------------------


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set[str], path: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")


def _positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path}: must be a positive integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: must be a number, got {value!r}")
    return float(value)


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


def _parse_block(value, path: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and v >= 1 for v in value)
    ):
        raise ConfigError(f"{path}: must be [m2, n2] with positive integers")
    return int(value[0]), int(value[1])


def _layer_shape(layer: dict, path: str) -> KronShape:
    rank = _positive_int(layer.get("rank", 1), f"{path}.rank")
    if "shape" in layer:
        sh = layer["shape"]
        if not isinstance(sh, list) or len(sh) != 4:
            raise ConfigError(f"{path}.shape: must be [m1, n1, m2, n2]")
        return KronShape(*(_positive_int(v, f"{path}.shape") for v in sh), rank)
    m = _positive_int(_require(layer, "m", path), f"{path}.m")
    n = _positive_int(_require(layer, "n", path), f"{path}.n")
    m2, n2 = _parse_block(_require(layer, "block", path), f"{path}.block")
    if m % m2 != 0 or n % n2 != 0:
        raise ConfigError(f"{path}.block: ({m2},{n2}) does not divide {m}x{n}")
    return KronShape(m // m2, n // n2, m2, n2, rank)


def build_model(model_cfg: dict, seed: int, force_dense: bool = False) -> Network:
    _check_keys(model_cfg, {"layers", "init_seed"}, "model")
    layers_cfg = _require(model_cfg, "layers", "model")
    if not isinstance(layers_cfg, list) or not layers_cfg:
        raise ConfigError("model.layers: must be a non-empty list")
    init_seed = model_cfg.get("init_seed", seed)
    specs = []
    for idx, layer in enumerate(layers_cfg):
        path = f"model.layers[{idx}]"
        if not isinstance(layer, dict):
            raise ConfigError(f"{path}: must be an object")
        _check_keys(layer, {"kind", "activation", "shape", "rank", "m", "n", "block"}, path)
        kind = _require(layer, "kind", path)
        activation = layer.get("activation", "identity")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"{path}.activation: unknown activation {activation!r}")
        if kind == "kron":
            shape = _layer_shape(layer, path)
            if force_dense:
                specs.append(dense_spec(shape.m, shape.n, activation))
            else:
                specs.append(kron_spec(shape, activation))
        elif kind == "dense":
            m = _positive_int(_require(layer, "m", path), f"{path}.m")
            n = _positive_int(_require(layer, "n", path), f"{path}.n")
            specs.append(dense_spec(m, n, activation))
        else:
            raise ConfigError(f"{path}.kind: must be 'kron' or 'dense', got {kind!r}")
    try:
        return build_network(specs, seed=init_seed)
    except ValueError as exc:
        raise ConfigError(f"model.layers: {exc}") from exc


def build_dataset(ds_cfg: dict, seed: int) -> tuple[Dataset, Dataset | None]:
    """Returns (train, eval-or-None) per the dataset config."""
    kind = _require(ds_cfg, "kind", "dataset")
    if kind == "teacher":
        _check_keys(
            ds_cfg,
            {
                "kind", "m", "n", "block", "zero_tile_fraction", "n_samples",
                "noise_sigma", "seed", "classification", "test_fraction",
            },
            "dataset",
        )
        m = _positive_int(_require(ds_cfg, "m", "dataset"), "dataset.m")
        n = _positive_int(_require(ds_cfg, "n", "dataset"), "dataset.n")
        block = _parse_block(_require(ds_cfg, "block", "dataset"), "dataset.block")
        frac = _number(ds_cfg.get("zero_tile_fraction", 0.5), "dataset.zero_tile_fraction")
        n_samples = _positive_int(ds_cfg.get("n_samples", 512), "dataset.n_samples")
        noise_sigma = _number(ds_cfg.get("noise_sigma", 0.0), "dataset.noise_sigma")
        test_fraction = _number(ds_cfg.get("test_fraction", 0.0), "dataset.test_fraction")
        try:
            ds, _ = make_teacher_dataset(
                m, n, block, frac, n_samples,
                noise_sigma=noise_sigma,
                seed=int(ds_cfg.get("seed", seed)),
                classification=bool(ds_cfg.get("classification", True)),
            )
        except ValueError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        if test_fraction > 0:
            try:
                return train_test_split(ds, test_fraction, seed=int(ds_cfg.get("seed", seed)))
            except ValueError as exc:
                raise ConfigError(f"dataset.test_fraction: {exc}") from exc
        return ds, None
    if kind == "mnist":
        _check_keys(ds_cfg, {"kind", "dir", "limit"}, "dataset")
        paths = find_mnist(ds_cfg.get("dir") or default_data_dir())
        if paths is None:
            raise ConfigError(
                f"dataset.dir: MNIST files not found under "
                f"{ds_cfg.get('dir') or default_data_dir()}"
            )
        train = load_idx(paths["train_images"], paths["train_labels"])
        test = load_idx(paths["test_images"], paths["test_labels"])
        limit = ds_cfg.get("limit")
        if limit is not None:
            limit = _positive_int(limit, "dataset.limit")
            train = train.subset(np.arange(min(limit, train.n)))
        return train, test
    if kind == "idx":
        _check_keys(
            ds_cfg, {"kind", "images", "labels", "test_images", "test_labels"}, "dataset"
        )
        try:
            train = load_idx(
                _require(ds_cfg, "images", "dataset"), _require(ds_cfg, "labels", "dataset")
            )
            test = None
            if "test_images" in ds_cfg:
                test = load_idx(ds_cfg["test_images"], _require(ds_cfg, "test_labels", "dataset"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        return train, test
    raise ConfigError(f"dataset.kind: unknown kind {kind!r}")


_TRAIN_KEYS = {
    "epochs", "batch_size", "learning_rate", "momentum", "lambda", "epsilon_zero",
    "loss", "shuffle", "block", "target_rate", "rounds",
}


def build_train_config(train_cfg: dict, seed: int) -> TrainConfig:
    _check_keys(train_cfg, _TRAIN_KEYS, "train")
    try:
        return TrainConfig(
            epochs=_positive_int(_require(train_cfg, "epochs", "train"), "train.epochs"),
            batch_size=_positive_int(
                _require(train_cfg, "batch_size", "train"), "train.batch_size"
            ),
            learning_rate=float(_require(train_cfg, "learning_rate", "train")),
            momentum=float(train_cfg.get("momentum", 0.9)),
            lam=float(train_cfg.get("lambda", 0.0)),
            eps_zero=float(train_cfg.get("epsilon_zero", 1e-6)),
            seed=seed,
            loss=train_cfg.get("loss", "softmax_cross_entropy"),
            shuffle=bool(train_cfg.get("shuffle", True)),
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc


# ---------------------------------------------------------------------------
# output writing (deterministic; wall clock only in run_info.json)
# ---------------------------------------------------------------------------


def _dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_info(net: Network, eval_ds: Dataset) -> dict:
    """Wall clock plus the inference path of each layer at the row count of
    the set the run evaluates on (``network.eval_paths``)."""
    return {"timestamp": time.time(), "eval_paths": eval_paths(net, eval_ds.n)}


def write_run_outputs(
    out_dir: str, config_path: str, records: list[MetricRecord], summary: dict, run_info: dict
):
    os.makedirs(out_dir, exist_ok=True)
    shutil.copyfile(config_path, os.path.join(out_dir, "config.json"))
    with open(os.path.join(out_dir, "metrics.ndjson"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_FIELDS)
        for rec in records:
            writer.writerow([repr(getattr(rec, f)) for f in METRIC_FIELDS])
    _dump_json(os.path.join(out_dir, "summary.json"), summary)
    _dump_json(os.path.join(out_dir, "run_info.json"), run_info)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"seed", "dataset", "model", "train"}, "config")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    train_ds, eval_ds = build_dataset(_require(cfg, "dataset", "config"), seed)
    tcfg = build_train_config(_require(cfg, "train", "config"), seed)
    train_section = cfg["train"]
    method = args.method
    if method == "kron":
        net = build_model(_require(cfg, "model", "config"), seed)
        try:
            net, records = train_kron(net, train_ds, tcfg, eval_data=eval_ds)
        except ValueError as exc:
            raise ConfigError(f"train: {exc}") from exc
        sparsity = net_mask_sparsity(net, tcfg.eps_zero)
    else:
        block = _parse_block(_require(train_section, "block", "train"), "train.block")
        net = build_model(_require(cfg, "model", "config"), seed, force_dense=True)
        try:
            if method == "group-lasso":
                net, records = train_group_lasso(net, train_ds, tcfg, block, eval_data=eval_ds)
            else:
                target = float(train_section.get("target_rate", 0.5))
                rounds = _positive_int(train_section.get("rounds", 1), "train.rounds")
                net, records = prune_blocks(
                    net, train_ds, tcfg, block, target, rounds, eval_data=eval_ds
                )
        except ValueError as exc:
            raise ConfigError(f"train: {exc}") from exc
        sparsity = dense_tile_sparsity(net, block, tcfg.eps_zero)
    final = records[-1]
    summary = {
        "method": method,
        "epochs": final.epoch,
        "accuracy": final.accuracy,
        "eval_loss": final.eval_loss,
        "train_loss": final.train_loss,
        "sparsity_rate": sparsity,
        "trainable_params": final.trainable_params,
        "forward_flops": final.forward_flops,
        "backward_flops": final.backward_flops,
        "seed": seed,
    }
    run_info = _run_info(net, eval_ds if eval_ds is not None else train_ds)
    write_run_outputs(args.out, args.config, records, summary, run_info)
    save_network(os.path.join(args.out, "checkpoint.kbn"), net)
    print(json.dumps(summary, sort_keys=True))
    return 0


_SELECT_KEYS = {
    "patterns", "rank", "lambda1_init", "lambda2_init", "lambda_increment",
    "increment_period_epochs", "max_epochs", "epsilon_group_rel",
    "finetune_epochs", "keep_l1_in_finetune",
}


def cmd_select_pattern(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"seed", "dataset", "model", "train", "select"}, "config")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    train_ds, eval_ds = build_dataset(_require(cfg, "dataset", "config"), seed)
    tcfg = build_train_config(_require(cfg, "train", "config"), seed)
    select_cfg = _require(cfg, "select", "config")
    _check_keys(select_cfg, _SELECT_KEYS, "select")

    model_cfg = _require(cfg, "model", "config")
    layers_cfg = _require(model_cfg, "layers", "model")
    layer_dims = []
    activations = []
    for idx, layer in enumerate(layers_cfg):
        path = f"model.layers[{idx}]"
        if not isinstance(layer, dict):
            raise ConfigError(f"{path}: must be an object")
        _check_keys(layer, {"kind", "activation", "m", "n"}, path)
        if layer.get("kind", "kron") != "kron":
            raise ConfigError(f"{path}.kind: pattern selection factorizes every layer")
        m = _positive_int(_require(layer, "m", path), f"{path}.m")
        n = _positive_int(_require(layer, "n", path), f"{path}.n")
        layer_dims.append((m, n))
        activations.append(layer.get("activation", "identity"))
    patterns_cfg = _require(select_cfg, "patterns", "select")
    if not isinstance(patterns_cfg, list) or len(patterns_cfg) < 2:
        raise ConfigError("select.patterns: need at least 2 patterns")
    blocks_per_pattern = []
    for k, blocks in enumerate(patterns_cfg):
        if not isinstance(blocks, list) or len(blocks) != len(layer_dims):
            raise ConfigError(f"select.patterns[{k}]: one [m2, n2] block per layer required")
        blocks_per_pattern.append(
            [_parse_block(b, f"select.patterns[{k}][{i}]") for i, b in enumerate(blocks)]
        )
    rank = _positive_int(select_cfg.get("rank", 1), "select.rank")
    try:
        pset = build_pattern_set(layer_dims, blocks_per_pattern, rank, activations, seed)
        scfg = SelectConfig(
            train=tcfg,
            lambda1_init=float(select_cfg.get("lambda1_init", 0.01)),
            lambda2_init=float(select_cfg.get("lambda2_init", 0.01)),
            lambda_increment=float(select_cfg.get("lambda_increment", 0.002)),
            increment_period_epochs=_positive_int(
                select_cfg.get("increment_period_epochs", 5), "select.increment_period_epochs"
            ),
            max_epochs=_positive_int(select_cfg.get("max_epochs", 50), "select.max_epochs"),
            epsilon_group_rel=float(select_cfg.get("epsilon_group_rel", 1e-3)),
            finetune_epochs=int(select_cfg.get("finetune_epochs", 5)),
            keep_l1_in_finetune=bool(select_cfg.get("keep_l1_in_finetune", True)),
        )
    except ValueError as exc:
        raise ConfigError(f"select: {exc}") from exc
    result = select_pattern(pset, train_ds, scfg)
    os.makedirs(args.out, exist_ok=True)
    shutil.copyfile(args.config, os.path.join(args.out, "config.json"))
    with open(os.path.join(args.out, "selection.ndjson"), "w") as fh:
        for rec in result.history:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    eval_section = {}
    if eval_ds is not None:
        from .train import eval_metrics

        eval_loss, accuracy = eval_metrics(result.net, eval_ds, tcfg.loss)
        eval_section = {"eval_loss": eval_loss, "accuracy": accuracy}

    summary = {
        "winner": result.winner,
        "winner_blocks": blocks_per_pattern[result.winner],
        "stop_epoch": result.stop_epoch,
        "lambda1_final": result.lambda1_final,
        "lambda2_final": result.lambda2_final,
        "group_norms": result.group_norms,
        "selection_params": selection_param_count(pset.shapes),
        "seed": seed,
        **eval_section,
    }
    _dump_json(os.path.join(args.out, "summary.json"), summary)
    run_info = _run_info(result.net, eval_ds if eval_ds is not None else train_ds)
    _dump_json(os.path.join(args.out, "run_info.json"), run_info)
    save_network(os.path.join(args.out, "checkpoint.kbn"), result.net)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_shape_opt(args) -> int:
    r_grid = tuple(int(v) for v in args.r_grid.split(",")) if args.r_grid else (1,)
    if any(r < 1 for r in r_grid):
        raise ConfigError("--r-grid: ranks must be positive")
    result = optimal_shape(args.m, args.n)
    rows = shape_report(args.m, args.n, r_grid)
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        print(
            json.dumps(
                {"best": list(result.best), "objective": result.objective,
                 "optimal_set": [list(t) for t in result.optimal_set]},
                sort_keys=True,
            )
        )
        return 0
    header = f"{'m1':>5} {'n1':>5} {'m2':>5} {'n2':>5} {'r':>3} {'params':>9} {'train_flops':>12} {'ceiling':>8} feasible"
    print(f"shape search for {args.m} x {args.n} (objective 2*m1*n1 + m2*n2)")
    print(header)
    for row in rows:
        print(
            f"{row['m1']:>5} {row['n1']:>5} {row['m2']:>5} {row['n2']:>5} {row['r']:>3} "
            f"{row['params']:>9} {row['train_flops']:>12} {row['rank_ceiling']:>8} "
            f"{'yes' if row['feasible'] else 'NO'}"
        )
    print(f"optimum: m1={result.best[0]} n1={result.best[1]} m2={result.best[2]} "
          f"n2={result.best[3]} objective={result.objective}")
    return 0


def flop_audit_case(section: dict):
    """Validate a ``flops`` config section and build its audit case: the
    analytic report, the instrumented tag prefix (``<prefix>_forward`` and
    ``<prefix>_backward``) and the random inputs drawn from ``seed``."""
    _check_keys(
        section, {"kind", "batch", "m", "n", "d_in", "d_hidden", "d_out",
                  "shape", "rank", "shape1", "rank1", "shape2", "rank2", "seed"},
        "flops",
    )
    kind = _require(section, "kind", "flops")
    nb = _positive_int(section.get("batch", 1), "flops.batch")
    rng = np.random.default_rng(int(section.get("seed", 0)))

    def parse_shape(key: str, rank_key: str) -> KronShape:
        sh = _require(section, key, "flops")
        if not isinstance(sh, list) or len(sh) != 4:
            raise ConfigError(f"flops.{key}: must be [m1, n1, m2, n2]")
        r = _positive_int(section.get(rank_key, 1), f"flops.{rank_key}")
        return KronShape(*(_positive_int(v, f"flops.{key}") for v in sh), r)

    if kind == "dense":
        m = _positive_int(_require(section, "m", "flops"), "flops.m")
        n = _positive_int(_require(section, "n", "flops"), "flops.n")
        report = dense_layer_report(nb, m, n)
        x, w, y = rng.standard_normal((nb, n)), rng.standard_normal((m, n)), rng.standard_normal((nb, m))
        return report, "dense", {"x": x, "w": w, "y": y}
    if kind == "kron":
        shape = parse_shape("shape", "rank")
        report = kron_layer_report(nb, shape)
        fac = random_factor(shape, rng)
        x, y = rng.standard_normal((nb, shape.n)), rng.standard_normal((nb, shape.m))
        return report, "kron", {"factor": fac, "x": x, "y": y}
    if kind == "two_layer_dense":
        d_in = _positive_int(_require(section, "d_in", "flops"), "flops.d_in")
        d_hidden = _positive_int(_require(section, "d_hidden", "flops"), "flops.d_hidden")
        d_out = _positive_int(_require(section, "d_out", "flops"), "flops.d_out")
        report = two_layer_dense_report(nb, d_in, d_hidden, d_out)
        x = rng.standard_normal((nb, d_in))
        w1, w2 = rng.standard_normal((d_hidden, d_in)), rng.standard_normal((d_out, d_hidden))
        y = rng.standard_normal((nb, d_out))
        return report, "two_layer_dense", {"x": x, "w1": w1, "w2": w2, "y": y}
    if kind == "two_layer_kron":
        s1 = parse_shape("shape1", "rank1")
        s2 = parse_shape("shape2", "rank2")
        try:
            report = two_layer_kron_report(nb, s1, s2)
        except ValueError as exc:
            raise ConfigError(f"flops: {exc}") from exc
        f1, f2 = random_factor(s1, rng), random_factor(s2, rng)
        x, y = rng.standard_normal((nb, s1.n)), rng.standard_normal((nb, s2.m))
        return report, "two_layer_kron", {"f1": f1, "f2": f2, "x": x, "y": y}
    raise ConfigError(f"flops.kind: unknown kind {kind!r}")


def cmd_flops(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"flops"}, "config")
    report, prefix, inputs = flop_audit_case(_require(cfg, "flops", "config"))
    inst_fwd = instrumented_count(f"{prefix}_forward", **inputs)
    inst_bwd = instrumented_count(f"{prefix}_backward", **inputs)
    payload = {
        "analytic": report.to_dict(),
        "instrumented": {"forward": inst_fwd, "backward": inst_bwd},
        "equal": inst_fwd == report.forward and inst_bwd == report.backward,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not payload["equal"]:
        raise RuntimeError("instrumented counter disagrees with the analytic formulas")
    return 0


def _load_matrix(path: str) -> np.ndarray:
    if path.endswith(".npy"):
        return np.asarray(np.load(path), dtype=np.float64)
    if path.endswith(".idx"):
        return np.asarray(read_idx(path), dtype=np.float64)
    return np.loadtxt(path, ndmin=2, dtype=np.float64)


def cmd_decompose(args) -> int:
    try:
        m2, n2 = (int(v) for v in args.block.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"--block: expected M2xN2, got {args.block!r}") from exc
    if not os.path.exists(args.infile):
        raise ConfigError(f"--in: file not found: {args.infile}")
    w = _load_matrix(args.infile)
    try:
        factor = reconstruct_from_blockwise(w, (m2, n2))
    except ValueError as exc:
        raise ConfigError(f"decompose: {exc}") from exc
    save_factor(args.out, factor)
    roundtrip = materialize(factor)
    report = {
        "rank": factor.shape.r,
        "nonzero_tiles": int(np.sum(factor.s != 0.0)),
        "total_tiles": factor.shape.m1 * factor.shape.n1,
        "params": count_params(factor.shape),
        "roundtrip_max_abs_error": float(np.max(np.abs(roundtrip - w))),
        "out": args.out,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronblock",
        description="Block-wise sparse training via masked Kronecker factorization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a trainer from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=("kron", "group-lasso", "prune"), default="kron")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select-pattern", help="one-shot block-size selection")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_select_pattern)

    p = sub.add_parser("shape-opt", help="parameter-minimizing shape search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-grid", default=None, help="comma-separated ranks, e.g. 1,2,4")
    p.add_argument("--json", action="store_true", help="emit ndjson records only")
    p.set_defaults(func=cmd_shape_opt)

    p = sub.add_parser("flops", help="analytic vs instrumented flop reports")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("decompose", help="exact block-wise decomposition of a matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--block", required=True, help="block size as M2xN2, e.g. 4x4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, OverRegularizedError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
