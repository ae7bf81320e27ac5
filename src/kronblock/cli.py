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
A bad ``--config`` (missing, a directory, not UTF-8 or not JSON) or an
``--out`` that cannot be made a directory ends with one line on stderr and
exit code 1; ``train`` and ``select-pattern`` make ``--out`` before reading
any data.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import os
import platform
import shutil
import sys
import time
from dataclasses import MISSING, dataclass, fields
from typing import get_type_hints

import numpy as np

from . import heap
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
    train_paths,
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
    TrainConfig,
    TrainingDivergedError,
    eval_metrics,
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


def _section(cfg: dict, key: str) -> dict:
    """The required top-level section ``cfg[key]``, which must be an object."""
    value = _require(cfg, key, "config")
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object")
    return value


def _check_keys(cfg: dict, allowed: set[str], path: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")


def _positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path}: must be a positive integer, got {value!r}")
    return value


def _nonnegative_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{path}: must be a non-negative integer, got {value!r}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: must be a boolean, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: must be a string, got {value!r}")
    return value


def _number(value, path: str) -> float:
    # NaN, infinities and integers that a float cannot hold exactly are not
    # numbers here
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max and float(value) == value:
            return float(value)
    raise ConfigError(f"{path}: must be a number, got {value!r}")


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


def _parse_block(value, path: str) -> tuple[int, int]:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return _positive_int(value[0], path), _positive_int(value[1], path)
        except ConfigError:
            pass
    raise ConfigError(f"{path}: must be [m2, n2] with positive integers")


def _bounded_rank(shape: KronShape, path: str) -> KronShape:
    """``shape`` if its rank is at most ``shape.full_rank``, the rank beyond
    which more terms add no expressive power; ``path`` names the rank field."""
    if shape.r > shape.full_rank:
        dims = [shape.m1, shape.n1, shape.m2, shape.n2]
        raise ConfigError(
            f"{path}: must be at most the full rank {shape.full_rank} of shape {dims}, "
            f"got {shape.r}"
        )
    return shape


def _parse_shape(section: dict, key: str, rank_key: str, path: str) -> KronShape:
    """``section[key]`` as ``[m1, n1, m2, n2]`` with the rank
    ``section[rank_key]`` (default 1, at most the full rank); ``path`` names
    the section."""
    sh = _require(section, key, path)
    if not isinstance(sh, list) or len(sh) != 4:
        raise ConfigError(f"{path}.{key}: must be [m1, n1, m2, n2]")
    rank = _positive_int(section.get(rank_key, 1), f"{path}.{rank_key}")
    shape = KronShape(*(_positive_int(v, f"{path}.{key}") for v in sh), rank)
    return _bounded_rank(shape, f"{path}.{rank_key}")


def _layer_shape(layer: dict, path: str) -> KronShape:
    if "shape" in layer:
        return _parse_shape(layer, "shape", "rank", path)
    rank = _positive_int(layer.get("rank", 1), f"{path}.rank")
    m = _positive_int(_require(layer, "m", path), f"{path}.m")
    n = _positive_int(_require(layer, "n", path), f"{path}.n")
    m2, n2 = _parse_block(_require(layer, "block", path), f"{path}.block")
    if m % m2 != 0 or n % n2 != 0:
        raise ConfigError(f"{path}.block: ({m2},{n2}) does not divide {m}x{n}")
    return _bounded_rank(KronShape(m // m2, n // n2, m2, n2, rank), f"{path}.rank")


def _model_layers(model_cfg: dict, model_keys: set[str], layer_keys: set[str]):
    """Check the keys of the ``model`` section, then yield ``(path, layer)``
    per layer with the layer's keys checked."""
    _check_keys(model_cfg, model_keys, "model")
    layers_cfg = _require(model_cfg, "layers", "model")
    if not isinstance(layers_cfg, list) or not layers_cfg:
        raise ConfigError("model.layers: must be a non-empty list")
    for idx, layer in enumerate(layers_cfg):
        path = f"model.layers[{idx}]"
        if not isinstance(layer, dict):
            raise ConfigError(f"{path}: must be an object")
        _check_keys(layer, layer_keys, path)
        yield path, layer


def _activation(layer: dict, path: str) -> str:
    activation = layer.get("activation", "identity")
    if activation not in ACTIVATIONS:
        raise ConfigError(f"{path}.activation: unknown activation {activation!r}")
    return activation


def model_specs(model_cfg: dict, force_dense: bool = False) -> list:
    """The checked layer specs of the ``model`` section, before anything is
    allocated."""
    specs = []
    for path, layer in _model_layers(
        model_cfg, {"layers", "init_seed"},
        {"kind", "activation", "shape", "rank", "m", "n", "block"},
    ):
        kind = _require(layer, "kind", path)
        activation = _activation(layer, path)
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
    return specs


def build_model(model_cfg: dict, specs: list, seed: int) -> Network:
    """The network of ``model_specs``; a net too large to allocate is a
    config error."""
    init_seed = _nonnegative_int(model_cfg.get("init_seed", seed), "model.init_seed")
    try:
        return build_network(specs, seed=init_seed)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"model.layers: {exc}") from exc


def build_dataset(ds_cfg: dict, seed: int) -> tuple[Dataset, Dataset | None]:
    """Returns (train, eval-or-None) per the dataset config; a teacher too
    large to allocate is a config error."""
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
        ds_seed = _nonnegative_int(ds_cfg.get("seed", seed), "dataset.seed")
        classification = _boolean(ds_cfg.get("classification", True), "dataset.classification")
        try:
            ds, _ = make_teacher_dataset(
                m, n, block, frac, n_samples,
                noise_sigma=noise_sigma,
                seed=ds_seed,
                classification=classification,
            )
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        if test_fraction > 0:
            try:
                return train_test_split(ds, test_fraction, seed=ds_seed)
            except ValueError as exc:
                raise ConfigError(f"dataset.test_fraction: {exc}") from exc
        return ds, None
    if kind == "mnist":
        _check_keys(ds_cfg, {"kind", "dir", "limit"}, "dataset")
        data_dir = ds_cfg.get("dir")
        if data_dir is not None:
            _string(data_dir, "dataset.dir")
        data_dir = data_dir or default_data_dir()
        paths = find_mnist(data_dir)
        if paths is None:
            raise ConfigError(f"dataset.dir: MNIST files not found under {data_dir}")
        pairs = [(paths[f"{part}_images"], paths[f"{part}_labels"]) for part in ("train", "test")]
    elif kind == "idx":
        _check_keys(
            ds_cfg, {"kind", "images", "labels", "test_images", "test_labels"}, "dataset"
        )
        prefixes = ("", "test_") if "test_images" in ds_cfg else ("",)
        pairs = [[_string(_require(ds_cfg, p + key, "dataset"), f"dataset.{p}{key}")
                  for key in ("images", "labels")] for p in prefixes]
    else:
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}")
    try:
        train, *test = [load_idx(*pair) for pair in pairs]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    limit = ds_cfg.get("limit")
    if limit is not None:
        limit = _positive_int(limit, "dataset.limit")
        train = train.subset(np.arange(min(limit, train.n)))
    return train, (test[0] if test else None)


def _check_fit(ds_cfg: dict, sets: list, loss: str, in_dim: int, out_dim: int) -> None:
    """The built ``sets`` fit the model's widths: a teacher's ``n`` and ``m``
    equal them; an IDX set has as many features, and no label past the
    outputs (``class_count``, which a subset shares, so no rows are gathered).
    Cross-entropy takes labels, the squared loss regression targets."""
    labelled = sets[0].class_count is not None
    if labelled != (loss == "softmax_cross_entropy"):
        targets = "class labels" if labelled else "regression targets"
        raise ConfigError(f"train.loss: {loss} does not fit a dataset of {targets}")
    if ds_cfg["kind"] == "teacher":
        for key, width, what in (("n", in_dim, "input"), ("m", out_dim, "output")):
            if ds_cfg[key] != width:
                raise ConfigError(
                    f"dataset.{key}: {ds_cfg[key]} does not match the model's {what} width {width}"
                )
        return
    for ds in sets:
        if ds.width != in_dim:
            raise ConfigError(
                f"dataset: images have {ds.width} pixels, but the model's input width is {in_dim}"
            )
        if ds.class_count > out_dim:
            raise ConfigError(
                f"dataset: labels reach {ds.class_count - 1}, past the model's output width {out_dim}"
            )


# Config keys of dataclass fields whose key is not the field name.
CONFIG_KEYS = {"lam": "lambda", "eps_zero": "epsilon_zero"}
# JSON type check per field annotation; the int fields are all counts.
_JSON_TYPES = {int: _nonnegative_int, float: _number, bool: _boolean, str: _string}


def _dataclass_section(cls, section: dict, name: str, extra: set[str], **fixed):
    """``cls(**fixed, ...)``, every other field read from config section ``name``
    under its key (``CONFIG_KEYS``, else the field name). The caller parses the
    ``extra`` keys, which are not fields; defaults and ranges are ``cls``'s own."""
    keys = {CONFIG_KEYS.get(f.name, f.name): f for f in fields(cls) if f.name not in fixed}
    _check_keys(section, set(keys) | extra, name)
    types = get_type_hints(cls)
    values = dict(fixed)
    for key, f in keys.items():
        if key in section:
            values[f.name] = _JSON_TYPES[types[f.name]](section[key], f"{name}.{key}")
        elif f.default is MISSING:
            raise ConfigError(f"{name}.{key}: required field is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_train_config(train_cfg: dict, seed: int) -> TrainConfig:
    return _dataclass_section(
        TrainConfig, train_cfg, "train", {"block", "target_rate", "rounds"}, seed=seed
    )


def build_select_config(select_cfg: dict, tcfg: TrainConfig) -> SelectConfig:
    return _dataclass_section(SelectConfig, select_cfg, "select", {"patterns", "rank"}, train=tcfg)


# ---------------------------------------------------------------------------
# output writing (deterministic; wall clock only in run_info.json)
# ---------------------------------------------------------------------------


def _dump_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS reports; None where it cannot be
    asked (no ``/proc/self/maps``, or no OpenBLAS among the loaded libraries)."""
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
                fn.argtypes, fn.restype = (), ctypes.c_int
                return int(fn())
    return None


def run_environment() -> dict:
    """What the bits and speed of a run may depend on: the Python, numpy and
    BLAS versions, the BLAS thread count and the heap policy."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "heap_policy": dict(heap.POLICY),
    }


def write_run(args, run: RunInputs, net: Network, name: str, records: list, summary: dict,
              paths: list) -> int:
    """Write the run directory and print the summary: config.json, the
    ``records`` as ``<name>.ndjson`` (and metrics.csv), summary.json (with the
    seed), run_info.json (wall clock, environment, the training ``paths`` and
    the inference paths at the eval set's rows) and the checkpoint of ``net``
    into ``args.out``, which ``run_inputs`` has made."""
    config_copy = os.path.join(args.out, "config.json")
    # a config re-run from its own run directory is already in place
    if not (os.path.exists(config_copy) and os.path.samefile(args.config, config_copy)):
        shutil.copyfile(args.config, config_copy)
    with open(os.path.join(args.out, f"{name}.ndjson"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    if name == "metrics":
        with open(os.path.join(args.out, "metrics.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRIC_FIELDS)
            for rec in records:
                writer.writerow([repr(getattr(rec, f)) for f in METRIC_FIELDS])
    summary = {**summary, "seed": run.seed}
    _dump_json(os.path.join(args.out, "summary.json"), summary)
    eval_ds = run.eval_ds if run.eval_ds is not None else run.train_ds
    _dump_json(os.path.join(args.out, "run_info.json"), {
        "timestamp": time.time(),
        "environment": run_environment(),
        "train_paths": paths,
        "eval_paths": eval_paths(net, eval_ds.n),
    })
    save_network(os.path.join(args.out, "checkpoint.kbn"), net)
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _config_seed(args, cfg: dict) -> int:
    """The master seed: ``--seed`` if given, else the config's ``seed``."""
    if args.seed is not None:
        return _nonnegative_int(args.seed, "--seed")
    return _nonnegative_int(cfg.get("seed", 0), "seed")


@dataclass(frozen=True)
class RunInputs:
    """What ``train`` and ``select-pattern`` read alike (``run_inputs``)."""

    cfg: dict
    seed: int
    train_ds: Dataset
    eval_ds: Dataset | None
    tcfg: TrainConfig
    block: tuple[int, int] | None
    target_rate: float
    rounds: int
    model: object  # the first value of the command's ``parse_model``

    @property
    def batch_rows(self) -> int:
        # rows of a full training batch (the last batch of an epoch may be smaller)
        return min(self.tcfg.batch_size, self.train_ds.n)


def run_inputs(args, sections: set[str], parse_model, block_required: bool = False) -> RunInputs:
    """The front end of ``train`` and ``select-pattern``: the config (top-level
    keys seed, dataset, model, train and ``sections``), seed, datasets,
    ``train`` section, and the model that ``parse_model(model_cfg)`` returns
    with its input and output widths, which the datasets must fit, before any
    net is allocated. ``train.block``, ``target_rate`` and ``rounds`` are read
    under every method, so no bad value passes unread; ``block`` is None when
    absent and not ``block_required``. The ``--out`` directory is made once
    the config is read, before any data, so an unusable one fails first."""
    cfg = load_config(args.config)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    _check_keys(cfg, {"seed", "dataset", "model", "train", *sections}, "config")
    seed = _config_seed(args, cfg)
    train_ds, eval_ds = build_dataset(_section(cfg, "dataset"), seed)
    train_section = _section(cfg, "train")
    tcfg = build_train_config(train_section, seed)
    block = None
    if block_required or "block" in train_section:
        block = _parse_block(_require(train_section, "block", "train"), "train.block")
    target = _number(train_section.get("target_rate", 0.5), "train.target_rate")
    rounds = _positive_int(train_section.get("rounds", 1), "train.rounds")
    model, in_dim, out_dim = parse_model(_section(cfg, "model"))
    sets = [ds for ds in (train_ds, eval_ds) if ds is not None]
    _check_fit(cfg["dataset"], sets, tcfg.loss, in_dim, out_dim)
    return RunInputs(cfg, seed, train_ds, eval_ds, tcfg, block, target, rounds, model)


def cmd_train(args) -> int:
    method = args.method

    def parse_model(model_cfg: dict):
        specs = model_specs(model_cfg, force_dense=method != "kron")
        return specs, specs[0].in_dim, specs[-1].out_dim

    run = run_inputs(args, set(), parse_model, block_required=method != "kron")
    net = build_model(run.cfg["model"], run.model, run.seed)
    try:
        if method == "kron":
            net, records = train_kron(net, run.train_ds, run.tcfg, eval_data=run.eval_ds)
        elif method == "group-lasso":
            net, records = train_group_lasso(
                net, run.train_ds, run.tcfg, run.block, eval_data=run.eval_ds
            )
        else:
            net, records = prune_blocks(
                net, run.train_ds, run.tcfg, run.block, run.target_rate, run.rounds,
                eval_data=run.eval_ds,
            )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc
    summary = records[-1].to_dict()
    summary["epochs"] = summary.pop("epoch")
    summary["method"] = method
    paths = train_paths(net, run.batch_rows)
    return write_run(args, run, net, "metrics", records, summary, paths)


def _select_layers(model_cfg: dict):
    """The ``(m, n)`` and activation of each layer of a ``select-pattern``
    model, with its input and output widths."""
    layer_dims, activations = [], []
    for path, layer in _model_layers(model_cfg, {"layers"}, {"kind", "activation", "m", "n"}):
        if layer.get("kind", "kron") != "kron":
            raise ConfigError(f"{path}.kind: pattern selection factorizes every layer")
        m = _positive_int(_require(layer, "m", path), f"{path}.m")
        n = _positive_int(_require(layer, "n", path), f"{path}.n")
        layer_dims.append((m, n))
        activations.append(_activation(layer, path))
    return (layer_dims, activations), layer_dims[0][1], layer_dims[-1][0]


def cmd_select_pattern(args) -> int:
    run = run_inputs(args, {"select"}, _select_layers)
    layer_dims, activations = run.model
    select_cfg = _section(run.cfg, "select")
    scfg = build_select_config(select_cfg, run.tcfg)
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
    for blocks in blocks_per_pattern:
        for (m, n), (m2, n2) in zip(layer_dims, blocks):
            if m % m2 == 0 and n % n2 == 0:  # build_pattern_set names a misfit block
                _bounded_rank(KronShape(m // m2, n // n2, m2, n2, rank), "select.rank")
    try:
        pset = build_pattern_set(layer_dims, blocks_per_pattern, rank, activations, run.seed)
    except ValueError as exc:
        raise ConfigError(f"select: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"model.layers: {exc}") from exc
    result = select_pattern(pset, run.train_ds, scfg)
    summary = {
        "winner": result.winner,
        "winner_blocks": blocks_per_pattern[result.winner],
        "stop_epoch": result.stop_epoch,
        "lambda1_final": result.lambda1_final,
        "lambda2_final": result.lambda2_final,
        "group_norms": result.group_norms,
        "selection_params": selection_param_count(pset.shapes),
    }
    if run.eval_ds is not None:
        summary["eval_loss"], summary["accuracy"] = eval_metrics(
            result.net, run.eval_ds, run.tcfg.loss
        )
    paths = [train_paths(net, run.batch_rows) for net in pset.nets]
    return write_run(args, run, result.net, "selection", result.history, summary, paths)


def cmd_shape_opt(args) -> int:
    _positive_int(args.m, "--m")
    _positive_int(args.n, "--n")
    try:
        r_grid = tuple(int(v) for v in args.r_grid.split(",")) if args.r_grid else (1,)
    except ValueError as exc:
        raise ConfigError(
            f"--r-grid: expected comma-separated integers, got {args.r_grid!r}"
        ) from exc
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


# The audit draws batch x width random inputs and runs one training step on
# them; exact counts need no more rows than this.
FLOP_AUDIT_MAX_BATCH = 4096


def flop_audit_case(section: dict):
    """Validate a ``flops`` config section and build its audit case: the
    analytic report, the instrumented tag prefix (``<prefix>_forward`` and
    ``<prefix>_backward``) and the random inputs drawn from ``seed``. Inputs
    too large to allocate are a config error."""
    _check_keys(
        section, {"kind", "batch", "m", "n", "d_in", "d_hidden", "d_out",
                  "shape", "rank", "shape1", "rank1", "shape2", "rank2", "seed"},
        "flops",
    )
    kind = _require(section, "kind", "flops")
    nb = _positive_int(section.get("batch", 1), "flops.batch")
    if nb > FLOP_AUDIT_MAX_BATCH:
        raise ConfigError(f"flops.batch: must be at most {FLOP_AUDIT_MAX_BATCH}, got {nb}")
    rng = np.random.default_rng(_nonnegative_int(section.get("seed", 0), "flops.seed"))
    normal = rng.standard_normal

    if kind == "dense":
        m = _positive_int(_require(section, "m", "flops"), "flops.m")
        n = _positive_int(_require(section, "n", "flops"), "flops.n")
        report = dense_layer_report(nb, m, n)

        def draw():
            return {"x": normal((nb, n)), "w": normal((m, n)), "y": normal((nb, m))}
    elif kind == "kron":
        shape = _parse_shape(section, "shape", "rank", "flops")
        report = kron_layer_report(nb, shape)

        def draw():
            fac = random_factor(shape, rng)
            return {"factor": fac, "x": normal((nb, shape.n)), "y": normal((nb, shape.m))}
    elif kind == "two_layer_dense":
        d_in = _positive_int(_require(section, "d_in", "flops"), "flops.d_in")
        d_hidden = _positive_int(_require(section, "d_hidden", "flops"), "flops.d_hidden")
        d_out = _positive_int(_require(section, "d_out", "flops"), "flops.d_out")
        report = two_layer_dense_report(nb, d_in, d_hidden, d_out)

        def draw():
            return {"x": normal((nb, d_in)), "w1": normal((d_hidden, d_in)),
                    "w2": normal((d_out, d_hidden)), "y": normal((nb, d_out))}
    elif kind == "two_layer_kron":
        s1 = _parse_shape(section, "shape1", "rank1", "flops")
        s2 = _parse_shape(section, "shape2", "rank2", "flops")
        try:
            report = two_layer_kron_report(nb, s1, s2)
        except ValueError as exc:
            raise ConfigError(f"flops: {exc}") from exc

        def draw():
            f1, f2 = random_factor(s1, rng), random_factor(s2, rng)
            return {"f1": f1, "f2": f2, "x": normal((nb, s1.n)), "y": normal((nb, s2.m))}
    else:
        raise ConfigError(f"flops.kind: unknown kind {kind!r}")
    try:
        return report, kind, draw()
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"flops: {exc}") from exc


def cmd_flops(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"flops"}, "config")
    report, prefix, inputs = flop_audit_case(_section(cfg, "flops"))
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
    """The real matrix in ``path``: ``.npy``, ``.idx``, else whitespace-separated text."""
    if path.endswith(".npy"):
        arr = np.load(path)
    elif path.endswith(".idx"):
        arr = read_idx(path)
    else:
        return np.loadtxt(path, ndmin=2, dtype=np.float64)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"expected a real array, got dtype {arr.dtype}")
    return np.asarray(arr, dtype=np.float64)


def cmd_decompose(args) -> int:
    try:
        m2, n2 = (int(v) for v in args.block.lower().split("x"))
    except ValueError:
        m2 = n2 = 0
    if m2 < 1 or n2 < 1:
        raise ConfigError(f"--block: expected M2xN2 with positive integers, got {args.block!r}")
    if not os.path.exists(args.infile):
        raise ConfigError(f"--in: file not found: {args.infile}")
    try:
        w = _load_matrix(args.infile)
    except (OSError, EOFError, ValueError) as exc:
        raise ConfigError(f"--in: {exc}") from exc
    try:
        factor = reconstruct_from_blockwise(w, (m2, n2))
    except ValueError as exc:
        raise ConfigError(f"decompose: {exc}") from exc
    try:
        save_factor(args.out, factor)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
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
