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
exit code 1; ``train`` and ``select-pattern`` make ``--out``, then check every
config section, before reading any data. The dataset's targets pick the
training loss: cross entropy for class labels, the squared loss for
regression targets.
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
import warnings
from dataclasses import MISSING, dataclass, fields, make_dataclass
from typing import Annotated, get_args, get_origin, get_type_hints

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
    tiled_shape,
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


def _shape(value, path: str) -> tuple[int, int, int, int]:
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(f"{path}: must be [m1, n1, m2, n2]")
    return tuple(_positive_int(v, path) for v in value)


def _activation(value, path: str) -> str:
    if value not in ACTIVATIONS:
        raise ConfigError(f"{path}: unknown activation {value!r}")
    return value


def _layer_list(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: must be a non-empty list")
    return value


def _patterns(value, path: str) -> list:
    """At least two patterns, each one that is a list read as its blocks."""
    if not isinstance(value, list) or len(value) < 2:
        raise ConfigError(f"{path}: need at least 2 patterns")
    return [[_parse_block(b, f"{path}[{k}][{i}]") for i, b in enumerate(blocks)]
            if isinstance(blocks, list) else blocks for k, blocks in enumerate(value)]


# The audit draws batch x width random inputs and runs one training step on
# them; exact counts need no more rows than this.
FLOP_AUDIT_MAX_BATCH = 4096


def _audit_batch(value, path: str) -> int:
    if _positive_int(value, path) > FLOP_AUDIT_MAX_BATCH:
        raise ConfigError(f"{path}: must be at most {FLOP_AUDIT_MAX_BATCH}, got {value}")
    return value


def _kron_shape(shape: KronShape, path: str) -> KronShape:
    """``shape`` if its rank is at most its full rank, beyond which more terms
    add no expressive power; ``path`` names the rank field."""
    if shape.r > shape.full_rank:
        dims = [shape.m1, shape.n1, shape.m2, shape.n2]
        raise ConfigError(f"{path}: must be at most the full rank {shape.full_rank} "
                          f"of shape {dims}, got {shape.r}")
    return shape


# Field annotations that carry their own JSON check; _JSON_TYPES checks the
# plain ones. The int fields are all counts or seeds; an object field is a
# section or a kind, which its own read checks.
Positive = Annotated[int, _positive_int]
Block = Annotated[tuple, _parse_block]
Shape = Annotated[tuple, _shape]
Activation = Annotated[str, _activation]
Layers = Annotated[list, _layer_list]
Patterns = Annotated[list, _patterns]
AuditBatch = Annotated[int, _audit_batch]
_JSON_TYPES = {int: _nonnegative_int, float: _number, bool: _boolean, str: _string,
               object: lambda value, path: value}
LEFT_OUT = object()  # a top-level section's default: found missing when it is read
# Config keys of dataclass fields whose key is not the field name.
CONFIG_KEYS = {"lam": "lambda", "eps_zero": "epsilon_zero"}


@functools.cache
def _check(hint):
    """The JSON check of a field annotation; ``X | None`` takes null too."""
    args = get_args(hint)
    if type(None) in args:
        check = _check(args[0])
        return lambda value, path: None if value is None else check(value, path)
    return hint.__metadata__[0] if get_origin(hint) is Annotated else _JSON_TYPES[hint]


@functools.cache
def _fields(cls) -> dict:
    """Config key (``CONFIG_KEYS``, else the field name) -> (field, annotation)
    of dataclass ``cls``; cached, as reading annotations takes ~100 us."""
    hints = get_type_hints(cls, include_extras=True)
    return {CONFIG_KEYS.get(f.name, f.name): (f, hints[f.name]) for f in fields(cls)}


def _dataclass_section(cls, section, name: str, also=(), **fixed):
    """``cls(**fixed, ...)``, every other field read from config section
    ``name`` under its key and checked by its annotation (``_check``); other
    keys may only be those of the ``also`` dataclasses, which other reads
    take. Top-level (``config``) values are named by their key alone."""
    if section is LEFT_OUT:
        raise ConfigError(f"config.{name}: required field is missing")
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be an object")
    keys = {key: fh for key, fh in _fields(cls).items() if fh[0].name not in fixed}
    unknown = set(section) - set(keys).union(*map(_fields, also))
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown field")
    prefix = "" if name == "config" else f"{name}."
    values = dict(fixed)
    for key, (f, hint) in keys.items():
        if key in section:
            values[f.name] = _check(hint)(section[key], prefix + key)
        elif f.default is MISSING:
            raise ConfigError(f"{name}.{key}: required field is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _kinded(head, kinds: dict, section, name: str, unknown: str):
    """``section`` read as ``kinds[kind][0]`` (the caller reads the kind's later
    dataclasses), after ``head`` (the keys every kind takes, ``kind`` first) is
    read among all kinds' keys: a key only another kind takes is unknown.
    ``unknown`` formats a bad kind's message."""
    kind = _dataclass_section(head, section, name, sum(kinds.values(), ())).kind
    for key, (cls, *later) in kinds.items():
        if kind == key:
            return _dataclass_section(cls, section, name, later)
    raise ConfigError(f"{name}.kind: " + unknown.format(kind))


def _schema(name: str, *bases, **keys):
    """Frozen dataclass ``name`` over ``bases``; a key gives ``(annotation, default)``."""
    specs = [(key, *spec) if isinstance(spec, tuple) else (key, spec) for key, spec in keys.items()]
    cls = make_dataclass(name, specs, bases=bases, frozen=True, kw_only=True)
    cls.__module__ = __name__
    return cls


# One frozen dataclass per config section and kind (_kinded): its fields are
# the keys, its annotations pick their checks, its defaults are the only ones;
# a default of None is the key left out, and JSON null is a value only of an
# ``X | None`` key. ``train``, ``select``, ``train``'s ``model`` and a two-layer
# kron audit take two schemas' keys each; top-level sections are read in turn.
SECTION = (object, LEFT_OUT)
TrainFile = _schema("TrainFile", seed=(int, 0), dataset=SECTION, train=SECTION, model=SECTION)
SelectFile = _schema("SelectFile", TrainFile, select=SECTION)
FlopsFile = _schema("FlopsFile", flops=SECTION)
DatasetKind = _schema("DatasetKind", kind=object)
TeacherData = _schema(
    "TeacherData", DatasetKind, m=Positive, n=Positive, block=Block,
    zero_tile_fraction=(float, 0.5), n_samples=(Positive, 512), noise_sigma=(float, 0.0),
    test_fraction=(float, 0.0), seed=(int, None), classification=(bool, True),
)  # seed None: the master seed
IdxData = _schema("IdxData", DatasetKind, images=str, labels=str,  # the test pair: both or none
                  test_images=(str, None), test_labels=(str, None))
MnistData = _schema("MnistData", DatasetKind, dir=(str | None, None), limit=(Positive | None, None))
Model = _schema("Model", layers=Layers)
ModelInit = _schema("ModelInit", init_seed=(int, None))  # read to build the net
Layer = _schema("Layer", kind=object, activation=(Activation, "identity"))
KronShapeLayer = _schema("KronShapeLayer", Layer, shape=Shape, rank=(Positive, 1))
KronBlockLayer = _schema("KronBlockLayer", Layer, rank=(Positive, 1), m=Positive, n=Positive,
                         block=Block)
DenseLayer = _schema("DenseLayer", Layer, m=Positive, n=Positive)
SelectKind = _schema("SelectKind", kind=(object, "kron"))  # a select-pattern layer's
SelectLayer = _schema("SelectLayer", SelectKind, m=Positive, n=Positive,
                      activation=(Activation, "identity"))
TrainMethod = _schema("TrainMethod", block=(Block, None), target_rate=(float, 0.5),
                      rounds=(Positive, 1))  # beside TrainConfig's keys, under every method
SelectPatterns = _schema("SelectPatterns", patterns=Patterns, rank=(Positive, 1))
FlopAudit = _schema("FlopAudit", kind=object, batch=(AuditBatch, 1), seed=(int, 0))
DenseAudit = _schema("DenseAudit", FlopAudit, m=Positive, n=Positive)
KronAudit = _schema("KronAudit", FlopAudit, shape=Shape, rank=(Positive, 1))
TwoLayerDenseAudit = _schema("TwoLayerDenseAudit", FlopAudit, d_in=Positive, d_hidden=Positive,
                             d_out=Positive)
TwoLayerKronAudit = _schema("TwoLayerKronAudit", FlopAudit, shape1=Shape, rank1=(Positive, 1))
SecondKronAudit = _schema("SecondKronAudit", shape2=Shape, rank2=(Positive, 1))  # after rank1's bound
DATASETS = {"teacher": (TeacherData,), "idx": (IdxData,), "mnist": (MnistData,)}
FLOP_AUDITS = {"dense": (DenseAudit,), "kron": (KronAudit,),
               "two_layer_dense": (TwoLayerDenseAudit,),
               "two_layer_kron": (TwoLayerKronAudit, SecondKronAudit)}


def _check_tiles(block, m: int, n: int, path: str, rank: int = 1) -> KronShape:
    """``factor.tiled_shape`` of an m x n matrix, its error naming the field
    ``path`` of ``block``."""
    try:
        return tiled_shape(m, n, block, rank)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _layer_shape(layer, path: str) -> KronShape:
    if isinstance(layer, KronShapeLayer):
        shape = KronShape(*layer.shape, layer.rank)
    else:
        shape = _check_tiles(layer.block, layer.m, layer.n, f"{path}.block", layer.rank)
    return _kron_shape(shape, f"{path}.rank")


def model_specs(model_cfg, force_dense: bool = False) -> list:
    """The checked layer specs of ``train``'s ``model`` section, before anything
    is allocated; a ``kron`` layer gives ``shape`` or ``m``, ``n`` and ``block``."""
    specs = []
    for i, raw in enumerate(_dataclass_section(Model, model_cfg, "model", (ModelInit,)).layers):
        path = f"model.layers[{i}]"
        kron = KronShapeLayer if isinstance(raw, dict) and "shape" in raw else KronBlockLayer
        layer = _kinded(Layer, {"kron": (kron,), "dense": (DenseLayer,)}, raw, path,
                        "must be 'kron' or 'dense', got {!r}")
        if layer.kind == "dense":
            specs.append(dense_spec(layer.m, layer.n, layer.activation))
            continue
        shape = _layer_shape(layer, path)
        specs.append(dense_spec(shape.m, shape.n, layer.activation) if force_dense
                     else kron_spec(shape, layer.activation))
    return specs


def build_model(model_cfg, specs: list, seed: int) -> Network:
    """The network of ``model_specs``; a net too large to allocate is a
    config error."""
    init_seed = _dataclass_section(ModelInit, model_cfg, "model", (Model,)).init_seed
    try:
        return build_network(specs, seed=seed if init_seed is None else init_seed)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"model.layers: {exc}") from exc


def build_dataset(ds, seed: int, in_dim: int, out_dim: int) -> tuple[Dataset, Dataset | None]:
    """Returns (train, eval-or-None) of the dataset schema ``ds``, which must
    fit the model's input and output widths: a teacher's ``n`` and ``m``
    equal them, checked before it is drawn; an IDX set has as many features,
    and no label past the outputs (``class_count``, checked before a
    ``limit`` gathers rows). A teacher too large to allocate is a config
    error."""
    if isinstance(ds, TeacherData):
        for key, width, what in (("n", in_dim, "input"), ("m", out_dim, "output")):
            if getattr(ds, key) != width:
                raise ConfigError(
                    f"dataset.{key}: {getattr(ds, key)} does not match the model's {what} width {width}"
                )
        ds_seed = seed if ds.seed is None else ds.seed
        try:
            train, _ = make_teacher_dataset(
                ds.m, ds.n, ds.block, ds.zero_tile_fraction, ds.n_samples,
                noise_sigma=ds.noise_sigma, seed=ds_seed, classification=ds.classification,
            )
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        if ds.test_fraction > 0:
            try:
                return train_test_split(train, ds.test_fraction, seed=ds_seed)
            except ValueError as exc:
                raise ConfigError(f"dataset.test_fraction: {exc}") from exc
        return train, None
    if isinstance(ds, MnistData):
        data_dir = ds.dir or default_data_dir()
        paths = find_mnist(data_dir)
        if paths is None:
            raise ConfigError(f"dataset.dir: MNIST files not found under {data_dir}")
        pairs = [(paths[f"{part}_images"], paths[f"{part}_labels"]) for part in ("train", "test")]
    else:
        test = (ds.test_images, ds.test_labels)
        if None in test and test != (None, None):
            raise ConfigError(f"dataset.test_{'images' if test[0] is None else 'labels'}: "
                              "required field is missing")
        pairs = [(ds.images, ds.labels)] + ([test] if test[0] is not None else [])
    try:
        train, *test = [load_idx(*pair) for pair in pairs]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    for data in (train, *test):
        if data.width != in_dim:
            raise ConfigError(
                f"dataset: images have {data.width} pixels, but the model's input width is {in_dim}"
            )
        if data.class_count > out_dim:
            raise ConfigError(
                f"dataset: labels reach {data.class_count - 1}, past the model's output width {out_dim}"
            )
    if isinstance(ds, MnistData) and ds.limit is not None:
        train = train.subset(np.arange(min(ds.limit, train.n)))
    return train, (test[0] if test else None)


def build_train_config(train_cfg, seed: int) -> TrainConfig:
    return _dataclass_section(TrainConfig, train_cfg, "train", (TrainMethod,), seed=seed)


def build_select_config(select_cfg, tcfg: TrainConfig) -> SelectConfig:
    return _dataclass_section(SelectConfig, select_cfg, "select", (SelectPatterns,), train=tcfg)


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


@dataclass(frozen=True)
class RunInputs:
    """What ``train`` and ``select-pattern`` read alike (``run_inputs``)."""

    cfg: TrainFile
    seed: int
    train_ds: Dataset
    eval_ds: Dataset | None
    tcfg: TrainConfig
    method: TrainMethod
    model: object  # the first value of the command's ``parse``

    @property
    def batch_rows(self) -> int:
        # rows of a full training batch (the last batch of an epoch may be smaller)
        return min(self.tcfg.batch_size, self.train_ds.n)


def run_inputs(args, file, parse) -> RunInputs:
    """The front end of ``train`` and ``select-pattern``. First the whole
    config: the top level ``file`` (whose ``seed`` is checked under ``--seed``
    too), the seed, the dataset section (a teacher's ``block`` must tile it),
    the ``train`` section (``TrainMethod``'s keys read under every method),
    and what ``parse(top, tcfg, method)`` reads of the command's own sections:
    the model, returned with its input and output widths. Then the datasets,
    which ``build_dataset`` fits to those widths. ``--out`` is made once the
    config file is read, so a bad one fails before any section is checked."""
    cfg = load_config(args.config)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    top = _dataclass_section(file, cfg, "config")
    seed = top.seed if args.seed is None else _nonnegative_int(args.seed, "--seed")
    dataset = _kinded(DatasetKind, DATASETS, top.dataset, "dataset", "unknown kind {!r}")
    if isinstance(dataset, TeacherData):
        _check_tiles(dataset.block, dataset.m, dataset.n, "dataset.block")
    tcfg = build_train_config(top.train, seed)
    method = _dataclass_section(TrainMethod, top.train, "train", (TrainConfig,))
    model, in_dim, out_dim = parse(top, tcfg, method)
    train_ds, eval_ds = build_dataset(dataset, seed, in_dim, out_dim)
    return RunInputs(top, seed, train_ds, eval_ds, tcfg, method, model)


def cmd_train(args) -> int:
    method = args.method

    def parse(top, _tcfg, method_cfg):
        # the dense baselines need a train.block that tiles every layer
        specs = model_specs(top.model, force_dense=method != "kron")
        if method != "kron":
            if method_cfg.block is None:
                raise ConfigError("train.block: required field is missing")
            for spec in specs:
                _check_tiles(method_cfg.block, spec.m, spec.n, "train.block")
        return specs, specs[0].in_dim, specs[-1].out_dim

    run = run_inputs(args, TrainFile, parse)
    net = build_model(run.cfg.model, run.model, run.seed)
    try:
        if method == "kron":
            net, records = train_kron(net, run.train_ds, run.tcfg, eval_data=run.eval_ds)
        elif method == "group-lasso":
            net, records = train_group_lasso(
                net, run.train_ds, run.tcfg, run.method.block, eval_data=run.eval_ds
            )
        else:
            net, records = prune_blocks(
                net, run.train_ds, run.tcfg, run.method.block, run.method.target_rate,
                run.method.rounds, eval_data=run.eval_ds,
            )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc
    summary = records[-1].to_dict()
    summary["epochs"] = summary.pop("epoch")
    summary["method"] = method
    paths = train_paths(net, run.batch_rows)
    return write_run(args, run, net, "metrics", records, summary, paths)


def _select_sections(top, tcfg, _method):
    """The ``select-pattern`` model and ``select`` section: the ``(m, n)`` and
    activation of each layer, the ``SelectConfig`` and the patterns, each one
    block per layer that tiles it at a rank within the bound; with the model's
    input and output widths."""
    layer_dims, activations = [], []
    for i, raw in enumerate(_dataclass_section(Model, top.model, "model").layers):
        layer = _kinded(SelectKind, {"kron": (SelectLayer,)}, raw, f"model.layers[{i}]",
                        "pattern selection factorizes every layer")
        layer_dims.append((layer.m, layer.n))
        activations.append(layer.activation)
    scfg = build_select_config(top.select, tcfg)
    select = _dataclass_section(SelectPatterns, top.select, "select", (SelectConfig,))
    for k, blocks in enumerate(select.patterns):
        if not isinstance(blocks, list) or len(blocks) != len(layer_dims):
            raise ConfigError(f"select.patterns[{k}]: one [m2, n2] block per layer required")
    for k, blocks in enumerate(select.patterns):
        for i, ((m, n), block) in enumerate(zip(layer_dims, blocks)):
            path = f"select.patterns[{k}][{i}]"
            _kron_shape(_check_tiles(block, m, n, path, select.rank), "select.rank")
    return (layer_dims, activations, scfg, select), layer_dims[0][1], layer_dims[-1][0]


def cmd_select_pattern(args) -> int:
    run = run_inputs(args, SelectFile, _select_sections)
    layer_dims, activations, scfg, select = run.model
    try:
        pset = build_pattern_set(layer_dims, select.patterns, select.rank, activations, run.seed)
    except ValueError as exc:
        raise ConfigError(f"select: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"model.layers: {exc}") from exc
    result = select_pattern(pset, run.train_ds, scfg)
    summary = {
        "winner": result.winner,
        "winner_blocks": select.patterns[result.winner],
        "stop_epoch": result.stop_epoch,
        "lambda1_final": result.lambda1_final,
        "lambda2_final": result.lambda2_final,
        "group_norms": result.group_norms,
        "selection_params": selection_param_count(pset.shapes),
    }
    if run.eval_ds is not None:
        summary["eval_loss"], summary["accuracy"] = eval_metrics(result.net, run.eval_ds)
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


def flop_audit_case(section):
    """Validate a ``flops`` config section and build its audit case: the
    analytic report, the instrumented tag prefix (``<prefix>_forward`` and
    ``<prefix>_backward``) and the random inputs drawn from ``seed``. Inputs
    too large to allocate are a config error."""
    case = _kinded(FlopAudit, FLOP_AUDITS, section, "flops", "unknown kind {!r}")
    nb = case.batch
    rng = np.random.default_rng(case.seed)
    normal = rng.standard_normal

    if case.kind == "dense":
        m, n = case.m, case.n
        report = dense_layer_report(nb, m, n)

        def draw():
            return {"x": normal((nb, n)), "w": normal((m, n)), "y": normal((nb, m))}
    elif case.kind == "kron":
        shape = _kron_shape(KronShape(*case.shape, case.rank), "flops.rank")
        report = kron_layer_report(nb, shape)

        def draw():
            fac = random_factor(shape, rng)
            return {"factor": fac, "x": normal((nb, shape.n)), "y": normal((nb, shape.m))}
    elif case.kind == "two_layer_dense":
        report = two_layer_dense_report(nb, case.d_in, case.d_hidden, case.d_out)

        def draw():
            d_in, d_hidden, d_out = case.d_in, case.d_hidden, case.d_out
            return {"x": normal((nb, d_in)), "w1": normal((d_hidden, d_in)),
                    "w2": normal((d_out, d_hidden)), "y": normal((nb, d_out))}
    else:
        s1 = _kron_shape(KronShape(*case.shape1, case.rank1), "flops.rank1")
        second = _dataclass_section(SecondKronAudit, section, "flops", (TwoLayerKronAudit,))
        s2 = _kron_shape(KronShape(*second.shape2, second.rank2), "flops.rank2")
        try:
            report = two_layer_kron_report(nb, s1, s2)
        except ValueError as exc:
            raise ConfigError(f"flops: {exc}") from exc

        def draw():
            f1, f2 = random_factor(s1, rng), random_factor(s2, rng)
            return {"f1": f1, "f2": f2, "x": normal((nb, s1.n)), "y": normal((nb, s2.m))}
    try:
        return report, case.kind, draw()
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"flops: {exc}") from exc


def cmd_flops(args) -> int:
    top = _dataclass_section(FlopsFile, load_config(args.config), "config")
    report, prefix, inputs = flop_audit_case(top.flops)
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
        with warnings.catch_warnings():  # cmd_decompose names an empty matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
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
    if w.ndim != 2 or not w.size:
        raise ConfigError(f"--in: expected a non-empty 2-D matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ConfigError("--in: matrix has non-finite entries")
    try:  # the block must tile the matrix
        factor = reconstruct_from_blockwise(w, (m2, n2))
    except ValueError as exc:
        raise ConfigError(f"--block: {exc}") from exc
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
