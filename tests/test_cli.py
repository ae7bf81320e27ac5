import json
import os
import pathlib
import re
import tempfile
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kronblock import KronShape, SelectConfig, TrainConfig, cli, write_idx
from kronblock.cli import CONFIG_KEYS, ConfigError, build_parser, main
from kronblock.flops import train_path

from conftest import run_fresh


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def teacher_train_config(**overrides):
    cfg = {
        "seed": 5,
        "dataset": {
            "kind": "teacher", "m": 8, "n": 16, "block": [2, 2],
            "zero_tile_fraction": 0.5, "n_samples": 128,
            "classification": True, "test_fraction": 0.25, "seed": 1,
        },
        "model": {
            "layers": [
                {"kind": "kron", "m": 8, "n": 16, "block": [2, 2], "rank": 2,
                 "activation": "identity"}
            ]
        },
        "train": {
            "epochs": 3, "batch_size": 32, "learning_rate": 0.1,
            "momentum": 0.9, "lambda": 0.01, "block": [2, 2],
        },
    }
    cfg.update(overrides)
    return cfg


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def test_train_kron_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", teacher_train_config())
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--method", "kron", "--out", str(out)]) == 0
    for name in ("config.json", "metrics.ndjson", "metrics.csv", "summary.json",
                 "checkpoint.kbn", "run_info.json"):
        assert (out / name).exists()
    summary = read_summary(out)
    assert summary["method"] == "kron"
    lines = (out / "metrics.ndjson").read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["epoch"] == 1


def test_train_linear_model_parameter_counts(tmp_path):
    # linear 784 -> 10 at shape (5, 392, 2, 2), rank 2
    cfg = teacher_train_config()
    cfg["dataset"] = {
        "kind": "teacher", "m": 10, "n": 784, "block": [2, 2],
        "zero_tile_fraction": 0.5, "n_samples": 64, "classification": True, "seed": 1,
    }
    cfg["model"] = {
        "layers": [{"kind": "kron", "shape": [5, 392, 2, 2], "rank": 2,
                    "activation": "identity"}]
    }
    cfg["train"]["epochs"] = 1
    path = write_config(tmp_path / "c.json", cfg)
    out_k = tmp_path / "kron"
    assert main(["train", "--config", path, "--method", "kron", "--out", str(out_k)]) == 0
    assert read_summary(out_k)["trainable_params"] == 5888
    out_g = tmp_path / "gl"
    assert main(["train", "--config", path, "--method", "group-lasso", "--out", str(out_g)]) == 0
    assert read_summary(out_g)["trainable_params"] == 7840


def test_train_group_lasso_and_prune(tmp_path):
    cfg = teacher_train_config()
    cfg["train"]["target_rate"] = 0.5
    cfg["train"]["rounds"] = 1
    path = write_config(tmp_path / "c.json", cfg)
    out = tmp_path / "gl"
    assert main(["train", "--config", path, "--method", "group-lasso", "--out", str(out)]) == 0
    out2 = tmp_path / "prune"
    assert main(["train", "--config", path, "--method", "prune", "--out", str(out2)]) == 0
    assert read_summary(out2)["sparsity_rate"] == 0.5


def test_train_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.json", teacher_train_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--method", "kron", "--out", str(out1)]) == 0
    assert main(["train", "--config", cfg, "--method", "kron", "--out", str(out2)]) == 0
    for name in ("metrics.ndjson", "metrics.csv", "summary.json", "checkpoint.kbn"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_kron_method_rejects_all_dense_model(tmp_path):
    cfg = teacher_train_config()
    cfg["model"] = {"layers": [{"kind": "dense", "m": 8, "n": 16}]}
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")]) == 1


def test_missing_dataset_path_fails_validation(tmp_path):
    cfg = teacher_train_config()
    cfg["dataset"] = {"kind": "idx", "images": "/nope/img.idx", "labels": "/nope/lab.idx"}
    path = write_config(tmp_path / "c.json", cfg)
    rc = main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")])
    assert rc != 0


@pytest.mark.parametrize("kind", ["idx", "mnist"])
def test_oversize_idx_dims_exit_1(tmp_path, capsys, kind):
    # IDX dims whose payload exceeds sys.maxsize end in exit code 1 and a
    # message naming the dims, never a traceback
    import struct

    big = 2**32 - 1
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for prefix in ("train", "t10k"):
        (data_dir / f"{prefix}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, big, big, big))
        (data_dir / f"{prefix}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x00000801, 1) + b"\x00")
    cfg = teacher_train_config()
    cfg["dataset"] = {"kind": "mnist", "dir": str(data_dir)} if kind == "mnist" else {
        "kind": "idx",
        "images": str(data_dir / "train-images-idx3-ubyte"),
        "labels": str(data_dir / "train-labels-idx1-ubyte"),
    }
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")]) == 1
    assert f"dims ({big}, {big}, {big})" in capsys.readouterr().err


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfg = teacher_train_config()
    cfg["train"]["lerning_rate"] = 0.1
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")]) == 1
    assert "lerning_rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value", [("zero_tile_fraction", "lots"), ("test_fraction", "x")]
)
def test_dataset_number_field_rejected(tmp_path, capsys, field, value):
    cfg = teacher_train_config()
    cfg["dataset"][field] = value
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: dataset.{field}: must be a number, got {value!r}\n"


@pytest.mark.parametrize(
    "path,value,expected",
    [
        ("train.shuffle", "false", "a boolean"),
        ("dataset.classification", "false", "a boolean"),
        ("select.keep_l1_in_finetune", "false", "a boolean"),
        ("seed", "abc", "a non-negative integer"),
        ("dataset.seed", -1, "a non-negative integer"),
        ("model.init_seed", "abc", "a non-negative integer"),
        ("select.finetune_epochs", 1.5, "a non-negative integer"),
        ("train.learning_rate", "0.1", "a number"),
        ("train.momentum", None, "a number"),
        ("select.lambda1_init", "x", "a number"),
        ("train.epsilon_zero", 2**53 + 1, "a number"),
    ],
)
def test_config_scalar_field_rejected(tmp_path, capsys, path, value, expected):
    # a wrong scalar type ends with exit code 1 and a one-line message naming
    # the field; it is never coerced ("false" is not true) or a traceback
    select = path.startswith("select.")
    cfg = select_config() if select else teacher_train_config()
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    cfg_path = write_config(tmp_path / "c.json", cfg)
    out = str(tmp_path / "x")
    if select:
        argv = ["select-pattern", "--config", cfg_path, "--out", out]
    else:
        argv = ["train", "--config", cfg_path, "--method", "kron", "--out", out]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: must be {expected}, got {value!r}\n"


@pytest.mark.parametrize(
    "path,value",
    [
        ("dataset.block", [True, 2]),
        ("model.layers[0].block", [2, True]),
        ("train.block", [True, 2]),
        ("select.patterns[0][0]", [2, True]),
    ],
)
def test_block_booleans_rejected(tmp_path, capsys, path, value):
    # a JSON boolean is not a tile size, although Python's True is the int 1
    select = path.startswith("select.")
    cfg = select_config() if select else teacher_train_config()
    if select:
        cfg["select"]["patterns"][0][0] = value
        argv = ["select-pattern"]
    elif path == "model.layers[0].block":
        cfg["model"]["layers"][0]["block"] = value
        argv = ["train", "--method", "kron"]
    else:
        section, key = path.split(".")
        cfg[section][key] = value
        argv = ["train", "--method", "group-lasso" if section == "train" else "kron"]
    argv += ["--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: must be [m2, n2] with positive integers\n"


CHECKED_BEFORE_DATA = {
    # case: (command, config edit, error line)
    "dataset.block": (["train", "--method", "kron"],
                      lambda cfg: cfg["dataset"].update(block=[3, 3]),
                      "dataset.block: (3,3) does not divide 8x16"),
    "train.block": (["train", "--method", "prune"],
                    lambda cfg: cfg["train"].update(block=[3, 3]),
                    "train.block: (3,3) does not divide 8x16"),
    "select.patterns[1][0]": (["select-pattern"],
                              lambda cfg: cfg["select"]["patterns"][1].__setitem__(0, [3, 3]),
                              "select.patterns[1][0]: (3,3) does not divide 16x32"),
    "missing train.block": (["train", "--method", "group-lasso"],
                            lambda cfg: cfg["train"].pop("block"),
                            "train.block: required field is missing"),
    "model.layers[0].block": (["train", "--method", "kron"],
                              lambda cfg: cfg["model"]["layers"][0].update(block=[3, 3]),
                              "model.layers[0].block: (3,3) does not divide 8x16"),
    "train.epochs": (["train", "--method", "kron"],
                     lambda cfg: cfg["train"].update(epochs=0),
                     "train: epochs must be >= 1"),
    "unknown train key": (["train", "--method", "kron"],
                          lambda cfg: cfg["train"].update(bogus=1),
                          "train.bogus: unknown field"),
}


@pytest.mark.parametrize("case", list(CHECKED_BEFORE_DATA))
def test_block_that_does_not_tile_names_its_field(tmp_path, capsys, monkeypatch, case):
    # a block that does not tile its layer or teacher is named by its field,
    # and it and every other config error end the run before the teacher is
    # drawn or any net is built
    def unreachable(*_args, **_kw):
        raise AssertionError("allocated before the config was checked")

    for name in ("build_network", "build_pattern_set", "make_teacher_dataset"):
        monkeypatch.setattr(cli, name, unreachable)
    argv, change, error = CHECKED_BEFORE_DATA[case]
    cfg = select_config() if argv[0] == "select-pattern" else teacher_train_config()
    change(cfg)
    argv = [*argv, "--config", write_config(tmp_path / "c.json", cfg),
            "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


# Every key of each config schema, valid: the dataclasses own the keys,
# defaults, ranges and field names. A section that two schemas read (train,
# select, train's model) or a kind's first read (the keys every kind takes,
# among those of all kinds) holds the keys of the others too.
TEACHER = {
    "kind": "teacher", "m": 8, "n": 16, "block": [2, 2], "zero_tile_fraction": 0.25,
    "n_samples": 64, "noise_sigma": 0.5, "test_fraction": 0.25, "seed": 2,
    "classification": False,
}
IDX = {"kind": "idx", "images": "a", "labels": "b", "test_images": "c", "test_labels": "d"}
MNIST = {"kind": "mnist", "dir": "data", "limit": 10}
KRON_SHAPE = {"kind": "kron", "activation": "relu", "shape": [4, 8, 2, 2], "rank": 2}
KRON_BLOCK = {"kind": "kron", "activation": "relu", "rank": 2, "m": 8, "n": 16, "block": [2, 2]}
DENSE = {"kind": "dense", "activation": "relu", "m": 8, "n": 16}
AUDITS = {
    "dense": {"kind": "dense", "batch": 2, "seed": 1, "m": 3, "n": 4},
    "kron": {"kind": "kron", "batch": 2, "seed": 1, "shape": [2, 3, 2, 2], "rank": 2},
    "two_layer_dense": {"kind": "two_layer_dense", "batch": 2, "seed": 1, "d_in": 3,
                        "d_hidden": 4, "d_out": 2},
    "two_layer_kron": {"kind": "two_layer_kron", "batch": 2, "seed": 1,
                       "shape1": [2, 3, 3, 2], "rank1": 2, "shape2": [2, 2, 2, 3], "rank2": 2},
}
FULL_SECTIONS = {
    "config": {"seed": 3, "dataset": {}, "train": {}, "model": {}},
    "config-select": {"seed": 3, "dataset": {}, "train": {}, "model": {}, "select": {}},
    "config-flops": {"flops": {}},
    "train": {
        "epochs": 2, "batch_size": 8, "learning_rate": 0.5, "momentum": 0.5, "lambda": 0.25,
        "epsilon_zero": 1e-3, "shuffle": False,
        "block": [2, 2], "target_rate": 0.25, "rounds": 2,
    },
    "select": {
        "lambda1_init": 0.5, "lambda2_init": 0.25, "lambda_increment": 0.125,
        "increment_period_epochs": 2, "max_epochs": 4, "epsilon_group_rel": 0.5,
        "finetune_epochs": 0, "keep_l1_in_finetune": False,
        "patterns": [[[2, 2]], [[4, 4]]], "rank": 2,
    },
    "dataset": {**TEACHER, **IDX, **MNIST},
    "teacher": TEACHER, "idx": IDX, "mnist": MNIST,
    "model": {"layers": [{}], "init_seed": 4},
    "layer": {**KRON_SHAPE, **KRON_BLOCK, **DENSE},
    "kron-shape-layer": KRON_SHAPE, "kron-block-layer": KRON_BLOCK, "dense-layer": DENSE,
    "select-layer": {"kind": "kron", "m": 8, "n": 16, "activation": "relu"},
    "flops": {key: value for audit in AUDITS.values() for key, value in audit.items()},
    **{f"flops-{kind}": audit for kind, audit in AUDITS.items()},
    "flops-second-kron": AUDITS["two_layer_kron"],
}
FULL_SECTIONS["train-method"] = FULL_SECTIONS["train"]
FULL_SECTIONS["select-patterns"] = FULL_SECTIONS["select"]
FULL_SECTIONS["model-init"] = FULL_SECTIONS["model"]
FULL_SECTIONS["select-kind"] = FULL_SECTIONS["select-layer"]
TCFG = TrainConfig(epochs=1, batch_size=1, learning_rate=0.1)
LAYERS = "model.layers[0]"
SECTION_SCHEMA = {
    # name: (dataclass, config path, fields the caller fixes, dataclasses
    # whose keys the section also holds)
    "config": (cli.TrainFile, "config", {}, ()),
    "config-select": (cli.SelectFile, "config", {}, ()),
    "config-flops": (cli.FlopsFile, "config", {}, ()),
    "train": (TrainConfig, "train", {"seed": 7}, (cli.TrainMethod,)),
    "train-method": (cli.TrainMethod, "train", {}, (TrainConfig,)),
    "select": (SelectConfig, "select", {"train": TCFG}, (cli.SelectPatterns,)),
    "select-patterns": (cli.SelectPatterns, "select", {}, (SelectConfig,)),
    "dataset": (cli.DatasetKind, "dataset", {}, sum(cli.DATASETS.values(), ())),
    "teacher": (cli.TeacherData, "dataset", {}, ()),
    "idx": (cli.IdxData, "dataset", {}, ()),
    "mnist": (cli.MnistData, "dataset", {}, ()),
    "model": (cli.Model, "model", {}, (cli.ModelInit,)),
    "model-init": (cli.ModelInit, "model", {}, (cli.Model,)),
    "layer": (cli.Layer, LAYERS, {},
              (cli.KronShapeLayer, cli.KronBlockLayer, cli.DenseLayer)),
    "kron-shape-layer": (cli.KronShapeLayer, LAYERS, {}, ()),
    "kron-block-layer": (cli.KronBlockLayer, LAYERS, {}, ()),
    "dense-layer": (cli.DenseLayer, LAYERS, {}, ()),
    "select-kind": (cli.SelectKind, LAYERS, {}, (cli.SelectLayer,)),
    "select-layer": (cli.SelectLayer, LAYERS, {}, ()),
    "flops": (cli.FlopAudit, "flops", {}, sum(cli.FLOP_AUDITS.values(), ())),
    **{f"flops-{kind}": (cls, "flops", {}, tuple(later))
       for kind, (cls, *later) in cli.FLOP_AUDITS.items()},
    "flops-second-kron": (cli.SecondKronAudit, "flops", {}, (cli.TwoLayerKronAudit,)),
}


# the fields a caller fixes: no key of any section
FIXED = {cls: set(fixed) for cls, _, fixed, _ in SECTION_SCHEMA.values()}


def config_keys(cls, fixed=None):
    """Config key -> field of the dataclass ``cls``, without its fixed fields."""
    fixed = FIXED[cls] if fixed is None else fixed
    return {CONFIG_KEYS.get(f.name, f.name): f for f in fields(cls) if f.name not in fixed}


def build_section(name, section):
    cls, path, fixed, also = SECTION_SCHEMA[name]
    return cli._dataclass_section(cls, section, path, also, **fixed)


def as_json(value):
    # a value as the config holds it: a block or shape tuple is a JSON list
    return json.loads(json.dumps(value))


def test_build_train_and_select_config_are_the_sections():
    train, select = FULL_SECTIONS["train"], FULL_SECTIONS["select"]
    assert cli.build_train_config(train, 7) == build_section("train", train)
    assert cli.build_select_config(select, TCFG) == build_section("select", select)


def test_every_schema_dataclass_is_covered():
    schemas = {cls for cls, *_ in SECTION_SCHEMA.values()}
    defined = {value for value in vars(cli).values()
               if isinstance(value, type) and value.__module__ == cli.__name__
               and hasattr(value, "__dataclass_fields__") and value is not cli.RunInputs}
    assert defined <= schemas


@pytest.mark.parametrize("name", sorted(SECTION_SCHEMA))
def test_section_keys_are_the_dataclass_fields(name):
    cls, path, fixed, also = SECTION_SCHEMA[name]
    keys = set(config_keys(cls, fixed))
    extra = set().union(*(config_keys(other) for other in also)) - keys
    section = FULL_SECTIONS[name]
    assert keys | extra == set(section)
    cfg = build_section(name, section)
    for key, f in config_keys(cls, fixed).items():
        assert as_json(getattr(cfg, f.name)) == section[key]
    # a field name that is not a key (aliased or fixed by the caller) is unknown
    for field_name in {f.name for f in fields(cls)} - keys:
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\.{field_name}: unknown field$"):
            build_section(name, {**section, field_name: 1})


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.floats(), st.text(max_size=6)
)


@pytest.mark.parametrize("name", sorted(SECTION_SCHEMA))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_section_builder_fuzz(name, data):
    # arbitrary JSON scalars in the fields, some fields left out: the builder
    # returns a config holding the given values, or ends in one ConfigError
    # line naming the section (a top-level value by its key alone); never
    # another exception
    cls, path, fixed, _ = SECTION_SCHEMA[name]
    keys = sorted(config_keys(cls, fixed))
    overrides = data.draw(st.dictionaries(st.sampled_from(keys), JSON_SCALARS, max_size=2))
    section = {**FULL_SECTIONS[name], **overrides}
    for key in data.draw(st.sets(st.sampled_from(keys), max_size=2)):
        del section[key]
    names = (f"{path}.", f"{path}:", *(f"{key}:" for key in keys if path == "config"))
    try:
        cfg = build_section(name, section)
    except ConfigError as exc:
        message = str(exc)
        assert message.startswith(names) and "\n" not in message
    else:
        assert isinstance(cfg, cls)
        for key, f in config_keys(cls, fixed).items():
            if key in section:  # an object field holds the very value, NaN too
                value = getattr(cfg, f.name)
                assert value is section[key] or as_json(value) == as_json(section[key])


@pytest.mark.parametrize(
    "command,section,value,message",
    [
        ("train", "dataset", 5, "dataset: must be an object"),
        ("train", "train", [1], "train: must be an object"),
        ("train", "model", [1], "model: must be an object"),
        ("select-pattern", "select", 5, "select: must be an object"),
        ("select-pattern", "model", {"layers": 5}, "model.layers: must be a non-empty list"),
        ("flops", "flops", 5, "flops: must be an object"),
    ],
)
def test_config_section_not_object_rejected(tmp_path, capsys, command, section, value, message):
    # a section of the wrong JSON type ends with exit code 1 and a one-line
    # message naming it, never a traceback
    cfg = {"train": teacher_train_config(), "select-pattern": select_config(), "flops": {}}[command]
    cfg[section] = value
    argv = [command, "--config", write_config(tmp_path / "c.json", cfg)]
    if command != "flops":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["foo", "init_seed"])
def test_select_pattern_rejects_unknown_model_field(tmp_path, capsys, key):
    # the pattern set is initialized from the master seed: select-pattern
    # takes no model.init_seed, and rejects it like any unknown field
    cfg = select_config()
    cfg["model"][key] = 0
    path = write_config(tmp_path / "s.json", cfg)
    assert main(["select-pattern", "--config", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: model.{key}: unknown field\n"


KRON_WITH_BOTH_FORMS = {"kind": "kron", "shape": [4, 8, 2, 2], "m": 999, "n": 5,
                        "block": [7, 7]}


@pytest.mark.parametrize(
    "command,section,value,message",
    [
        ("flops", "flops", {"kind": "dense", "m": 10, "n": 784, "shape": "garbage",
                            "rank": -3, "d_in": "x"}, "flops.d_in: unknown field"),
        ("kron", "layer", KRON_WITH_BOTH_FORMS, "model.layers[0].block: unknown field"),
        ("kron", "layer", {"kind": "kron", "shape": [4, 8, 2, 2], "n": 16},
         "model.layers[0].n: unknown field"),
        ("group-lasso", "layer", {"kind": "dense", "m": 8, "n": 16, "rank": 99,
                                  "shape": [1, 1, 1, 1], "block": [3, 3]},
         "model.layers[0].block: unknown field"),
        ("group-lasso", "layer", {"kind": "dense", "m": 8, "n": 16, "rank": 99},
         "model.layers[0].rank: unknown field"),
    ],
    ids=["flops-dense", "kron-shape-and-block", "kron-shape-and-n", "dense-kron-keys",
         "dense-rank"],
)
def test_keys_of_another_kind_rejected(tmp_path, capsys, command, section, value, message):
    # a key that only another kind takes, or a kron layer's m/n/block beside its
    # shape, ends with one line; each used to be accepted and never read
    if command == "flops":
        cfg, argv = {"flops": value}, ["flops"]
    else:
        cfg = teacher_train_config()
        cfg["model"]["layers"][0] = value
        argv = ["train", "--method", command, "--out", str(tmp_path / "x")]
    assert main([*argv, "--config", write_config(tmp_path / "c.json", cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_idx_test_labels_need_test_images(tmp_path, capsys):
    # test_labels without test_images used to be dropped, so the run evaluated
    # on the training set, even with no test_labels file
    cfg = teacher_train_config()
    cfg["dataset"] = {**_idx_files(tmp_path, "idx"), "test_labels": str(tmp_path / "missing")}
    cfg["model"]["layers"] = [{"kind": "kron", "m": 10, "n": 4, "block": [2, 2]}]
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: dataset.test_images: required field is missing\n"


def test_config_seed_checked_under_seed_option(tmp_path, capsys):
    # --seed used to skip the config's own seed, so the run's config.json
    # failed when run again
    path = write_config(tmp_path / "c.json", teacher_train_config(seed="not-a-seed"))
    assert main(["train", "--config", path, "--seed", "3", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: seed: must be a non-negative integer, got 'not-a-seed'\n"
    )


def test_missing_section_is_found_in_turn(tmp_path, capsys):
    # sections are read in turn: a bad dataset field is reported before a
    # train or model section that is left out
    cfg = teacher_train_config()
    cfg["dataset"]["classification"] = "false"
    del cfg["model"]
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: dataset.classification: must be a boolean, got 'false'\n"
    del cfg["dataset"]
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: config.dataset: required field is missing\n"


def test_run_info_records_eval_paths(tmp_path):
    # the eval set has 32 rows, where the cost model puts (4,8,2,2) r=2 on
    # the materialized path; the dense baselines report "dense"
    cfg = write_config(tmp_path / "c.json", teacher_train_config())
    for method, paths in (("kron", ["materialized"]), ("group-lasso", ["dense"])):
        out = tmp_path / method
        assert main(["train", "--config", cfg, "--method", method, "--out", str(out)]) == 0
        assert json.loads((out / "run_info.json").read_text())["eval_paths"] == paths


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_info_records_environment(tmp_path, threads):
    # a fresh process with OpenBLAS fixed at a thread count records its
    # versions, that thread count (None where no OpenBLAS can be asked) and
    # the heap policy
    import os
    import platform

    from kronblock import heap

    argv = ["train", "--config", write_config(tmp_path / "c.json", teacher_train_config()),
            "--method", "kron", "--out", str(tmp_path / "run")]
    code = "import json, sys\nfrom kronblock.cli import main\nsys.exit(main(json.loads(sys.argv[1])))"
    proc = run_fresh(code, json.dumps(argv), threads=threads)
    assert proc.returncode == 0, proc.stderr
    env = json.loads((tmp_path / "run" / "run_info.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["heap_policy"] == heap.POLICY
    if "openblas" in str(env["blas"]).lower() and os.path.exists("/proc/self/maps"):
        assert env["blas_threads"] == int(threads)
    else:
        assert env["blas_threads"] is None


def test_run_info_records_train_paths(tmp_path):
    # at the training batch of 32 rows the cost model puts (4,8,2,2) r=2 on the
    # materialized path; the dense baselines report "dense"
    cfg = write_config(tmp_path / "c.json", teacher_train_config())
    assert train_path(32, KronShape(4, 8, 2, 2, 2), with_dx=False) == "materialized"
    for method, paths in (("kron", ["materialized"]), ("prune", ["dense"])):
        out = tmp_path / method
        assert main(["train", "--config", cfg, "--method", method, "--out", str(out)]) == 0
        assert json.loads((out / "run_info.json").read_text())["train_paths"] == paths
    # select-pattern: one list per pattern, at the 32-row training batch
    path = write_config(tmp_path / "s.json", select_config())
    out = tmp_path / "sel"
    assert main(["select-pattern", "--config", path, "--out", str(out)]) == 0
    want = [[train_path(32, KronShape(16 // b, 32 // b, b, b, 2), with_dx=False)]
            for b in (2, 4, 8)]
    assert json.loads((out / "run_info.json").read_text())["train_paths"] == want


@pytest.mark.parametrize(
    "command,key,value,width",
    [
        ("train", "m", 10, "output width 8"),  # labels beyond the outputs
        ("train", "m", 4, "output width 8"),
        ("train", "n", 8, "input width 16"),
        ("select-pattern", "m", 8, "output width 16"),
    ],
)
def test_teacher_dims_must_match_model(tmp_path, capsys, command, key, value, width):
    cfg = teacher_train_config() if command == "train" else select_config()
    cfg["dataset"][key] = value
    path = write_config(tmp_path / "c.json", cfg)
    argv = [command, "--config", path, "--out", str(tmp_path / "x")]
    if command == "train":
        argv += ["--method", "kron"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: dataset.{key}: {value} does not match the model's {width}\n"
    )


def _idx_files(tmp_path, kind):
    """A 6-image 2x2 IDX pair whose labels reach 9, as a dataset of ``kind``:
    ``idx`` names the pair, ``mnist`` a directory holding it under the MNIST
    names, as both the training and the test set."""
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    images = np.arange(24, dtype=np.uint8).reshape(6, 2, 2)
    labels = np.array([0, 1, 2, 9, 3, 4], dtype=np.uint8)
    for prefix in ("train", "t10k"):
        write_idx(data_dir / f"{prefix}-images-idx3-ubyte", images)
        write_idx(data_dir / f"{prefix}-labels-idx1-ubyte", labels)
    if kind == "mnist":
        return {"kind": "mnist", "dir": str(data_dir)}
    return {"kind": "idx", "images": str(data_dir / "train-images-idx3-ubyte"),
            "labels": str(data_dir / "train-labels-idx1-ubyte")}


WIDTH_CASES = {
    # model (m, n): the line the run ends with
    (4, 4): "dataset: labels reach 9, past the model's output width 4",
    (10, 8): "dataset: images have 4 pixels, but the model's input width is 8",
}


@pytest.mark.parametrize("kind", ["idx", "mnist"])
@pytest.mark.parametrize("dims", sorted(WIDTH_CASES))
@pytest.mark.parametrize("command", ["kron", "group-lasso", "select-pattern"])
def test_dataset_must_fit_model_widths(tmp_path, capsys, kind, dims, command):
    # an IDX set whose labels reach past the model's outputs, or whose images
    # are narrower than its input, ends with exit code 1 and one line before
    # any net is allocated; it used to end in an IndexError or ValueError
    # traceback from the first training step
    m, n = dims
    if command == "select-pattern":
        cfg = select_config()
        cfg["model"]["layers"] = [{"kind": "kron", "m": m, "n": n}]
        cfg["select"]["patterns"] = [[[2, 2]], [[1, 2]]]
        argv = ["select-pattern"]
    else:
        cfg = teacher_train_config()
        cfg["model"]["layers"] = [{"kind": "kron", "m": m, "n": n, "block": [2, 2]}]
        argv = ["train", "--method", command]
    cfg["dataset"] = _idx_files(tmp_path, kind)
    argv += ["--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {WIDTH_CASES[dims]}\n"


@pytest.mark.parametrize("classification,loss", [
    (True, "squared_frobenius"),
    (False, "softmax_cross_entropy"),
])
@pytest.mark.parametrize("command", ["train", "select-pattern"])
def test_loss_key_is_unknown(tmp_path, capsys, command, classification, loss):
    # the dataset's targets pick the loss, so a train.loss key is rejected
    # like any unknown field, whether or not it names the loss they pick
    cfg = teacher_train_config() if command == "train" else select_config()
    cfg["dataset"]["classification"] = classification
    cfg["train"]["loss"] = loss
    path = write_config(tmp_path / "c.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: train.loss: unknown field\n"


@pytest.mark.parametrize("key,value", [("block", "mnist"), ("target_rate", [1]), ("rounds", -1)])
@pytest.mark.parametrize("command", ["kron", "select-pattern"])
def test_method_fields_read_under_every_command(tmp_path, capsys, command, key, value):
    # train.block, train.target_rate and train.rounds are read under every
    # method and by select-pattern: a bad value ends with the line prune
    # prints, never passes unread
    cfg = teacher_train_config()
    cfg["train"][key] = value
    argv = ["--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path / "x")]
    assert main(["train", "--method", "prune", *argv]) == 1
    want = capsys.readouterr().err
    assert want.startswith(f"error: train.{key}: ") and want.count("\n") == 1
    if command == "select-pattern":
        cfg = select_config()
        cfg["train"][key] = value
        argv = ["select-pattern", "--config", write_config(tmp_path / "s.json", cfg),
                "--out", str(tmp_path / "x")]
    else:
        argv = ["train", "--method", "kron", *argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == want


@pytest.mark.parametrize(
    "dataset,field",
    [
        ({"kind": "idx", "images": 5, "labels": "labels.idx"}, "images"),
        ({"kind": "idx", "images": "images.idx", "labels": ["labels.idx"]}, "labels"),
        ({"kind": "idx", "images": "images.idx", "labels": "labels.idx", "test_images": 0,
          "test_labels": "t.idx"}, "test_images"),
        ({"kind": "mnist", "dir": 5}, "dir"),
    ],
)
def test_dataset_paths_must_be_strings(tmp_path, capsys, dataset, field):
    # an integer path would open that file descriptor of the process
    cfg = teacher_train_config()
    cfg["dataset"] = dataset
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset.{field}: must be a string, got ")
    assert err.count("\n") == 1


def test_flop_audit_batch_is_capped(tmp_path, capsys):
    from kronblock.cli import FLOP_AUDIT_MAX_BATCH

    for batch, code in ((10**12, 1), (FLOP_AUDIT_MAX_BATCH + 1, 1), (FLOP_AUDIT_MAX_BATCH, 0)):
        path = write_config(tmp_path / "f.json",
                            {"flops": {"kind": "dense", "m": 2, "n": 3, "batch": batch}})
        assert main(["flops", "--config", path]) == code
    assert capsys.readouterr().err == "".join(
        f"error: flops.batch: must be at most {FLOP_AUDIT_MAX_BATCH}, got {batch}\n"
        for batch in (10**12, FLOP_AUDIT_MAX_BATCH + 1)
    )


@pytest.mark.parametrize(
    "section",
    [
        {"kind": "dense", "m": 2**40, "n": 2**40},
        {"kind": "kron", "shape": [2**40, 2**40, 1, 1], "rank": 1},
        {"kind": "two_layer_dense", "d_in": 2**40, "d_hidden": 2**40, "d_out": 2**40},
        {"kind": "two_layer_kron", "shape1": [2**40, 2**40, 1, 1], "rank1": 1,
         "shape2": [1, 2**40, 1, 1], "rank2": 1},
    ],
    ids=["dense", "kron", "two_layer_dense", "two_layer_kron"],
)
def test_flop_audit_oversized_widths(tmp_path, capsys, section):
    # widths of 2**40, whose inputs numpy refuses to allocate (8 TiB and more),
    # end with exit code 1 and one line, not a traceback
    path = write_config(tmp_path / "f.json", {"flops": section})
    assert main(["flops", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flops: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "select-pattern", "flops"])
@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, command, case):
    # a --config that cannot be read as text ends with one line naming it
    if case == "directory":
        path, message = tmp_path, "Is a directory"
    else:
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        message = "not UTF-8 text ("
    argv = [command, "--config", str(path)]
    if command != "flops":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "select-pattern"])
def test_out_is_checked_before_the_run(tmp_path, capsys, command):
    # an --out that names a file ends with one line before any data is read:
    # no summary is printed
    cfg = teacher_train_config() if command == "train" else select_config()
    out = tmp_path / "taken"
    out.write_text("")
    argv = [command, "--config", write_config(tmp_path / "c.json", cfg), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1


def _oversized_config(case):
    # sizes of at least 2**40 values, which numpy refuses to allocate at once
    cfg = teacher_train_config()
    if case == "input_width":
        cfg["model"]["layers"][0]["n"] = 10**12
    elif case == "hidden_width":
        cfg["model"]["layers"] = [
            {"kind": "kron", "m": 2**40, "n": 16, "block": [2, 2], "activation": "relu"},
            {"kind": "kron", "m": 8, "n": 2**40, "block": [2, 2]},
        ]
    else:
        cfg["dataset"]["n_samples"] = 10**12
    return cfg


OVERSIZED_MESSAGES = {
    "input_width": "dataset.n: 16 does not match the model's input width 1000000000000\n",
    "hidden_width": "model.layers: Unable to allocate ",
    "n_samples": "dataset: Unable to allocate ",
}


@pytest.mark.parametrize("method", ["kron", "group-lasso", "prune"])
@pytest.mark.parametrize("case", sorted(OVERSIZED_MESSAGES))
def test_oversized_config_is_a_config_error(tmp_path, capsys, method, case):
    # a model or teacher too large to allocate ends with exit code 1 and one
    # line naming the field, not a MemoryError traceback; the teacher's widths
    # are checked before the model is allocated
    path = write_config(tmp_path / "c.json", _oversized_config(case))
    argv = ["train", "--config", path, "--method", method, "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {OVERSIZED_MESSAGES[case]}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oversized_select_model_is_a_config_error(tmp_path, capsys):
    cfg = select_config()
    cfg["model"]["layers"] = [{"kind": "kron", "m": 2**40, "n": 32, "activation": "relu"},
                              {"kind": "kron", "m": 16, "n": 2**40}]
    cfg["select"]["patterns"] = [[[2, 2], [2, 2]], [[4, 4], [4, 4]]]
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["select-pattern", "--config", path, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model.layers: Unable to allocate ") and err.count("\n") == 1


def _overflow_config(command):
    # widths whose m1*n1*r is past the largest float, so the factor's init
    # scale (m1*n1*r) ** -0.25 overflows before anything is allocated
    if command == "flops":
        return {"flops": {"kind": "kron", "shape": [10**160, 10**160, 1, 1], "rank": 1}}
    cfg = select_config()
    cfg["dataset"].update(m=4, n=8)
    if command == "train":
        cfg["model"]["layers"] = [
            {"kind": "kron", "shape": [10**320, 1, 1, 8], "rank": 1, "activation": "relu"},
            {"kind": "kron", "shape": [4, 10**320, 1, 1], "rank": 1},
        ]
        del cfg["select"]
    else:
        cfg["model"]["layers"] = [{"kind": "kron", "m": 10**320, "n": 8, "activation": "relu"},
                                  {"kind": "kron", "m": 4, "n": 10**320}]
        cfg["select"]["patterns"] = [[[2, 2], [2, 2]], [[4, 4], [4, 4]]]
    return cfg


@pytest.mark.parametrize(
    "command, field", [("flops", "flops"), ("train", "model.layers"),
                       ("select-pattern", "model.layers")]
)
def test_init_scale_overflow_is_a_config_error(tmp_path, capsys, command, field):
    # an OverflowError of the init scale ends like a MemoryError: exit code 1
    # and one line naming the field, not a traceback
    argv = [command, "--config", write_config(tmp_path / "c.json", _overflow_config(command))]
    if command != "flops":
        argv += ["--out", str(tmp_path / "x")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


# Config fields the whole-config fuzz mutates, as key paths into
# teacher_train_config(); whole sections and the layer list are fields too.
FUZZ_FIELDS = (
    ("seed",), ("dataset",), ("model",), ("train",), ("model", "layers"),
    ("model", "layers", 0),
    *(("dataset", key) for key in teacher_train_config()["dataset"]),
    *(("model", "layers", 0, key) for key in teacher_train_config()["model"]["layers"][0]),
    *(("train", key) for key in teacher_train_config()["train"]),
    ("train", "target_rate"), ("train", "rounds"), ("model", "init_seed"),
)
ABSURD_SIZES = (2**40, 10**12)
FUZZ_VALUES = st.one_of(
    st.sampled_from([0, -1, 0.5, 1, 2, 3, 4, 16, *ABSURD_SIZES]),
    st.sampled_from([None, True, False, "", "x", "relu", "kron", "dense", "teacher",
                     "mnist", "squared_frobenius", "softmax_cross_entropy"]),
    st.lists(st.sampled_from([-1, 0, 1, 2, 4, 2**40]), max_size=3),
    st.dictionaries(st.sampled_from(["a", "kind"]), st.integers(0, 2), max_size=1),
)
# fields whose size sets how long an accepted config trains: small values only
TRAINING_LENGTH = {("train", "epochs"), ("train", "rounds")}


def _mutated(mutations, base=teacher_train_config, length=TRAINING_LENGTH, small=3):
    # ``base()`` with each (path, value) set; an absurd training length is ``small``
    cfg = base()
    for path, value in mutations:
        if path in length and value in ABSURD_SIZES:
            value = small
        try:
            section = cfg
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation replaced a section on the path
    return cfg


@pytest.mark.parametrize("method", ["kron", "group-lasso", "prune"])
@given(mutations=st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), FUZZ_VALUES),
                          min_size=1, max_size=2))
@example(mutations=[(("model", "layers", 0, "n"), 10**12)])
@example(mutations=[(("dataset", "n_samples"), 10**12)])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_whole_config_fuzz(capsys, method, mutations):
    # one or two fields of a valid config set to JSON values of any type or
    # an absurd size: the run ends with exit code 0, 1 or 2, and on 1 or 2
    # with exactly one line on stderr, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp) / "c.json", _mutated(mutations))
        code = main(["train", "--config", path, "--method", method,
                     "--out", os.path.join(tmp, "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err


def _rank_case(command, field, rank):
    # a config of ``command`` whose ``field`` holds ``rank``
    if command == "flops":
        section = {"kind": "kron", "shape": [4, 8, 2, 2], "rank": 1}
        if field != "rank":
            section = {"kind": "two_layer_kron", "shape1": [4, 8, 2, 2], "rank1": 1,
                       "shape2": [2, 2, 2, 4], "rank2": 1}
        section[field] = rank
        return {"flops": section}
    if command == "select-pattern":
        cfg = select_config()
        cfg["select"]["rank"] = rank
        return cfg
    cfg = teacher_train_config()
    if field == "shape":
        cfg["model"]["layers"][0] = {"kind": "kron", "shape": [4, 8, 2, 2]}
    cfg["model"]["layers"][0]["rank"] = rank
    return cfg


@pytest.mark.parametrize(
    "command,field,where,shape,full",
    [
        ("train", "block", "model.layers[0].rank", [4, 8, 2, 2], 4),
        ("train", "shape", "model.layers[0].rank", [4, 8, 2, 2], 4),
        ("select-pattern", "rank", "select.rank", [8, 16, 2, 2], 4),
        ("flops", "rank", "flops.rank", [4, 8, 2, 2], 4),
        ("flops", "rank1", "flops.rank1", [4, 8, 2, 2], 4),
        ("flops", "rank2", "flops.rank2", [2, 2, 2, 4], 4),
    ],
)
def test_rank_above_full_rank_rejected(tmp_path, capsys, command, field, where, shape, full):
    # more terms than min(m1*n1, m2*n2) add nothing; a huge rank used to end in
    # an OverflowError traceback from the factor init
    argv = [command, "--config", ""]
    if command != "flops":
        argv += ["--out", str(tmp_path / "x")]
    if command == "train":
        argv += ["--method", "kron"]
    for rank in (full + 1, 10**400):
        argv[2] = write_config(tmp_path / "c.json", _rank_case(command, field, rank))
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {where}: must be at most the full rank {full} of shape {shape}, "
            f"got {rank}\n"
        )


def test_two_layer_kron_rank1_bound_before_second_layer(tmp_path, capsys):
    # the first layer's rank bound is checked before the second layer is read
    for shape2 in ("garbage", [2, 2, 0, 4], None):
        section = {"kind": "two_layer_kron", "shape1": [4, 8, 2, 2], "rank1": 5,
                   "shape2": shape2, "rank2": -1}
        if shape2 is None:
            del section["shape2"]
        path = write_config(tmp_path / "f.json", {"flops": section})
        assert main(["flops", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "error: flops.rank1: must be at most the full rank 4 of shape [4, 8, 2, 2], got 5\n"
        )


def test_rank_at_full_rank_accepted(tmp_path, capsys):
    for field in ("rank", "rank1", "rank2"):
        path = write_config(tmp_path / "f.json", _rank_case("flops", field, 4))
        assert main(["flops", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["equal"] is True


def test_divergence_exit_code(tmp_path):
    cfg = teacher_train_config()
    cfg["dataset"]["classification"] = False
    cfg["train"]["learning_rate"] = 10.0
    cfg["train"]["epochs"] = 30
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command", [["train", "--method", "kron"],
                                     ["train", "--method", "group-lasso"],
                                     ["train", "--method", "prune"],
                                     ["select-pattern"]])
def test_float_overflow_ends_with_one_line(tmp_path, capsys, command):
    # a learning rate that overflows the first update: one runtime error
    # line and exit 2, with no numpy warning before it
    cfg = select_config() if command[0] == "select-pattern" else teacher_train_config()
    cfg["train"]["learning_rate"] = 1e308
    path = write_config(tmp_path / "c.json", cfg)
    argv = [command[0], "--config", path, *command[1:], "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and err.count("\n") == 1, err


def select_config():
    return {
        "seed": 3,
        "dataset": {
            "kind": "teacher", "m": 16, "n": 32, "block": [2, 2],
            "zero_tile_fraction": 0.6, "n_samples": 128,
            "classification": True, "seed": 2,
        },
        "model": {"layers": [{"kind": "kron", "m": 16, "n": 32, "activation": "identity"}]},
        "train": {"epochs": 1, "batch_size": 32, "learning_rate": 0.1, "momentum": 0.9},
        "select": {
            "patterns": [[[2, 2]], [[4, 4]], [[8, 8]]], "rank": 2,
            "max_epochs": 6, "finetune_epochs": 1,
        },
    }


def test_select_pattern_outputs(tmp_path):
    path = write_config(tmp_path / "s.json", select_config())
    out = tmp_path / "sel"
    assert main(["select-pattern", "--config", path, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["winner"] in (0, 1, 2)
    assert summary["selection_params"] == sum(
        # one 16x32 layer per pattern at rank 2
        s + 2 * (s + b) for s, b in ((128, 4), (32, 16), (8, 64))
    )
    # no held-out set: the eval paths are at the training set's 128 rows
    (m2, n2), = summary["winner_blocks"]
    want = train_path(128, KronShape(16 // m2, 32 // n2, m2, n2, 2), False)
    assert json.loads((out / "run_info.json").read_text())["eval_paths"] == [want]
    records = [json.loads(l) for l in (out / "selection.ndjson").read_text().splitlines()]
    assert {r["k"] for r in records} == {0, 1, 2}
    assert all({"epoch", "k", "group_norm", "l1_norm"} <= set(r) for r in records)


def test_select_pattern_defaults_match_schedule(tmp_path):
    cfg = select_config()
    del cfg["select"]["max_epochs"]
    cfg["select"]["finetune_epochs"] = 0
    path = write_config(tmp_path / "s.json", cfg)
    out = tmp_path / "sel"
    assert main(["select-pattern", "--config", path, "--out", str(out)]) == 0
    summary = read_summary(out)
    # lambda defaults 0.01 escalated by 0.002 every 5 epochs
    increments = (summary["stop_epoch"] - 1) // 5
    assert summary["lambda1_final"] == pytest.approx(0.01 + 0.002 * increments)


@pytest.mark.parametrize("command", ["train", "select-pattern"])
def test_unknown_activation_names_the_layer(tmp_path, capsys, command):
    cfg = teacher_train_config() if command == "train" else select_config()
    cfg["model"]["layers"][0]["activation"] = "tanh"
    path = write_config(tmp_path / "c.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: model.layers[0].activation: unknown activation 'tanh'\n"
    )


def test_select_rejects_single_pattern(tmp_path):
    cfg = select_config()
    cfg["select"]["patterns"] = [[[2, 2]]]
    path = write_config(tmp_path / "s.json", cfg)
    assert main(["select-pattern", "--config", path, "--out", str(tmp_path / "x")]) == 1


# Fields of select_config() the select-pattern fuzz mutates: every section,
# the layer list and the pattern list, and every key a section takes.
SELECT_FUZZ_FIELDS = (
    ("seed",), ("dataset",), ("model",), ("train",), ("select",), ("model", "layers"),
    ("model", "layers", 0), ("select", "patterns"), ("select", "patterns", 0),
    ("select", "patterns", 0, 0),
    *(("dataset", key) for key in select_config()["dataset"]),
    *(("model", "layers", 0, key) for key in select_config()["model"]["layers"][0]),
    *(("train", key) for key in teacher_train_config()["train"]),
    *(("select", CONFIG_KEYS.get(f.name, f.name)) for f in fields(SelectConfig)
      if f.name != "train"),
    ("dataset", "test_fraction"), ("train", "target_rate"), ("train", "rounds"),
    ("select", "rank"),
)
# select-pattern trains for max_epochs, then finetune_epochs; an absurd
# length becomes the default increment period, the least max_epochs allowed
SELECT_LENGTH = {("train", "epochs"), ("select", "max_epochs"), ("select", "finetune_epochs")}


@given(mutations=st.lists(st.tuples(st.sampled_from(SELECT_FUZZ_FIELDS), FUZZ_VALUES),
                          min_size=1, max_size=2))
@example(mutations=[(("model", "layers", 0, "n"), 2**40)])
@example(mutations=[(("dataset", "n_samples"), 10**12)])
@example(mutations=[(("dataset", "classification"), False)])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_select_pattern_whole_config_fuzz(capsys, mutations):
    # as test_whole_config_fuzz, for select-pattern
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _mutated(mutations, select_config, SELECT_LENGTH, small=5)
        path = write_config(pathlib.Path(tmp) / "c.json", cfg)
        code = main(["select-pattern", "--config", path, "--out", os.path.join(tmp, "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err


def readme_schema_block():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text[text.index("```jsonc", text.index("### Config schema")):]
    return block[len("```jsonc"):block.index("```", 3)].splitlines()


def readme_default(marker):
    """The default a README ``// required`` or ``// default <value>`` comment
    gives: MISSING, a JSON value, or None for ``none``."""
    if marker.startswith("required"):
        return MISSING
    value = marker[len("default "):]
    return None if value.startswith("none") else json.JSONDecoder().raw_decode(value)[0]


def test_readme_config_defaults_are_the_dataclass_defaults():
    # README's config block names the schema dataclasses of each object where
    # it opens, or where a comment turns to another kind, and marks each key
    # "// required" or "// default <value>": every key of every schema is
    # there, with its dataclass's own default
    scopes, documented = [[]], set()
    for line in readme_schema_block():
        code, _, comment = line.partition("//")
        comment = comment.strip()
        named = [getattr(cli, name)
                 for name in re.findall(r"\b(?:cli|kronblock)\.([A-Z][a-z]\w*)", comment)]
        if comment.startswith(("required", "default ")):
            want = readme_default(comment)
            for key in re.findall(r'"(\w+)"\s*:', code):
                owners = [cls for cls in scopes[-1] if key in config_keys(cls)]
                assert owners, line
                for cls in owners:
                    default = config_keys(cls)[key].default
                    if default is cli.LEFT_OUT:  # a section, required where it is read
                        default = MISSING
                    assert (default, type(default)) == (want, type(want)), line
                    documented.add((cls, key))
        depth = sum(code.count(c) for c in "{[") - sum(code.count(c) for c in "}]")
        if depth > 0:
            scopes.append(named or scopes[-1])
        elif depth < 0:
            del scopes[depth:]
        elif named and not code.strip():
            scopes[-1] = named
    for cls in {cls for cls, *_ in SECTION_SCHEMA.values()}:
        for key in config_keys(cls):
            assert any(k == key and issubclass(cls, d) for d, k in documented), (cls, key)


def test_shape_opt_examples(capsys):
    assert main(["shape-opt", "--m", "8", "--n", "256", "--json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[-1]["objective"] == 128
    assert [4, 8, 2, 32] in lines[-1]["optimal_set"]
    assert main(["shape-opt", "--m", "1", "--n", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["objective"] == 3
    assert main(["shape-opt", "--m", "6", "--n", "10"]) == 0
    assert "optimum" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--m", "4", "--n", "4", "--r-grid", "1,x"],
         "--r-grid: expected comma-separated integers, got '1,x'"),
        (["--m", "4", "--n", "4", "--r-grid", "0,2"], "--r-grid: ranks must be positive"),
        (["--m", "0", "--n", "4"], "--m: must be a positive integer, got 0"),
        (["--m", "4", "--n", "-3"], "--n: must be a positive integer, got -3"),
    ],
)
def test_shape_opt_bad_args(capsys, argv, message):
    assert main(["shape-opt", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_flops_command_exact_equality(tmp_path, capsys):
    for section in (
        {"kind": "dense", "batch": 2, "m": 3, "n": 4},
        {"kind": "kron", "batch": 2, "shape": [2, 3, 2, 2], "rank": 2},
        {"kind": "two_layer_dense", "batch": 2, "d_in": 3, "d_hidden": 4, "d_out": 2},
        {"kind": "two_layer_kron", "batch": 2, "shape1": [2, 3, 3, 2], "rank1": 2,
         "shape2": [2, 2, 2, 3], "rank2": 2},
    ):
        path = write_config(tmp_path / "f.json", {"flops": section})
        assert main(["flops", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equal"] is True
        if section["kind"] == "two_layer_kron":
            assert set(payload["analytic"]["constants"]) == {"C1", "C2", "C3", "C4"}


@pytest.mark.parametrize("kind", AUDITS)
def test_flop_audit_runs_one_training_step(tmp_path, capsys, monkeypatch, kind):
    # one counted step gives both the forward and the backward count
    from kronblock import network

    calls = []
    forward = network.net_forward

    def counted_forward(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(network, "net_forward", counted_forward)
    path = write_config(tmp_path / "f.json", {"flops": AUDITS[kind]})
    assert main(["flops", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("kind", AUDITS)
def test_flop_audit_does_not_depend_on_its_seed(tmp_path, capsys, kind):
    # counts follow from the shapes alone, so the seed of the drawn weights
    # and inputs changes no byte of the report
    for batch in (1, 4):
        outputs = set()
        for seed in (0, 1, 7):
            section = {**AUDITS[kind], "batch": batch, "seed": seed}
            assert main(["flops", "--config", write_config(tmp_path / "f.json",
                                                           {"flops": section})]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # flops, a shape-opt call argparse rejects, flops again: the cached parser
    # gives each call the output and exit code a freshly built parser gives
    path = write_config(tmp_path / "f.json", {"flops": {
        "kind": "kron", "batch": 2, "shape": [2, 3, 2, 2], "rank": 2}})
    calls = (["flops", "--config", path], ["shape-opt", "--m", "x", "--n", "4"],
             ["flops", "--config", path])

    def run_calls():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    assert build_parser() is build_parser()
    cached = run_calls()
    monkeypatch.setattr("kronblock.cli.build_parser", build_parser.__wrapped__)
    fresh = run_calls()
    assert [code for code, _, _ in cached] == [0, 2, 0]
    assert "argument --m: invalid int value: 'x'" in cached[1][2]
    assert cached[0] == cached[2]
    assert cached == fresh


def test_decompose_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 8))
    w.reshape(2, 4, 2, 4)[0, :, 1, :] = 0.0
    mat = tmp_path / "w.npy"
    np.save(mat, w)
    out = tmp_path / "factor.kbf"
    assert main(["decompose", "--in", str(mat), "--block", "4x4", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 3
    assert report["roundtrip_max_abs_error"] == 0.0
    from kronblock import load_factor, materialize

    assert np.array_equal(materialize(load_factor(out)), w)


def test_decompose_bad_block_arg(tmp_path, capsys):
    # a bad --block, an unreadable --in or an unwritable --out ends with exit
    # code 1 and one line naming the flag, never a traceback
    np.save(tmp_path / "w.npy", np.ones((4, 4)))
    (tmp_path / "garbage.npy").write_bytes(b"\x00\x01 not an array")
    np.save(tmp_path / "pickled.npy", np.array([{"a": 1}], dtype=object), allow_pickle=True)
    np.save(tmp_path / "complex.npy", np.ones((4, 4)) * 1j)
    good, out = str(tmp_path / "w.npy"), str(tmp_path / "f.kbf")
    cases = [
        (good, "4by4", out, "--block: expected M2xN2 with positive integers, got '4by4'"),
        (good, "0x2", out, "--block: expected M2xN2 with positive integers, got '0x2'"),
        (good, "2x-1", out, "--block: expected M2xN2 with positive integers, got '2x-1'"),
        (good, "3x3", out, "--block: (3,3) does not divide 4x4"),
        (str(tmp_path / "garbage.npy"), "2x2", out, "--in: "),
        (str(tmp_path / "pickled.npy"), "2x2", out, "--in: "),
        (str(tmp_path / "complex.npy"), "2x2", out,
         "--in: expected a real array, got dtype complex128"),
        (good, "2x2", str(tmp_path / "missing" / "f.kbf"), "--out: "),
    ]
    for infile, block, outfile, message in cases:
        assert main(["decompose", "--in", infile, "--block", block, "--out", outfile]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("stage", ["reconstruct_from_blockwise", "materialize"])
def test_decompose_allocation_failure_is_a_block_error(tmp_path, capsys, monkeypatch, stage):
    # a dense 1024x1024 matrix at 1x1 blocks needs an (r, m1*n1) stack of 8
    # TiB; that MemoryError (stubbed here) ends with exit code 1 and one line
    # naming --block, before --out is written
    def out_of_memory(*_args):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape "
                          "(1048576, 1048576) and data type float64")

    monkeypatch.setattr(cli, stage, out_of_memory)
    np.save(tmp_path / "w.npy", np.ones((4, 4)))
    out = tmp_path / "f.kbf"
    argv = ["decompose", "--in", str(tmp_path / "w.npy"), "--block", "1x1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --block: Unable to allocate 8.00 TiB") and err.count("\n") == 1
    assert not out.exists()


def test_decompose_rejects_non_finite_matrix(tmp_path, capsys):
    # a NaN or inf entry ends with exit code 1 and one line, before --out is
    # written (a NaN would otherwise print an invalid JSON report)
    w = np.ones((4, 4))
    w[1, 2] = np.nan
    np.save(tmp_path / "nan.npy", w)
    (tmp_path / "inf.txt").write_text("1 2 3 4\n1 inf 3 4\n1 2 3 4\n1 2 3 4\n")
    out = tmp_path / "f.kbf"
    for name in ("nan.npy", "inf.txt"):
        argv = ["decompose", "--in", str(tmp_path / name), "--block", "2x2", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --in: matrix has non-finite entries\n"
        assert not out.exists()


def test_decompose_rejects_empty_or_non_matrix(tmp_path, capsys):
    # an empty text file, a (0, 4), a 1-D and a 0-d array end with exit code
    # 1 and one line naming --in and the shape, before --out is written
    (tmp_path / "empty.txt").write_text("")
    np.save(tmp_path / "rows0.npy", np.ones((0, 4)))
    np.save(tmp_path / "vector.npy", np.ones(4))
    np.save(tmp_path / "scalar.npy", np.array(1.0))
    out = tmp_path / "f.kbf"
    for name, shape in (("empty.txt", "(0, 1)"), ("rows0.npy", "(0, 4)"),
                        ("vector.npy", "(4,)"), ("scalar.npy", "()")):
        argv = ["decompose", "--in", str(tmp_path / name), "--block", "2x2", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --in: expected a non-empty 2-D matrix, got shape {shape}\n"
        assert not out.exists()


def test_mnist_dataset_kind_end_to_end(tmp_path, monkeypatch):
    # synthetic IDX files laid out like the real MNIST download
    import struct

    rng = np.random.default_rng(0)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for prefix, count in (("train", 64), ("t10k", 16)):
        images = rng.integers(0, 256, size=(count, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=count, dtype=np.uint8)
        with open(data_dir / f"{prefix}-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, count, 28, 28))
            fh.write(images.tobytes())
        with open(data_dir / f"{prefix}-labels-idx1-ubyte", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, count))
            fh.write(labels.tobytes())
    monkeypatch.setenv("KRONBLOCK_DATA_DIR", str(data_dir))
    cfg = {
        "seed": 0,
        "dataset": {"kind": "mnist"},
        "model": {"layers": [{"kind": "kron", "shape": [5, 392, 2, 2], "rank": 2}]},
        "train": {"epochs": 2, "batch_size": 32, "learning_rate": 0.25, "lambda": 1e-3},
    }
    path = write_config(tmp_path / "m.json", cfg)
    out = tmp_path / "run"
    assert main(["train", "--config", path, "--method", "kron", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["trainable_params"] == 5888
    assert summary["epochs"] == 2


# ---------------------------------------------------------------------------
# golden outputs: sha256 of the files of fixed-seed CLI runs. They pin the
# training and selection arithmetic to the last bit, so a refactor that
# reorders one floating-point operation fails here. Each run's eval set is at
# most 128 rows: larger (5,392,2,2)-sized GEMMs differ in the last bits
# between BLAS thread counts, and these digests must not.
# ---------------------------------------------------------------------------


def fold_train_config():
    """``teacher_train_config`` on a 32x32 teacher with (8, 8) tiles at rank 2,
    whose 32-row training batches run the fold path."""
    cfg = teacher_train_config()
    cfg["dataset"].update(m=32, n=32, block=[8, 8])
    cfg["model"]["layers"][0].update(m=32, n=32, block=[8, 8])
    cfg["train"]["block"] = [8, 8]
    return cfg


GOLDEN = {
    # run name: (CLI command and options, config, {output file: sha256})
    "kron": (["train", "--method", "kron"], teacher_train_config, {
        "metrics.ndjson": "e445bfae8d76514c9a1965de3a70db1ee3bb4dfe2b6ee8cda648cb9e13db3353",
        "checkpoint.kbn": "c040b2ce5fad7e56479b602e3dc12855d406ef34c1f62d9b5c92975a68f18ea6",
    }),
    "group-lasso": (["train", "--method", "group-lasso"], teacher_train_config, {
        "metrics.ndjson": "c80c10b6f257b2fb9e7ac0a3213ef40c70775c1b2672eebdd12c98a099cc5352",
        "checkpoint.kbn": "3d73fbca816fefe3907e2ac136cf233fe9f31e49cd2bd56e23f03ee3bbcce695",
    }),
    "prune": (["train", "--method", "prune"], teacher_train_config, {
        "metrics.ndjson": "468c10be93fd27e39b29b0daa7096f766275488691e24a25dbd4759adf786e4a",
        "checkpoint.kbn": "9d4f1e3ccb166a9dfc412431e110eec16153aafe8591d2eb6685d8294a7ee29e",
    }),
    "kron-fold": (["train", "--method", "kron"], fold_train_config, {
        "metrics.ndjson": "ae41a44cd4edf7b0c694f62cfdfeefda99a4a63e20903f3de03ed8e29610eaa8",
        "checkpoint.kbn": "5cf70a5c1203025aec4218d563fc224a7fe081e2ec2a55b27553133d66efc552",
    }),
    "select": (["select-pattern"], select_config, {
        "selection.ndjson": "055618aa9c55a33d5628ecc81a879210a5485c9eb719171eaf22b653d1a27083",
        "checkpoint.kbn": "2759f304d418be2c85e6d2cb89004a010529041cadb8b3e46ca057491994f9b4",
    }),
}


def golden_argv(name, tmp_path):
    command, build, _ = GOLDEN[name]
    path = write_config(tmp_path / f"{name}.json", build())
    return [command[0], "--config", path, *command[1:], "--out", str(tmp_path / name)]


def golden_digests(name, tmp_path):
    import hashlib

    return {
        file: hashlib.sha256((tmp_path / name / file).read_bytes()).hexdigest()
        for file in GOLDEN[name][2]
    }


def test_golden_runs_take_their_paths(tmp_path):
    # the teacher config trains on the materialized path, its override on fold
    for name, path in (("kron", "materialized"), ("kron-fold", "fold")):
        assert main(golden_argv(name, tmp_path)) == 0
        assert json.loads((tmp_path / name / "run_info.json").read_text())["train_paths"] == [path]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, name):
    assert main(golden_argv(name, tmp_path)) == 0
    assert golden_digests(name, tmp_path) == GOLDEN[name][2]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_outputs_across_blas_threads(tmp_path, threads):
    # every golden run in a fresh process with its BLAS thread count fixed
    runs = [golden_argv(name, tmp_path) for name in sorted(GOLDEN)]
    code = ("import json, sys\nfrom kronblock.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    proc = run_fresh(code, json.dumps(runs), threads=threads)
    assert proc.returncode == 0, proc.stderr
    for name in sorted(GOLDEN):
        assert golden_digests(name, tmp_path) == GOLDEN[name][2], name


@pytest.mark.parametrize("name", ["kron", "select"])
def test_rerun_from_own_run_directory(tmp_path, name):
    # a run directory's config.json run again into that directory writes every
    # output there, keeps its config bytes and gives the fresh run's files
    command = GOLDEN[name][0]
    assert main(golden_argv(name, tmp_path)) == 0
    fresh, run = tmp_path / name, tmp_path / "rerun"
    run.mkdir()
    config = (fresh / "config.json").read_bytes()
    (run / "config.json").write_bytes(config)
    argv = [command[0], "--config", str(run / "config.json"), *command[1:], "--out", str(run)]
    assert main(argv) == 0
    assert (run / "config.json").read_bytes() == config
    outputs = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in run.iterdir()) == outputs
    for file in outputs:
        if file != "run_info.json":  # holds the wall clock
            assert (run / file).read_bytes() == (fresh / file).read_bytes(), file
