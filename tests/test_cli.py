import json

import numpy as np
import pytest

from kronblock import KronShape
from kronblock.cli import main
from kronblock.flops import forward_path


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
            "momentum": 0.9, "lambda": 0.01, "loss": "softmax_cross_entropy",
            "block": [2, 2],
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


def test_run_info_records_eval_paths(tmp_path):
    # the eval set has 32 rows, where the cost model puts (4,8,2,2) r=2 on
    # the materialized path; the dense baselines report "dense"
    cfg = write_config(tmp_path / "c.json", teacher_train_config())
    for method, paths in (("kron", ["materialized"]), ("group-lasso", ["dense"])):
        out = tmp_path / method
        assert main(["train", "--config", cfg, "--method", method, "--out", str(out)]) == 0
        assert json.loads((out / "run_info.json").read_text())["eval_paths"] == paths


def test_divergence_exit_code(tmp_path):
    cfg = teacher_train_config()
    cfg["dataset"]["classification"] = False
    cfg["train"]["loss"] = "squared_frobenius"
    cfg["train"]["learning_rate"] = 10.0
    cfg["train"]["epochs"] = 30
    path = write_config(tmp_path / "c.json", cfg)
    assert main(["train", "--config", path, "--method", "kron", "--out", str(tmp_path / "x")]) == 2


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
    want = forward_path(128, KronShape(16 // m2, 32 // n2, m2, n2, 2))
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


def test_select_rejects_single_pattern(tmp_path):
    cfg = select_config()
    cfg["select"]["patterns"] = [[[2, 2]]]
    path = write_config(tmp_path / "s.json", cfg)
    assert main(["select-pattern", "--config", path, "--out", str(tmp_path / "x")]) == 1


def test_shape_opt_examples(capsys):
    assert main(["shape-opt", "--m", "8", "--n", "256", "--json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[-1]["objective"] == 128
    assert [4, 8, 2, 32] in lines[-1]["optimal_set"]
    assert main(["shape-opt", "--m", "1", "--n", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["objective"] == 3
    assert main(["shape-opt", "--m", "6", "--n", "10"]) == 0
    assert "optimum" in capsys.readouterr().out


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


def test_decompose_bad_block_arg(tmp_path):
    np.save(tmp_path / "w.npy", np.ones((4, 4)))
    assert main(["decompose", "--in", str(tmp_path / "w.npy"), "--block", "4by4",
                 "--out", str(tmp_path / "f.kbf")]) == 1


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
