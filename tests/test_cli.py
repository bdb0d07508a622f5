"""End-to-end command tests through the click runner, plus harness-level
checks that are awkward to drive from the shell (per-cell failure
isolation, worker parallelism)."""

import csv
import json
import re
import struct
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from selfaug.cli import main
from selfaug.config import ExperimentConfig
from selfaug.data import load_jsonl, load_label_space
from selfaug.harness import (EXPORT_LAYERS, _principal_components,
                             run_grid, run_training)
from selfaug.model import load_checkpoint, save_checkpoint

RUN_ARTIFACTS = ("config.json", "checkpoint.bin", "epochs.jsonl",
                 "metrics.json")


def small_config(out_dir: str, mode: str = "proposed",
                 max_epochs: int = 3) -> dict:
    return {
        "data": {
            "synth_spec": {
                "task_kind": "binary",
                "classes": ["ailment", "banter"],
                "keywords": {"ailment": ["fever", "nausea", "fatigue"],
                             "banter": ["meme", "prank", "trivia"]},
                "literal_templates": ["the {kw} kept me up",
                                      "dealing with {kw} since monday"],
                "figurative_templates": ["pure {kw} energy"],
                "ambiguity": 0.0,
                "count": 100,
            },
            "ratios": [0.7, 0.15, 0.15],
        },
        "model": {"d_model": 8, "n_heads": 2, "n_layers": 2, "d_ff": 16,
                  "max_seq_len": 16, "dropout_rate": 0.0},
        "dual": {"tap_layer": 1, "inject_layer": 1, "alpha": 0.2,
                 "projection_dims": [8, 8, 4]},
        "train": {"learning_rate": 0.001, "max_epochs": max_epochs,
                  "patience": max_epochs, "batch_size": 8, "seed": 0,
                  "mode": mode},
        "threshold": 0.5,
        "out_dir": out_dir,
    }


def _rename(section: dict, old: str, new: str) -> None:
    section[new] = section.pop(old)


# (mutation of the desk preset, expected start of the error line)
MALFORMED_CONFIGS = {
    "dual.alfa": (lambda c: _rename(c["dual"], "alpha", "alfa"),
                  "error: dual.alfa: unknown key"),
    "train.lr": (lambda c: _rename(c["train"], "learning_rate", "lr"),
                 "error: train.lr: unknown key"),
    "string learning_rate": (
        lambda c: c["train"].update(learning_rate="x"),
        'error: train.learning_rate: expected a number, got "x"'),
    "null alpha": (lambda c: c["dual"].update(alpha=None),
                   "error: dual.alpha: expected a number, got null"),
    "n_heads 0": (lambda c: c["model"].update(n_heads=0),
                  "error: model: n_heads must be positive"),
    "string ratios": (lambda c: c["data"].update(ratios="abc"),
                      'error: data.ratios: expected an array, got "abc"'),
    "count many": (
        lambda c: c["data"]["synth_spec"].update(count="many"),
        'error: data.synth_spec.count: expected an integer, got "many"'),
    "projection_dims 5": (
        lambda c: c["dual"].update(projection_dims=5),
        "error: dual.projection_dims: expected an array, got 5"),
    "grid.alpha scalar": (lambda c: c.update(grid={"alpha": 0.1}),
                          "error: grid.alpha: expected an array, got 0.1"),
    "threshold half": (lambda c: c.update(threshold="half"),
                       'error: threshold: expected a number, got "half"'),
    "dual without alpha": (lambda c: c["dual"].pop("alpha"),
                           "error: dual.alpha: required key is missing"),
    "model array": (lambda c: c.update(model=[1]),
                    "error: model: expected an object, got [1]"),
    "max_seq_len 1": (lambda c: c["model"].update(max_seq_len=1),
                      "error: model: max_seq_len must be >= 2"),
    "negative seed": (lambda c: c["train"].update(seed=-1),
                      "error: train: seed must be non-negative"),
}
PYTHON_INTERNALS = re.compile(r"Error|Exception|NoneType|__\w+__|<class|"
                              r"argument|instances of|'(int|float|str)'")

# (file bytes, header length) -> damaged file bytes; the cuts fall in each
# region of the layout: 16-byte preamble | JSON header | float64 data
CHECKPOINT_DAMAGE = {
    "not a checkpoint": lambda blob, n: b"not a checkpoint",
    "cut in the preamble": lambda blob, n: blob[:10],
    "cut in the header": lambda blob, n: blob[:16 + n // 2],
    "cut in the data": lambda blob, n: blob[:(16 + n + len(blob)) // 2],
    "one byte short": lambda blob, n: blob[:-1],
    "header without arrays": lambda blob, n:
        blob[:8] + struct.pack("<Q", 12) + b'{"meta": {}}',
}


def write_config(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def invoke(*args) -> "Result":
    return CliRunner().invoke(main, list(args))


class TestTrainCommand:
    def test_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_config(str(out)))
        result = invoke("--config", str(cfg), "train")
        assert result.exit_code == 0, result.output
        for name in RUN_ARTIFACTS:
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["epochs_run"] == 3
        assert 0.0 <= metrics["test"]["macro"]["f1"] <= 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_config(str(out)))
        assert invoke("--config", str(cfg), "train").exit_code == 0
        first = {n: (out / n).read_bytes()
                 for n in ("metrics.json", "config.json",
                           "checkpoint.bin")}
        assert invoke("--config", str(cfg), "train").exit_code == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_missing_dataset_exits_2_without_debris(self, tmp_path):
        out = tmp_path / "run"
        payload = small_config(str(out))
        payload["data"] = {"dataset_path": str(tmp_path / "absent.jsonl"),
                           "label_space_path":
                               str(tmp_path / "absent.labels.json")}
        cfg = write_config(tmp_path, payload)
        result = invoke("--config", str(cfg), "train")
        assert result.exit_code == 2
        assert not out.exists()

    def test_config_flag_required(self):
        result = invoke("train")
        assert result.exit_code == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        payload = small_config(str(tmp_path / "run"))
        payload["typo_section"] = {}
        cfg = write_config(tmp_path, payload)
        result = invoke("--config", str(cfg), "train")
        assert result.exit_code == 2
        assert "typo_section" in result.output

    @pytest.mark.parametrize("probe", MALFORMED_CONFIGS)
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, probe):
        mutate, expected = MALFORMED_CONFIGS[probe]
        preset = resources.files("selfaug") / "presets" / "desk_binary.json"
        payload = json.loads(preset.read_text(encoding="utf-8"))
        mutate(payload)
        payload["out_dir"] = str(tmp_path / "run")
        result = invoke("--config", str(write_config(tmp_path, payload)),
                        "train")
        assert result.exit_code == 2, result.output
        assert result.output.startswith(expected), result.output
        assert not PYTHON_INTERNALS.search(result.output), result.output
        assert not (tmp_path / "run").exists()

    def test_seed_and_out_overrides(self, tmp_path):
        out = tmp_path / "other"
        cfg = write_config(tmp_path, small_config(str(tmp_path / "run")))
        result = invoke("--config", str(cfg), "--seed", "5", "--out",
                        str(out), "train")
        assert result.exit_code == 0, result.output
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["train"]["seed"] == 5

    def test_multilabel_end_to_end(self, tmp_path):
        out = tmp_path / "run"
        payload = small_config(str(out), max_epochs=2)
        payload["data"]["synth_spec"].update(
            task_kind="multilabel",
            classes=["ailment", "banter", "errand"],
            keywords={"ailment": ["fever", "nausea"],
                      "banter": ["meme", "prank"],
                      "errand": ["laundry", "grocery"]})
        cfg = write_config(tmp_path, payload)
        result = invoke("--config", str(cfg), "train")
        assert result.exit_code == 0, result.output
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["test"]["per_class"]) == \
            {"ailment", "banter", "errand"}


class TestGridCommand:
    def test_rows_winner_and_determinism(self, tmp_path):
        payload = small_config(str(tmp_path / "g1"), max_epochs=2)
        payload["grid"] = {"alpha": [0.1, 0.3],
                           "inject_layer": [0, 2]}
        cfg = write_config(tmp_path, payload)
        result = invoke("--config", str(cfg), "grid")
        assert result.exit_code == 0, result.output
        summary = json.loads(
            (tmp_path / "g1" / "grid.json").read_text())
        assert summary["n_cells"] == 4
        assert summary["n_failed"] == 0
        best = max(r["best_val_f1"] for r in summary["rows"])
        assert summary["winner"]["best_val_f1"] == best
        firsts = [r for r in summary["rows"]
                  if r["best_val_f1"] == best]
        assert summary["winner"]["cell"] == firsts[0]["cell"]
        for i in range(4):
            assert (tmp_path / "g1" / f"cell{i:03d}" /
                    "metrics.json").exists()

        # same config into a second directory: identical csv bytes
        result = invoke("--config", str(cfg), "--out",
                        str(tmp_path / "g2"), "grid")
        assert result.exit_code == 0, result.output
        assert (tmp_path / "g1" / "grid.csv").read_bytes() == \
            (tmp_path / "g2" / "grid.csv").read_bytes()

    def test_grid_requires_grid_section(self, tmp_path):
        cfg = write_config(tmp_path,
                           small_config(str(tmp_path / "g")))
        result = invoke("--config", str(cfg), "grid")
        assert result.exit_code == 2

    def test_cell_failure_is_isolated(self, tmp_path):
        payload = small_config(str(tmp_path / "g"), max_epochs=2)
        # 80 train examples: batch 64 trains, batch 512 cannot
        payload["grid"] = {"batch_size": [8, 512]}
        config = ExperimentConfig.from_dict(payload)
        summary = run_grid(config)
        assert summary["n_cells"] == 2
        assert summary["n_failed"] == 1
        statuses = [r["status"] for r in summary["rows"]]
        assert statuses == ["ok", "failed"]
        assert summary["winner"]["batch_size"] == 8
        assert "smaller than one batch" in summary["rows"][1]["error"]

    def test_workers_match_serial(self, tmp_path):
        payload = small_config(str(tmp_path / "serial"), max_epochs=2)
        payload["grid"] = {"alpha": [0.1, 0.3]}
        serial = run_grid(ExperimentConfig.from_dict(payload))
        payload["out_dir"] = str(tmp_path / "parallel")
        parallel = run_grid(ExperimentConfig.from_dict(payload),
                            workers=2)
        assert serial["rows"] == parallel["rows"]


class TestKfoldCommand:
    def test_per_fold_rows_and_mean(self, tmp_path):
        out = tmp_path / "kf"
        cfg = write_config(tmp_path,
                           small_config(str(out), max_epochs=2))
        result = invoke("--config", str(cfg), "kfold", "-k", "2")
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "kfold.json").read_text())
        assert [r["fold"] for r in summary["rows"]] == [0, 1]
        f1s = [r["test_f1"] for r in summary["rows"]]
        assert summary["summary"]["test_f1"]["mean"] == \
            pytest.approx(np.mean(f1s), abs=5e-7)
        for i in range(2):
            assert (out / f"fold{i}" / "metrics.json").exists()
        with (out / "kfold.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["fold"] for r in rows] == ["0", "1", "mean", "std"]

    def test_k_must_be_at_least_2(self, tmp_path):
        cfg = write_config(tmp_path,
                           small_config(str(tmp_path / "kf")))
        result = invoke("--config", str(cfg), "kfold", "-k", "1")
        assert result.exit_code == 2

    def test_presplit_data_rejected(self, tmp_path):
        payload = small_config(str(tmp_path / "kf"))
        payload["data"] = {
            "train_path": "a.jsonl", "val_path": "b.jsonl",
            "test_path": "c.jsonl", "label_space_path": "s.json"}
        cfg = write_config(tmp_path, payload)
        result = invoke("--config", str(cfg), "kfold", "-k", "2")
        assert result.exit_code == 2
        assert "splittable" in result.output


class TestAblateCommand:
    def test_rows_and_baseline_consistency(self, tmp_path):
        out = tmp_path / "ab"
        cfg = write_config(tmp_path,
                           small_config(str(out), max_epochs=2))
        result = invoke("--config", str(cfg), "ablate")
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "ablation.json").read_text())
        assert [r["row"] for r in summary["rows"]] == \
            ["Baseline", "+SA", "+Proposed"]

        # the ablation's baseline row must equal a standalone baseline
        # run under the same seed
        solo = tmp_path / "solo"
        payload = small_config(str(solo), mode="baseline", max_epochs=2)
        solo_metrics = run_training(ExperimentConfig.from_dict(payload))
        row = summary["rows"][0]
        assert row["test_f1"] == solo_metrics["test"]["macro"]["f1"]
        assert row["best_val_f1"] == solo_metrics["best_val_f1"]


class TestExportCommand:
    def _trained_checkpoint(self, tmp_path) -> Path:
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_config(str(out)))
        assert invoke("--config", str(cfg), "train").exit_code == 0
        return out / "checkpoint.bin"

    def test_rows_and_pca_properties(self, tmp_path):
        ckpt = self._trained_checkpoint(tmp_path)
        result = invoke("--out", str(tmp_path / "exp"),
                        "export-embeddings", "--checkpoint", str(ckpt),
                        "--split", "test", "--layer", "pooled_final")
        assert result.exit_code == 0, result.output
        with (tmp_path / "exp" / "embeddings.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15  # the test split of the 100-example corpus
        assert {"id", "gold", "predicted", "e0", "pc1", "pc2"} <= \
            set(rows[0])
        pc1 = np.array([float(r["pc1"]) for r in rows])
        pc2 = np.array([float(r["pc2"]) for r in rows])
        assert abs(pc1.mean()) < 1e-9
        assert abs(pc2.mean()) < 1e-9
        assert pc1.var() >= pc2.var()

    def test_pcs_match_eigh_when_top_eigenvalues_are_close(self):
        # sample covariance with eigenvalues exactly (1.0, 0.96, ...) in a
        # random basis: the top two directions are hard to separate
        rng = np.random.default_rng(5)
        z = rng.normal(size=(500, 6))
        z -= z.mean(axis=0)
        z = z @ np.linalg.inv(np.linalg.cholesky(z.T @ z / len(z))).T
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        x = z * np.sqrt([1.0, 0.96, 0.5, 0.3, 0.2, 0.1]) @ basis.T + 3.0
        centered = x - x.mean(axis=0)
        _, vectors = np.linalg.eigh(centered.T @ centered / len(x))
        pcs = _principal_components(x)
        for col, vector in ((0, vectors[:, -1]), (1, vectors[:, -2])):
            want = centered @ vector
            sign = np.sign(pcs[:, col] @ want)
            np.testing.assert_allclose(pcs[:, col], sign * want, rtol=0,
                                       atol=1e-9 * np.abs(want).max())
            pivot = np.abs(vector).argmax()
            assert sign * vector[pivot] > 0  # largest component positive

    def test_pcs_edge_cases(self):
        assert _principal_components(np.ones((1, 4))) is None
        assert _principal_components(np.ones((5, 1))) is None
        rank_one = np.outer(np.arange(5.0), [1.0, 2.0, 0.0])
        pcs = _principal_components(rank_one)
        assert np.ptp(pcs[:, 0]) > 0
        np.testing.assert_array_equal(pcs[:, 1], 0.0)

    def test_tapped_layer_export(self, tmp_path):
        ckpt = self._trained_checkpoint(tmp_path)
        result = invoke("--out", str(tmp_path / "exp"),
                        "export-embeddings", "--checkpoint", str(ckpt),
                        "--layer", "tapped")
        assert result.exit_code == 0, result.output

    def test_unknown_layer_rejected(self, tmp_path):
        ckpt = self._trained_checkpoint(tmp_path)
        result = invoke("export-embeddings", "--checkpoint", str(ckpt),
                        "--layer", "h42")
        assert result.exit_code == 2

    @pytest.mark.parametrize("damage", CHECKPOINT_DAMAGE)
    def test_garbage_checkpoint_exits_2(self, tmp_path, damage):
        blob = self._trained_checkpoint(tmp_path).read_bytes()
        header_len = struct.unpack("<Q", blob[8:16])[0]
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(CHECKPOINT_DAMAGE[damage](blob, header_len))
        result = invoke("--out", str(tmp_path / "exp"), "export-embeddings",
                        "--checkpoint", str(bogus))
        assert result.exit_code == 2, result.output
        assert str(bogus) in result.output
        assert not PYTHON_INTERNALS.search(result.output), result.output
        assert not (tmp_path / "exp" / "embeddings.csv").exists()

    def test_changed_label_order_exits_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            small_config("unused")["data"]["synth_spec"]))
        assert invoke("--out", str(tmp_path / "data"), "gen-synth",
                      "--spec", str(spec_path)).exit_code == 0
        labels_path = tmp_path / "data" / "corpus.labels.json"
        payload = small_config(str(tmp_path / "run"))
        payload["data"] = {
            "dataset_path": str(tmp_path / "data" / "corpus.jsonl"),
            "label_space_path": str(labels_path),
            "ratios": [0.7, 0.15, 0.15]}
        cfg = write_config(tmp_path, payload)
        assert invoke("--config", str(cfg), "train").exit_code == 0
        space = json.loads(labels_path.read_text())
        space["labels"].reverse()
        labels_path.write_text(json.dumps(space))
        result = invoke("--out", str(tmp_path / "exp"), "export-embeddings",
                        "--checkpoint", str(tmp_path / "run" /
                                            "checkpoint.bin"))
        assert result.exit_code == 2, result.output
        assert "label space" in result.output
        assert not (tmp_path / "exp" / "embeddings.csv").exists()

    def test_checkpoint_in_the_full_training_layout_exports_the_same(
            self, tmp_path):
        # earlier checkpoints also held the copy stream, the projection,
        # both Adam moment sets and the run summary; export reads only
        # the f. arrays and four meta keys of either layout
        ckpt = self._trained_checkpoint(tmp_path)
        meta, arrays = load_checkpoint(ckpt)
        full = dict(arrays)
        rng = np.random.default_rng(0)
        for name, arr in arrays.items():
            full[f"c.{name[2:]}"] = rng.normal(size=arr.shape)
        for i, (a, b) in enumerate(((8, 8), (8, 8), (8, 4))):
            full[f"proj.proj{i}_w"] = rng.normal(size=(a, b))
            full[f"proj.proj{i}_b"] = rng.normal(size=b)
        for name, arr in list(full.items()):
            full[f"adam_m.{name}"] = rng.normal(size=arr.shape)
            full[f"adam_v.{name}"] = rng.random(size=arr.shape)
        full_meta = {**meta, "mode": "proposed", "seed": 0, "best_epoch": 3,
                     "best_val_f1": 1.0, "adam_steps": 30}
        save_checkpoint(tmp_path / "full.bin", full_meta, full)
        for layer in EXPORT_LAYERS:
            for name, path in (("slim", ckpt),
                               ("full", tmp_path / "full.bin")):
                result = invoke("--out", str(tmp_path / name / layer),
                                "export-embeddings", "--checkpoint",
                                str(path), "--layer", layer)
                assert result.exit_code == 0, result.output
            assert (tmp_path / "slim" / layer / "embeddings.csv")\
                .read_bytes() == \
                (tmp_path / "full" / layer / "embeddings.csv").read_bytes()


class TestGenSynthCommand:
    def test_writes_corpus_and_labels(self, tmp_path):
        spec = small_config("unused")["data"]["synth_spec"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = invoke("--out", str(tmp_path), "gen-synth", "--spec",
                        str(spec_path))
        assert result.exit_code == 0, result.output
        space = load_label_space(tmp_path / "corpus.labels.json")
        examples = load_jsonl(tmp_path / "corpus.jsonl", space)
        assert len(examples) == 100

    def test_deterministic_bytes(self, tmp_path):
        spec = small_config("unused")["data"]["synth_spec"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        for sub in ("one", "two"):
            assert invoke("--out", str(tmp_path / sub), "--seed", "3",
                          "gen-synth", "--spec",
                          str(spec_path)).exit_code == 0
        assert (tmp_path / "one" / "corpus.jsonl").read_bytes() == \
            (tmp_path / "two" / "corpus.jsonl").read_bytes()
