"""End-to-end command tests through the click runner, plus harness-level
checks that are awkward to drive from the shell (per-cell failure
isolation, worker parallelism)."""

import csv
import io
import json
import multiprocessing
import os
import re
import signal
import struct
import threading
from concurrent import futures
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from selfaug import harness, parallel, training
from selfaug.cli import main
from selfaug.config import ExperimentConfig
from selfaug.data import (batches, encode_split, gen_synthetic, k_folds,
                          load_jsonl, load_label_space)
from selfaug.errors import DataError, ShapeError
from selfaug.harness import (EXPORT_BATCH_SIZE, EXPORT_LAYERS,
                             _principal_components, _restored_model,
                             prepare_data, run_ablation, run_grid, run_kfold,
                             run_training)
from selfaug.model import load_checkpoint, pool, save_checkpoint

from conftest import lanes_meet, on_lane_zero
from test_metrics import oracle_bundle

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

def _edited_header(edit):
    """Damage that rewrites the JSON header and keeps the data region."""
    def damage(blob: bytes, n: int) -> bytes:
        header = json.loads(blob[16:16 + n])
        edit(header)
        text = json.dumps(header).encode()
        return blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + n:]
    return damage


# (file bytes, header length) -> damaged file bytes; the cuts fall in each
# region of the layout: 16-byte preamble | JSON header | float64 data, and
# the edits break one field of a well-formed header
CHECKPOINT_DAMAGE = {
    "not a checkpoint": lambda blob, n: b"not a checkpoint",
    "cut in the preamble": lambda blob, n: blob[:10],
    "cut in the header": lambda blob, n: blob[:16 + n // 2],
    "cut in the data": lambda blob, n: blob[:(16 + n + len(blob)) // 2],
    "one byte short": lambda blob, n: blob[:-1],
    "17 bytes appended": lambda blob, n: blob + bytes(range(17)),
    "header without arrays": lambda blob, n:
        blob[:8] + struct.pack("<Q", 12) + b'{"meta": {}}',
    "empty meta and arrays": lambda blob, n:
        blob[:8] + struct.pack("<Q", 26) + b'{"meta": {}, "arrays": []}',
    **{f"meta without {key}": _edited_header(
        lambda h, key=key: h["meta"].pop(key))
       for key in ("experiment", "label_space", "vocab")},
    "experiment not an object": _edited_header(
        lambda h: h["meta"].update(experiment=["data"])),
    "vocab not a list": _edited_header(
        lambda h: h["meta"].update(vocab="<pad> <unk>")),
    "experiment without its sections": _edited_header(
        lambda h: h["meta"].update(experiment={})),
    **{f"array without {key}": _edited_header(
        lambda h, key=key: h["arrays"][0].pop(key))
       for key in ("name", "shape", "offset")},
    "array entry not an object": _edited_header(
        lambda h: h["arrays"].append("f.head_b")),
    "string shape": _edited_header(
        lambda h: h["arrays"][0].update(shape="8,2")),
    "boolean in shape": _edited_header(
        lambda h: h["arrays"][0].update(shape=[True, 2])),
    "fractional offset": _edited_header(
        lambda h: h["arrays"][0].update(offset=8.5)),
    "negative offset": _edited_header(
        lambda h: h["arrays"][0].update(offset=-8)),
    "numeric name": _edited_header(
        lambda h: h["arrays"][0].update(name=7)),
    "duplicate array name": _edited_header(
        lambda h: h["arrays"].append(dict(h["arrays"][-1]))),
    "head_b shape [1]": _edited_header(
        lambda h: next(a for a in h["arrays"]
                       if a["name"] == "f.head_b").update(shape=[1])),
    "experiment.model.d_ff doubled": _edited_header(
        lambda h: h["meta"]["experiment"]["model"].update(
            d_ff=2 * h["meta"]["experiment"]["model"]["d_ff"])),
    "f. array entry removed": _edited_header(
        lambda h: h["arrays"].remove(next(
            a for a in h["arrays"] if a["name"].startswith("f.")))),
    "arrays overlap": _edited_header(
        lambda h: h["arrays"][1].update(offset=h["arrays"][0]["offset"])),
    "fold index past k": _edited_header(
        lambda h: h["meta"].update(
            fold={"k": 3, "index": 3, "val_fraction": 0.2})),
    "fold not an object": _edited_header(
        lambda h: h["meta"].update(fold=[3, 1, 0.2])),
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

    def test_checkpoint_bytes_do_not_depend_on_the_run_directory(
            self, tmp_path):
        cfg = write_config(tmp_path, small_config(str(tmp_path / "unused"),
                                                  max_epochs=1))
        blobs = []
        for name in ("one", "two"):
            assert invoke("--config", str(cfg), "--out",
                          str(tmp_path / name), "train").exit_code == 0
            blobs.append((tmp_path / name / "checkpoint.bin").read_bytes())
        assert blobs[0] == blobs[1]

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

    @pytest.mark.parametrize("line, space, message", [
        ("5", {}, "corpus.jsonl:2: expected a JSON object"),
        ('{"id": "b", "text": null, "labels": ["ailment"]}', {},
         "corpus.jsonl:2: 'text' must be a string"),
        # a string of labels would otherwise split into one-letter labels
        ("", {"labels": "ab"}, "labels.json needs a 'task_kind' string"),
        ("", {"labels": ["ailment", 2]}, "labels.json needs a 'task_kind'"),
        ("", {"task_kind": ["binary"]}, "labels.json needs a 'task_kind'"),
        ('{"id": null, "text": "x", "labels": ["ailment"]}', {},
         "corpus.jsonl:2: 'id' must be a string or an integer"),
        ('{"id": [1], "text": "x", "labels": ["ailment"]}', {},
         "corpus.jsonl:2: 'id' must be a string or an integer"),
        ('{"id": true, "text": "x", "labels": ["ailment"]}', {},
         "corpus.jsonl:2: 'id' must be a string or an integer"),
        ("", {"task_kind": "trinary"},
         "labels.json: unknown task kind 'trinary'"),
        ("", {"labels": ["ailment", "ailment"]},
         "labels.json: label space contains duplicate labels"),
        ("", {"labels": ["ailment", "banter", "other"]},
         "labels.json: binary task needs exactly 2 labels, got 3"),
        # the export would write the gold column as ailment|ailment
        ('{"id": "b", "text": "x", "labels": ["ailment", "ailment"]}',
         {"task_kind": "multilabel"},
         "corpus.jsonl:2: label 'ailment' is listed twice")],
        ids=["number line", "null text", "labels string", "numeric label",
             "task_kind list", "null id", "list id", "bool id",
             "unknown task kind", "duplicate labels", "binary with 3",
             "label listed twice"])
    def test_malformed_data_file_exits_2(self, tmp_path, line, space,
                                         message):
        dataset = tmp_path / "corpus.jsonl"
        dataset.write_text('{"id": "a", "text": "fever", "labels": '
                           '["ailment"]}\n' + line + "\n")
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"task_kind": "binary",
                                      "labels": ["ailment", "banter"],
                                      **space}))
        out = tmp_path / "run"
        payload = small_config(str(out))
        payload["data"] = {"dataset_path": str(dataset),
                           "label_space_path": str(labels)}
        result = invoke("--config", str(write_config(tmp_path, payload)),
                        "train")
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not PYTHON_INTERNALS.search(result.output), result.output
        assert not out.exists()

    @pytest.mark.parametrize("target, damage", [
        ("config", "directory"), ("config", "latin-1"),
        ("dataset", "directory"), ("dataset", "latin-1"),
        ("synth spec", "latin-1"), ("label space", "latin-1")])
    def test_unreadable_input_file_exits_2(self, tmp_path, target, damage):
        files = {"dataset": tmp_path / "corpus.jsonl",
                 "label space": tmp_path / "labels.json",
                 "synth spec": tmp_path / "spec.json"}
        files["dataset"].write_text('{"id": "a", "text": "fever", '
                                    '"labels": ["ailment"]}\n')
        files["label space"].write_text(json.dumps(
            {"task_kind": "binary", "labels": ["ailment", "banter"]}))
        out = tmp_path / "run"
        payload = small_config(str(out))
        files["synth spec"].write_text(json.dumps(
            payload["data"].pop("synth_spec")))
        payload["data"] = {"synth_spec_path": str(files["synth spec"])} \
            if target == "synth spec" else \
            {"dataset_path": str(files["dataset"]),
             "label_space_path": str(files["label space"])}
        files["config"] = write_config(tmp_path, payload)
        path = files[target]
        if damage == "directory":
            path.unlink()
            path.mkdir()
        else:  # a Latin-1 "\u00e9" is no UTF-8 byte sequence
            path.write_bytes(b"\xe9" + path.read_bytes())
        result = invoke("--config", str(files["config"]), "train")
        assert result.exit_code == 2, result.output
        assert str(path) in result.output
        assert "Errno" not in result.output and "codec" not in result.output
        assert not PYTHON_INTERNALS.search(result.output), result.output
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"classes": []}, "binary task needs exactly 2 labels, got 0"),
        ({"literal_templates": ["{kw} and {other}"]},
         "template '{kw} and {other}' must hold a {kw} placeholder"),
        ({"literal_templates": ["{kw} {"]},
         "template '{kw} {' must hold a {kw} placeholder"),
        ({"figurative_templates": ["{{kw}}"]},
         "template '{{kw}}' must hold a {kw} placeholder"),
        ({"keywords": {"ailment": ["fever"], "banter": ["meme"],
                       "errand": ["laundry"]}},
         "keywords name 'errand', which is not one of the classes")],
        ids=["no classes", "unknown field", "lone brace", "escaped kw",
             "unknown keyword class"])
    def test_malformed_synth_spec_exits_2(self, tmp_path, edit, message):
        out = tmp_path / "run"
        payload = small_config(str(out))
        payload["data"]["synth_spec"].update(edit)
        result = invoke("--config", str(write_config(tmp_path, payload)),
                        "train")
        assert result.exit_code == 2, result.output
        assert f"error: data.synth_spec: {message}" in result.output
        assert not PYTHON_INTERNALS.search(result.output), result.output
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

    def test_grid_whose_cells_all_fail_still_writes_its_tables(
            self, tmp_path):
        out = tmp_path / "g"
        payload = small_config(str(out), max_epochs=2)
        payload["grid"] = {"batch_size": [256, 512]}
        summary = run_grid(ExperimentConfig.from_dict(payload))
        assert summary["n_failed"] == 2 and summary["winner"] is None
        with (out / "grid.csv").open() as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == \
                ["failed", "failed"]
        assert sorted(p.name for p in out.iterdir()) == \
            ["grid.csv", "grid.json"]

    def test_grid_without_dual_section(self, tmp_path):
        payload = small_config(str(tmp_path / "g"), mode="baseline",
                               max_epochs=2)
        del payload["dual"]
        payload["grid"] = {"batch_size": [8, 16]}
        result = invoke("--config", str(write_config(tmp_path, payload)),
                        "grid")
        assert result.exit_code == 0, result.output
        assert "winner: batch_size=" in result.output
        summary = json.loads((tmp_path / "g" / "grid.json").read_text())
        assert [r["status"] for r in summary["rows"]] == ["ok", "ok"]
        with (tmp_path / "g" / "grid.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["batch_size"], r["alpha"], r["tap_layer"],
                 r["inject_layer"]) for r in rows] == \
            [("8", "", "", ""), ("16", "", "", "")]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, tmp_path, workers):
        payload = small_config(str(tmp_path / "g"))
        payload["grid"] = {"alpha": [0.1, 0.3]}
        result = invoke("--workers", workers, "--config",
                        str(write_config(tmp_path, payload)), "grid")
        assert result.exit_code == 2
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("sweep", ["grid", "kfold", "ablation"])
    def test_workers_match_serial(self, tmp_path, monkeypatch, sweep):
        def run(name: str, workers: int | None) -> dict:
            payload["out_dir"] = str(tmp_path / name)
            config = ExperimentConfig.from_dict(payload)
            threads = threading.active_count()
            if sweep == "grid":
                summary = run_grid(config, workers)
            elif sweep == "kfold":
                summary = run_kfold(config, 3, workers=workers)
            else:
                summary = run_ablation(config, workers)
            assert multiprocessing.active_children() == []
            assert threading.active_count() == threads
            return summary

        payload = small_config("", max_epochs=2)
        # a rate at which proposed scores apart from the other modes, so
        # that an ablation row given another cell's result shows
        payload["train"]["learning_rate"] = 0.03
        if sweep == "grid":
            # 80 train examples: the batch-512 cells fail
            payload["grid"] = {"batch_size": [8, 512],
                               "alpha": [0.1, 0.3]}
        serial = run("serial", 1)
        pooled = run("parallel", 2)
        # the default is one worker per CPU this process may use, so a
        # 1-CPU host runs the same pool
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        default = run("default", None)
        assert serial["rows"] == pooled["rows"] == default["rows"]
        if sweep == "grid":
            assert pooled["n_failed"] == 2
        for name in ("parallel", "default"):
            assert_same_sweep(tmp_path / "serial", tmp_path / name)

    def test_default_pools_leave_no_child(self, tmp_path, monkeypatch,
                                          pools_made):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        payload = small_config(str(tmp_path / "ablate"), max_epochs=1)
        run_ablation(ExperimentConfig.from_dict(payload))
        assert multiprocessing.active_children() == []
        payload.update(out_dir=str(tmp_path / "grid"),
                       grid={"alpha": [0.1, 0.3]})
        run_grid(ExperimentConfig.from_dict(payload))
        assert multiprocessing.active_children() == []
        assert pools_made == [2, 2]


class FakePool:
    """A ProcessPoolExecutor stand-in that runs each submitted call at
    once, in this process, and records its pools and their submissions."""

    made: list["FakePool"] = []

    def __init__(self, max_workers: int, mp_context=None, initializer=None,
                 initargs=()) -> None:
        self.max_workers = max_workers
        self.mp_context = mp_context
        self.submitted: list[str] = []
        FakePool.made.append(self)

    def __enter__(self) -> "FakePool":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def submit(self, fn, job) -> Future:
        self.submitted.append(job[2])
        done = Future()
        done.set_result(fn(job))
        return done


class TestCellScheduling:
    """`_run_cells` with a fake pool: what it starts, in which order it
    submits, and in which order it returns."""

    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        FakePool.made = []
        # `parallel.process_pool` imports the pool class when called
        monkeypatch.setattr(futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness, "_cell", lambda job: job[2])
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)

    @staticmethod
    def jobs(*modes: str) -> list[tuple]:
        return [(SimpleNamespace(train=SimpleNamespace(mode=mode)), None,
                 f"{i}:{mode}") for i, mode in enumerate(modes)]

    def test_costliest_mode_first_and_results_in_job_order(self):
        jobs = self.jobs("baseline", "sa_only", "proposed", "baseline",
                         "proposed", "sa_only")
        assert harness._run_cells(jobs) == [job[2] for job in jobs]
        (made,) = FakePool.made
        assert made.max_workers == 2
        assert made.mp_context.get_start_method() == "fork"
        assert made.submitted == ["2:proposed", "4:proposed", "1:sa_only",
                                  "5:sa_only", "0:baseline", "3:baseline"]

    def test_never_more_workers_than_cells(self):
        jobs = self.jobs("baseline", "proposed", "sa_only")
        harness._run_cells(jobs, workers=8)
        assert [pool_.max_workers for pool_ in FakePool.made] == [3]

    @pytest.mark.parametrize("modes, workers", [
        (("proposed",), None), (("proposed",), 4),
        (("baseline", "sa_only", "proposed"), 1)],
        ids=["one cell", "one cell at 4 workers", "one worker"])
    def test_one_cell_or_one_worker_starts_no_pool(self, modes, workers):
        jobs = self.jobs(*modes)
        assert harness._run_cells(jobs, workers) == [job[2] for job in jobs]
        assert FakePool.made == []

    def test_one_cpu_runs_the_cells_here(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        harness._run_cells(self.jobs("baseline", "proposed"))
        assert FakePool.made == []

    def test_without_affinity_the_cpu_count_sizes_the_pool(
            self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        harness._run_cells(self.jobs(*["baseline"] * 5))
        assert [pool_.max_workers for pool_ in FakePool.made] == [3]


def assert_same_sweep(a: Path, b: Path) -> None:
    """Sweep directory b holds the files a does, with the same bytes, but
    for epochs.jsonl's wall-clock seconds and config.json's out_dir."""
    def files(root: Path) -> list[Path]:
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file())

    def without(record: dict, key: str) -> dict:
        return {k: v for k, v in record.items() if k != key}

    names = files(a)
    assert names == files(b)
    assert {"checkpoint.bin", "epochs.jsonl", "config.json"} <= \
        {name.name for name in names}
    for name in names:
        left, right = (root / name for root in (a, b))
        if name.name == "epochs.jsonl":
            assert [without(json.loads(line), "seconds") for line in
                    left.read_text(encoding="utf-8").splitlines()] == \
                [without(json.loads(line), "seconds") for line in
                 right.read_text(encoding="utf-8").splitlines()], name
        elif name.name == "config.json":
            assert without(json.loads(left.read_text(encoding="utf-8")),
                           "out_dir") == \
                without(json.loads(right.read_text(encoding="utf-8")),
                        "out_dir"), name
        else:
            assert left.read_bytes() == right.read_bytes(), name


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

    def test_fold_checkpoint_exports_its_folds_test_split(self, tmp_path):
        # a fold's checkpoint records the fold, so export prepares that
        # fold's splits again rather than the corpus's plain split
        out = tmp_path / "kf"
        payload = small_config(str(out), max_epochs=1)
        cfg = write_config(tmp_path, payload)
        assert invoke("--config", str(cfg), "kfold", "-k", "3").exit_code \
            == 0
        ckpt = out / "fold1" / "checkpoint.bin"
        assert load_checkpoint(ckpt)[0]["fold"] == \
            {"k": 3, "index": 1, "val_fraction": 0.2}
        result = invoke("--out", str(tmp_path / "exp"), "export-embeddings",
                        "--checkpoint", str(ckpt), "--split", "test")
        assert result.exit_code == 0, result.output
        with (tmp_path / "exp" / "embeddings.csv").open() as fh:
            ids = [row["id"] for row in csv.DictReader(fh)]
        config = ExperimentConfig.from_dict(payload)
        folds = k_folds(gen_synthetic(config.data.synth_spec,
                                      seed=config.train.seed),
                        3, config.train.seed)
        assert ids == [ex.id for ex in folds.folds[1]]

    def test_k_must_be_at_least_2(self, tmp_path):
        cfg = write_config(tmp_path,
                           small_config(str(tmp_path / "kf")))
        result = invoke("--config", str(cfg), "kfold", "-k", "1")
        assert result.exit_code == 2

    def test_empty_inner_split_exits_2_without_directory(self, tmp_path):
        # every fold's train split is empty at this val fraction; that is
        # found before any fold runs, so no sweep directory is made
        out = tmp_path / "kf"
        cfg = write_config(tmp_path, small_config(str(out)))
        result = invoke("--config", str(cfg), "kfold", "-k", "3",
                        "--val-fraction", "0.999")
        assert multiprocessing.active_children() == []
        assert result.exit_code == 2, result.output
        assert "fold 0: training needs a non-empty train split" in \
            result.output
        assert not out.exists()

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


class TestOutPath:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below"])
    @pytest.mark.parametrize("command", [
        ("train",), ("grid",), ("kfold", "-k", "2"), ("ablate",)],
        ids=["train", "grid", "kfold", "ablate"])
    def test_out_at_or_below_a_file_exits_2_before_any_work(
            self, tmp_path, monkeypatch, command, below):
        trained = []
        for name in ("prepare_data", "_corpus", "train"):
            monkeypatch.setattr(harness, name,
                                lambda *a, name=name: trained.append(name))
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory", encoding="utf-8")
        out = blocker / "run" if below else blocker
        payload = small_config(str(tmp_path / "unused"))
        payload["grid"] = {"alpha": [0.1, 0.2]}
        # one worker: a cell's training would reach the spy in this process
        result = invoke("--workers", "1", "--config",
                        str(write_config(tmp_path, payload)),
                        "--out", str(out), *command)
        assert result.exit_code == 2, result.output
        assert str(out) in result.output
        assert "not a directory" in result.output
        assert trained == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["exp.json", "taken"]
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    @pytest.mark.parametrize("command, blocker, is_dir", [
        (("grid",), "grid.csv", True), (("grid",), "grid.json", True),
        (("grid",), "cell001", False),
        (("kfold", "-k", "2"), "kfold.csv", True),
        (("kfold", "-k", "2"), "fold1", False),
        (("ablate",), "ablation.json", True),
        (("ablate",), "baseline", False)],
        ids=["grid csv", "grid json", "grid cell", "kfold csv", "kfold fold",
             "ablate json", "ablate mode"])
    def test_sweep_output_path_taken_exits_2_before_any_cell(
            self, tmp_path, monkeypatch, command, blocker, is_dir):
        # a table file that is a directory, or a cell's run directory
        # that is a file, stops the sweep before its data is prepared
        trained = []
        for name in ("prepare_data", "_corpus", "train"):
            monkeypatch.setattr(harness, name,
                                lambda *a, name=name: trained.append(name))
        out = tmp_path / "out"
        out.mkdir()
        taken = out / blocker
        if is_dir:
            taken.mkdir()
        else:
            taken.write_text("taken", encoding="utf-8")
        payload = small_config(str(out))
        payload["grid"] = {"alpha": [0.1, 0.2]}
        # one worker: a cell's training would reach the spy in this process
        result = invoke("--workers", "1", "--config",
                        str(write_config(tmp_path, payload)), *command)
        assert result.exit_code == 2, result.output
        assert repr(str(taken)) in result.output
        assert ("is a directory" if is_dir else "not a directory") \
            in result.output
        assert trained == []
        assert [p.name for p in out.iterdir()] == [blocker]

    def test_export_below_a_file_exits_2(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        result = invoke("--out", str(blocker), "export-embeddings",
                        "--checkpoint", str(tmp_path / "missing.bin"))
        assert result.exit_code == 2, result.output
        assert str(blocker) in result.output

    @pytest.mark.parametrize("command, target", [
        (("export-embeddings", "--checkpoint", "run.bin"), "embeddings.csv"),
        (("gen-synth", "--spec", "spec.json"), "corpus.jsonl"),
        (("gen-synth", "--spec", "spec.json"), "corpus.labels.json")],
        ids=["export", "gen-synth corpus", "gen-synth labels"])
    def test_output_file_that_is_a_directory_exits_2_before_any_work(
            self, tmp_path, monkeypatch, command, target):
        ran = []
        for name in ("load_checkpoint", "prepare_data", "load_synth_spec",
                     "gen_synthetic"):
            monkeypatch.setattr(harness, name,
                                lambda *a, name=name, **k: ran.append(name))
        (tmp_path / target).mkdir()
        result = invoke("--out", str(tmp_path), *command)
        assert result.exit_code == 2, result.output
        assert f"{str(tmp_path / target)!r} is a directory" in result.output
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [target]


class TestSweepFailure:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command, table", [
        (("kfold", "-k", "3"), "kfold.csv"),
        (("ablate",), "ablation.csv")], ids=["kfold", "ablate"])
    def test_failing_cell_exits_2_without_table(self, tmp_path, command,
                                                table, workers):
        payload = small_config(str(tmp_path / "out"), max_epochs=2)
        payload["train"]["batch_size"] = 512
        result = invoke("--workers", workers, "--config",
                        str(write_config(tmp_path, payload)), *command)
        assert multiprocessing.active_children() == []
        assert result.exit_code == 2
        assert "smaller than one batch" in result.output
        assert not (tmp_path / "out" / table).exists()
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("task", ["desk preset", "multilabel"])
    def test_export_recounts_to_the_test_metrics(self, tmp_path, task):
        # the exported gold and predicted columns of the test split are
        # the decisions metrics.json scored
        out = tmp_path / "run"
        preset = resources.files("selfaug") / "presets" / "desk_binary.json"
        payload = json.loads(preset.read_text(encoding="utf-8"))
        payload["out_dir"] = str(out)
        if task == "multilabel":
            # three epochs leave one- and many-label predictions, right
            # and wrong ones, so the recount is no tautology
            payload["data"]["synth_spec"].update(
                task_kind="multilabel", count=300,
                classes=["ailment", "banter", "errand"],
                keywords={"ailment": ["fever", "nausea"],
                          "banter": ["meme", "prank"],
                          "errand": ["laundry", "grocery"]})
            payload["train"].update(mode="baseline", learning_rate=0.005,
                                    max_epochs=3, patience=3)
        cfg = write_config(tmp_path, payload)
        assert invoke("--config", str(cfg), "train").exit_code == 0
        result = invoke("--out", str(tmp_path / "exp"), "export-embeddings",
                        "--checkpoint", str(out / "checkpoint.bin"),
                        "--split", "test", "--layer", "pooled_final")
        assert result.exit_code == 0, result.output
        labels = payload["data"]["synth_spec"]["classes"]
        with (tmp_path / "exp" / "embeddings.csv").open(
                encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))

        def decisions(column):
            return [{labels.index(name) for name in row[column].split("|")}
                    for row in rows]
        _, macro, _, accuracy = oracle_bundle(
            decisions("predicted"), decisions("gold"), len(labels))
        test = json.loads((out / "metrics.json").read_text())["test"]
        assert test["n_examples"] == len(rows)
        assert abs(test["macro"]["f1"] - macro[2]) <= 5e-7
        assert abs(test["accuracy"] - accuracy) <= 5e-7
        if task == "multilabel":
            assert test["macro"]["f1"] < 1.0
            assert {"banter", "ailment|banter|errand"} <= \
                {row["predicted"] for row in rows}

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

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_checkpoint_exits_2(self, tmp_path, kind):
        path = tmp_path / ("nonexistent.bin" if kind == "missing" else "")
        result = invoke("--out", str(tmp_path / "exp"), "export-embeddings",
                        "--checkpoint", str(path))
        assert result.exit_code == 2, result.output
        assert f"error: {path}: cannot read the checkpoint" in result.output
        assert "Errno" not in result.output
        assert not PYTHON_INTERNALS.search(result.output), result.output
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("pooling,tap_layer", [
        ("mean", 1), ("mean", 2), ("cls", 2)])
    def test_export_matches_full_forward(self, tmp_path, pooling, tap_layer):
        # export runs the top layer for the CLS row alone unless it
        # mean-pools that layer; the vectors match a full forward's
        out = tmp_path / "run"
        payload = small_config(str(out))
        payload["dual"].update(pooling=pooling, tap_layer=tap_layer)
        cfg = write_config(tmp_path, payload)
        assert invoke("--config", str(cfg), "train").exit_code == 0
        _, arrays = load_checkpoint(out / "checkpoint.bin")
        config = ExperimentConfig.from_dict(payload)
        prepared = prepare_data(config)
        model = _restored_model(config, prepared, arrays)
        for layer in EXPORT_LAYERS:
            result = invoke("--out", str(tmp_path / layer),
                            "export-embeddings", "--checkpoint",
                            str(out / "checkpoint.bin"), "--layer", layer)
            assert result.exit_code == 0, result.output
            with (tmp_path / layer / "embeddings.csv").open() as fh:
                rows = {r["id"]: r for r in csv.DictReader(fh)}
            source = 2 if layer == "pooled_final" else tap_layer
            for batch in batches(encode_split(
                    prepared.test, prepared.vocab, prepared.label_space,
                    config.model.max_seq_len), 32, train=False):
                _, hidden = model.forward(batch)
                want = pool(hidden[source], batch.layout, pooling).data
                for row_id, vec in zip(batch.ids, want):
                    got = [float(rows[row_id][f"e{i}"])
                           for i in range(len(vec))]
                    np.testing.assert_allclose(got, vec, rtol=0,
                                               atol=5.1e-7)

    def test_export_across_batch_boundaries(self, tmp_path):
        # 340 test rows: two full export batches of 128 and a partial
        # one.  The rare long figurative template gives batches of
        # different widths, and a row's values may move only in the
        # rounding when its export batch is wider than its batch of 32
        out = tmp_path / "run"
        payload = small_config(str(out), max_epochs=1)
        payload["data"]["synth_spec"].update(
            count=400, ambiguity=0.05, figurative_templates=[
                "honestly this whole {kw} thing has gone on for far too "
                "long"])
        payload["data"]["ratios"] = [0.1, 0.05, 0.85]
        cfg = write_config(tmp_path, payload)
        assert invoke("--config", str(cfg), "train").exit_code == 0
        _, arrays = load_checkpoint(out / "checkpoint.bin")
        config = ExperimentConfig.from_dict(payload)
        prepared = prepare_data(config)
        model = _restored_model(config, prepared, arrays)
        n = len(prepared.test)
        assert n > 300 and n % EXPORT_BATCH_SIZE != 0
        reference = list(batches(encode_split(
            prepared.test, prepared.vocab, prepared.label_space,
            config.model.max_seq_len), 32, train=False))
        assert len({b.token_ids.shape[1] for b in reference}) > 1
        for layer in EXPORT_LAYERS:
            result = invoke("--out", str(tmp_path / layer),
                            "export-embeddings", "--checkpoint",
                            str(out / "checkpoint.bin"), "--layer", layer)
            assert result.exit_code == 0, result.output
            with (tmp_path / layer / "embeddings.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert [r["id"] for r in rows] == \
                [ex.id for ex in prepared.test]
            source = 2 if layer == "pooled_final" else 1
            start = 0
            for batch in reference:
                _, hidden = model.forward(batch)
                want = pool(hidden[source], batch.layout, "cls").data
                got = [[float(row[f"e{i}"]) for i in range(want.shape[1])]
                       for row in rows[start:start + len(want)]]
                np.testing.assert_allclose(got, want, rtol=0, atol=5.1e-7)
                start += len(want)

    def _presplit_run(self, tmp_path, test_ids: list) -> Path:
        labels = ["head, ache", "banter"]
        space = tmp_path / "labels.json"
        space.write_text(json.dumps({"task_kind": "binary",
                                     "labels": labels}))
        payload = small_config(str(tmp_path / "run"), max_epochs=1)
        payload["data"] = {"label_space_path": str(space)}
        splits = {"train": [f"t{i}" for i in range(16)],
                  "val": ["v0", "v1"], "test": test_ids}
        for name, ids in splits.items():
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(
                json.dumps({"id": ex_id, "labels": [labels[i % 2]],
                            "text": ["fever all night", "a prank"][i % 2]})
                + "\n" for i, ex_id in enumerate(ids)))
            payload["data"][f"{name}_path"] = str(path)
        cfg = write_config(tmp_path, payload)
        assert invoke("--config", str(cfg), "train").exit_code == 0
        return tmp_path / "run" / "checkpoint.bin"

    def test_csv_quoting_round_trips(self, tmp_path):
        test_ids = ["plain", "com,ma", 'quo"te', "new\nline", "car\rriage",
                    "both\r\nends", 7]
        ckpt = self._presplit_run(tmp_path, test_ids)
        result = invoke("--out", str(tmp_path / "exp"), "export-embeddings",
                        "--checkpoint", str(ckpt))
        assert result.exit_code == 0, result.output
        with (tmp_path / "exp" / "embeddings.csv").open(
                encoding="utf-8", newline="") as fh:
            text = fh.read()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [r[0] for r in rows[1:]] == [str(i) for i in test_ids]
        assert [r[1] for r in rows[1:]] == ["head, ache", "banter"] * 3 \
            + ["head, ache"]
        assert {r[2] for r in rows[1:]} <= {"head, ache", "banter"}
        assert rows[0][-2:] == ["pc1", "pc2"]
        assert all(len(r) == len(rows[0]) for r in rows)
        # each line is what the default csv.writer writes for its row, with
        # "\n" for its "\r\n": its minimal quoting covers both characters,
        # so a bare "\r" in an id is quoted and the row reads back whole
        def csv_line(row):
            buf = io.StringIO(newline="")
            csv.writer(buf).writerow(row)
            return buf.getvalue().removesuffix("\r\n") + "\n"
        assert text == "".join(csv_line(row) for row in rows)

    def test_single_row_split_exports_without_pcs(self, tmp_path):
        ckpt = self._presplit_run(tmp_path, ["only"])
        result = invoke("--out", str(tmp_path / "exp"), "export-embeddings",
                        "--checkpoint", str(ckpt))
        assert result.exit_code == 0, result.output
        text = (tmp_path / "exp" / "embeddings.csv").read_text(
            encoding="utf-8")
        header, row = csv.reader(io.StringIO(text))
        assert header == ["id", "gold", "predicted"] + \
            [f"e{i}" for i in range(8)]
        assert len(row) == len(header) and row[:2] == ["only", "head, ache"]
        assert text.endswith(row[-1] + "\n")  # no trailing comma

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
        # both Adam moment sets and the run summary, and later ones a key
        # bias per layer, a model_config meta key and the run's out_dir;
        # export reads only the f. arrays other than key biases, and three
        # meta keys
        ckpt = self._trained_checkpoint(tmp_path)
        meta, arrays = load_checkpoint(ckpt)
        rng = np.random.default_rng(0)
        keyed = dict(arrays)
        for i in range(2):
            keyed[f"f.layer{i}.attn_k_b"] = rng.normal(size=8)
        model_config = {"vocab_size": len(meta["vocab"]), "d_model": 8,
                        "n_heads": 2, "n_layers": 2, "d_ff": 16,
                        "max_seq_len": 16, "dropout_rate": 0.0,
                        "head_kind": "binary", "n_outputs": 2}
        experiment = {**meta["experiment"], "out_dir": str(ckpt.parent)}
        save_checkpoint(tmp_path / "keyed.bin",
                        {**meta, "experiment": experiment,
                         "model_config": model_config}, keyed)
        full = dict(arrays)
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
                               ("full", tmp_path / "full.bin"),
                               ("keyed", tmp_path / "keyed.bin")):
                result = invoke("--out", str(tmp_path / name / layer),
                                "export-embeddings", "--checkpoint",
                                str(path), "--layer", layer)
                assert result.exit_code == 0, result.output
            for name in ("full", "keyed"):
                assert (tmp_path / "slim" / layer / "embeddings.csv")\
                    .read_bytes() == \
                    (tmp_path / name / layer / "embeddings.csv").read_bytes()


class TestExportLanes:
    """An export's batches in two lanes (the cut-off patched to 0) write
    the bytes the one-lane export writes."""

    def _checkpoint(self, tmp_path, pooling: str) -> Path:
        payload = small_config(str(tmp_path / "run"), max_epochs=1)
        payload["dual"]["pooling"] = pooling
        run_training(ExperimentConfig.from_dict(payload))
        return tmp_path / "run" / "checkpoint.bin"

    @pytest.mark.parametrize("layer, pooling", [
        ("pooled_final", "cls"), ("tapped", "cls"), ("pooled_final", "mean")])
    def test_two_lanes_write_the_one_lane_bytes(self, tmp_path, monkeypatch,
                                               threads_started, layer,
                                               pooling):
        ckpt = self._checkpoint(tmp_path, pooling)
        # the 15 test rows in batches of 4: three full and one of 3
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        before = threading.active_count()
        written = []
        for value in (10**18, 0):
            monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", value)
            out = tmp_path / f"{value}.csv"
            assert harness.export_embeddings(ckpt, "test", layer, out) == 15
            written.append(out.read_bytes())
        assert threading.active_count() == before
        assert written[0] == written[1]
        assert len(threads_started) == 1  # the two-lane export's alone

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_in_an_export_lane_reaches_the_caller(self, tmp_path,
                                                        monkeypatch,
                                                        failing):
        ckpt = self._checkpoint(tmp_path, "cls")
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)
        meet, pooled = lanes_meet(), harness.pool

        def fails(*args):
            meet()
            if on_lane_zero() == (failing == 0):
                raise ShapeError(f"lane {failing}")
            return pooled(*args)

        monkeypatch.setattr(harness, "pool", fails)
        before = threading.active_count()
        with pytest.raises(ShapeError, match=f"lane {failing}"):
            harness.export_embeddings(ckpt, "test", "pooled_final",
                                      tmp_path / "out.csv")
        assert threading.active_count() == before
        assert not (tmp_path / "out.csv").exists()

    def test_screen_sized_export_starts_no_thread(self, tmp_path,
                                                 threads_started):
        # the desk model (d_model 32) exporting 840 posts of up to 8
        # tokens in batches of 128, as the benchmark's screen workload
        # exports its posts
        preset = resources.files("selfaug") / "presets" / "desk_binary.json"
        payload = json.loads(preset.read_text(encoding="utf-8"))
        payload["data"]["synth_spec"]["count"] = 1200
        payload["data"]["ratios"] = [0.2, 0.1, 0.7]
        payload["train"].update(max_epochs=1, patience=1)
        payload["out_dir"] = str(tmp_path / "run")
        run_training(ExperimentConfig.from_dict(payload))
        assert harness.export_embeddings(
            tmp_path / "run" / "checkpoint.bin", "test", "pooled_final",
            tmp_path / "out.csv") == 840
        assert threads_started == []


class TestExportProcesses:
    """An export's batches in runs over forked worker processes write the
    bytes the one-process export writes, and a failure in a worker, in
    either phase, reaches the caller and leaves no file and no child."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)

    @pytest.fixture(autouse=True)
    def a_process_per_row(self, monkeypatch):
        # so that the batch count alone caps the processes
        monkeypatch.setattr(parallel, "PROCESS_MIN_ROWS", 1)

    def _checkpoint(self, tmp_path, pooling: str = "cls") -> Path:
        payload = small_config(str(tmp_path / "run"), max_epochs=1)
        payload["dual"]["pooling"] = pooling
        # its test evaluation in this process: the pools seen are the
        # export's
        run_training(ExperimentConfig.from_dict(payload), workers=1)
        return tmp_path / "run" / "checkpoint.bin"

    @pytest.mark.parametrize("layer, pooling", [
        ("pooled_final", "cls"), ("tapped", "cls"), ("pooled_final", "mean")])
    def test_workers_write_the_one_worker_bytes(self, tmp_path, monkeypatch,
                                               threads_started, pools_made,
                                               layer, pooling):
        ckpt = self._checkpoint(tmp_path, pooling)
        # the 15 test rows in batches of 4: three full and one of 3, so
        # that two processes take runs of 2 and 2 batches, three of 1, 1
        # and 2, and the last run ends in the partial batch
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        # every process logs the ids of each batch it runs to one file
        log = tmp_path / "batches"

        def logged(*args, **kwargs):
            for batch in batches(*args, **kwargs):
                with log.open("a", encoding="utf-8") as fh:
                    fh.write(" ".join(batch.ids) + "\n")
                yield batch

        monkeypatch.setattr(harness, "batches", logged)
        written, runs = [], []
        for workers in (1, 2, None):
            out = tmp_path / f"{workers}.csv"
            assert harness.export_embeddings(ckpt, "test", layer, out,
                                             workers) == 15
            assert multiprocessing.active_children() == []
            written.append(out.read_bytes())
            runs.append(sorted(log.read_text(encoding="utf-8").splitlines()))
            log.unlink()
        assert written[0] == written[1] == written[2]
        assert runs[0] == runs[1] == runs[2]  # the same batches
        assert pools_made == [1, 2]  # beside the calling process's run
        assert threads_started == []
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["1.csv", "2.csv", "None.csv", "run"]

    def test_one_batch_starts_no_child(self, tmp_path, pools_made):
        ckpt = self._checkpoint(tmp_path)
        assert harness.export_embeddings(ckpt, "test", "pooled_final",
                                         tmp_path / "out.csv", 4) == 15
        assert pools_made == []

    def test_without_fork_the_export_runs_here(self, tmp_path, monkeypatch,
                                               pools_made):
        ckpt = self._checkpoint(tmp_path)
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        monkeypatch.setattr(parallel, "FORK", None)
        harness.export_embeddings(ckpt, "test", "pooled_final",
                                  tmp_path / "out.csv")
        assert pools_made == []

    def test_lanes_take_the_export_without_children(self, tmp_path,
                                                    monkeypatch,
                                                    threads_started,
                                                    pools_made):
        ckpt = self._checkpoint(tmp_path)
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)
        harness.export_embeddings(ckpt, "test", "pooled_final",
                                  tmp_path / "out.csv")
        assert pools_made == []
        assert len(threads_started) == 1

    @staticmethod
    def _fail_in(monkeypatch, phase: int, where: str,
                 error: type[Exception]) -> None:
        """Make phase 1 (the forward's pooling) or phase 2 (the text's
        label fields) raise `error` in the worker (`where` "worker") or
        in this process (`where` "caller")."""
        caller, name = os.getpid(), "pool" if phase == 1 else "compress"
        original = getattr(harness, name)

        def fails(*args):
            if (os.getpid() == caller) == (where == "caller"):
                raise error(f"phase {phase} in the {where}")
            return original(*args)

        monkeypatch.setattr(harness, name, fails)

    @pytest.mark.parametrize("where", ["worker", "caller"])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_error_reaches_the_caller_and_leaves_no_file(
            self, tmp_path, monkeypatch, pools_made, phase, where):
        ckpt = self._checkpoint(tmp_path)
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        self._fail_in(monkeypatch, phase, where, ShapeError)
        with pytest.raises(ShapeError, match=f"phase {phase} in the {where}"):
            harness.export_embeddings(ckpt, "test", "pooled_final",
                                      tmp_path / "out.csv", 2)
        assert pools_made == [1]
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    @pytest.mark.parametrize("error, code", [(ShapeError, 1), (DataError, 2)])
    @pytest.mark.parametrize("phase", [1, 2])
    def test_command_exits_without_traceback(self, tmp_path, monkeypatch,
                                             phase, error, code):
        ckpt = self._checkpoint(tmp_path)
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        self._fail_in(monkeypatch, phase, "worker", error)
        result = invoke("--workers", "2", "--out", str(tmp_path / "x"),
                        "export-embeddings", "--checkpoint", str(ckpt))
        assert result.exit_code == code
        assert result.output == f"error: phase {phase} in the worker\n"
        assert multiprocessing.active_children() == []
        # phase 2 made the output directory, as the export always has
        # once its rows are computed, and left nothing in it
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            (["run"] if phase == 1 else ["run", "x"])
        assert phase == 1 or list((tmp_path / "x").iterdir()) == []

    @pytest.mark.parametrize("flag, pools", [([], [2]),
                                             (["--workers", "1"], [])])
    def test_command_takes_the_workers_flag(self, tmp_path, monkeypatch,
                                            pools_made, flag, pools):
        ckpt = self._checkpoint(tmp_path)
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        result = invoke(*flag, "--out", str(tmp_path), "export-embeddings",
                        "--checkpoint", str(ckpt))
        assert result.exit_code == 0, result.output
        assert pools_made == pools


@pytest.fixture
def pools_anywhere(tmp_path, monkeypatch):
    """A function that returns the worker count of every pool
    `parallel.process_pool` has built while the test runs, in this
    process or in any process forked from it, in the order built."""
    log = tmp_path / "pools.log"
    process_pool = parallel.process_pool

    def spy(workers, *args):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(f"{workers}\n")
        return process_pool(workers, *args)

    monkeypatch.setattr(parallel, "process_pool", spy)
    return lambda: [int(line) for line in
                    log.read_text(encoding="utf-8").split()] \
        if log.exists() else []


class TestOneLevelOfParallelism:
    """Only a train run's test evaluation takes --workers processes:
    sweep cells and per-epoch validation evaluate in their own process,
    so a sweep starts its own pool alone, and a train run at any worker
    count writes the same bytes."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)

    @pytest.fixture
    def floor(self, monkeypatch):
        """Set the fewest rows a process takes; at 4, every test split
        here is above it."""
        def set_to(rows: int) -> None:
            monkeypatch.setattr(parallel, "PROCESS_MIN_ROWS", rows)
        return set_to

    @pytest.mark.parametrize("flag", [["--workers", "2"], []],
                             ids=["two", "default"])
    @pytest.mark.parametrize("command", ["ablate", "grid", "kfold"])
    def test_a_sweep_starts_its_pool_alone(self, tmp_path, floor,
                                           pools_anywhere, command, flag):
        floor(4)
        payload = small_config(str(tmp_path / "out"), max_epochs=1)
        if command == "grid":
            payload["grid"] = {"alpha": [0.1, 0.3]}
        result = invoke(*flag, "--config",
                        str(write_config(tmp_path, payload)), command,
                        *(["-k", "3"] if command == "kfold" else []))
        assert result.exit_code == 0, result.output
        assert pools_anywhere() == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("flag, rows, pools", [
        (["--workers", "1"], 4, []),
        ([], parallel.PROCESS_MIN_ROWS, []),  # 15 test rows, below it
        ([], 4, [1]),
        (["--workers", "2"], 4, [1])],
        ids=["one", "below-floor", "default", "two"])
    def test_train_takes_the_workers_flag(self, tmp_path, floor,
                                          pools_anywhere, flag, rows,
                                          pools):
        floor(rows)
        payload = small_config(str(tmp_path / "run"), max_epochs=1)
        result = invoke(*flag, "--config",
                        str(write_config(tmp_path, payload)), "train")
        assert result.exit_code == 0, result.output
        assert pools_anywhere() == pools
        assert multiprocessing.active_children() == []

    def test_train_writes_the_same_bytes_at_any_workers(self, tmp_path,
                                                        floor):
        floor(4)
        for name, flag in (("one", ["--workers", "1"]), ("default", []),
                           ("three", ["--workers", "3"])):
            payload = small_config(str(tmp_path / name), max_epochs=2)
            result = invoke(*flag, "--config",
                            str(write_config(tmp_path, payload)), "train")
            assert result.exit_code == 0, result.output
        for name in ("default", "three"):
            assert_same_sweep(tmp_path / "one", tmp_path / name)


class TestKilledWorker:
    """A worker that dies by SIGKILL, in a sweep's pool, in a train run's
    test evaluation or in an export's first phase, breaks the call: it
    raises, the command exits 1 with one error line, and no table, run
    directory, CSV or temporary CSV and no child is left."""

    @staticmethod
    def _killed_in_worker(monkeypatch, name: str, dies,
                          owner=harness) -> None:
        """Make owner.`name` kill the worker process that calls it with
        arguments for which dies(*args) holds."""
        caller, original = os.getpid(), getattr(owner, name)

        def kills(*args):
            if os.getpid() != caller and dies(*args):
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(owner, name, kills)

    @staticmethod
    def _assert_one_error_line(result) -> None:
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command, tables", [
        ("grid", ("grid.csv", "grid.json")),
        ("ablate", ("ablation.csv", "ablation.json"))])
    def test_killed_cell_worker_breaks_the_sweep(self, tmp_path, monkeypatch,
                                                 command, tables):
        payload = small_config(str(tmp_path / "out"), max_epochs=1)
        if command == "grid":
            payload["grid"] = {"alpha": [0.1, 0.3]}
        # the proposed cells' workers die: in the ablation the others'
        # cells run on
        self._killed_in_worker(monkeypatch, "train",
                               lambda *args: args[7].mode == "proposed")
        config = ExperimentConfig.from_dict(payload)
        with pytest.raises(BrokenProcessPool):
            if command == "grid":
                run_grid(config, workers=2)
            else:
                run_ablation(config, workers=2)
        assert multiprocessing.active_children() == []
        result = invoke("--workers", "2", "--config",
                        str(write_config(tmp_path, payload)), command)
        self._assert_one_error_line(result)
        assert multiprocessing.active_children() == []
        for table in tables:
            assert not (tmp_path / "out" / table).exists()

    def test_killed_evaluation_worker_breaks_the_run(self, tmp_path,
                                                     monkeypatch):
        # a process per 4 rows: the 15-row test split takes two
        monkeypatch.setattr(parallel, "PROCESS_MIN_ROWS", 4)
        self._killed_in_worker(monkeypatch, "predict", lambda *args: True,
                               training)
        payload = small_config(str(tmp_path / "run"), max_epochs=1)
        with pytest.raises(BrokenProcessPool):
            run_training(ExperimentConfig.from_dict(payload), workers=2)
        assert multiprocessing.active_children() == []
        result = invoke("--workers", "2", "--config",
                        str(write_config(tmp_path, payload)), "train")
        self._assert_one_error_line(result)
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    def test_killed_export_worker_breaks_the_export(self, tmp_path,
                                                    monkeypatch):
        payload = small_config(str(tmp_path / "run"), max_epochs=1)
        run_training(ExperimentConfig.from_dict(payload))
        ckpt = tmp_path / "run" / "checkpoint.bin"
        monkeypatch.setattr(harness, "EXPORT_BATCH_SIZE", 4)
        monkeypatch.setattr(parallel, "PROCESS_MIN_ROWS", 1)
        self._killed_in_worker(monkeypatch, "pool", lambda *args: True)
        with pytest.raises(BrokenProcessPool):
            harness.export_embeddings(ckpt, "test", "pooled_final",
                                      tmp_path / "x" / "embeddings.csv", 2)
        assert multiprocessing.active_children() == []
        result = invoke("--workers", "2", "--out", str(tmp_path / "x"),
                        "export-embeddings", "--checkpoint", str(ckpt))
        self._assert_one_error_line(result)
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]
        assert list(tmp_path.rglob("*embeddings.csv*")) == []


class TestSyntheticCorpusOnce:
    """Preparing a config's data and then training on that config
    generates its synthetic corpus once; a config built anew, a changed
    spec or another seed generates it again, and the corpus is let go
    with its config."""

    @pytest.fixture
    def generated(self, monkeypatch) -> list:
        made, generate = [], harness.gen_synthetic
        monkeypatch.setattr(harness, "_last_synthetic", None)

        def spy(spec, seed):
            made.append(seed)
            return generate(spec, seed=seed)

        monkeypatch.setattr(harness, "gen_synthetic", spy)
        return made

    def test_prepare_then_train_generates_once(self, tmp_path, generated):
        config = ExperimentConfig.from_dict(
            small_config(str(tmp_path / "run"), max_epochs=1))
        prepared = prepare_data(config)
        run_training(config, workers=1)
        assert generated == [0]
        again = prepare_data(config)
        assert (again.train, again.val, again.test) == \
            (prepared.train, prepared.val, prepared.test)
        assert generated == [0]

    def test_a_new_config_spec_or_seed_generates_again(self, tmp_path,
                                                       generated):
        payload = small_config(str(tmp_path / "run"))
        config = ExperimentConfig.from_dict(payload)
        harness._corpus(config)[0].clear()  # the caller's list alone
        assert len(harness._corpus(config)[0]) == 100
        config.data.synth_spec.count = 60  # the kept spec is a copy
        assert len(harness._corpus(config)[0]) == 60
        config.data.synth_spec.count = 100
        # the same spec object at another seed, then at its own again
        prepare_data(replace(config, train=replace(config.train, seed=4)))
        prepare_data(config)
        prepare_data(ExperimentConfig.from_dict(payload))  # equal, anew
        assert generated == [0, 0, 4, 0, 0]
        # the corpus went with the config that was dropped
        assert harness._last_synthetic is None


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
