"""Experiment harness: data preparation, single runs, grid search, k-fold,
ablations, and embedding export.

Every run directory holds the same four artifacts (config.json as the
resolved snapshot, checkpoint.bin, epochs.jsonl, metrics.json), and every
primary output except wall-clock fields in epochs.jsonl is byte-identical across
reruns with the same config and seed.  Configuration and data problems
surface before the output directory is created, so a failed start leaves
no partial run behind.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig
from .data import (Example, LabelSpace, Vocabulary, batches, build_vocab,
                   gen_synthetic, k_folds, load_jsonl, load_label_space,
                   load_synth_spec, make_splits, write_jsonl)
from .errors import ConfigError, DataError
from .metrics import MetricsBundle
from .model import (EncoderModel, ModelConfig, load_checkpoint, pool,
                    predict, save_checkpoint)
from .objective import ProjectionNetwork
from .training import TrainResult, evaluate, train

EXPORT_LAYERS = ("pooled_final", "tapped")
SPLIT_NAMES = ("train", "val", "test")
ABLATION_ROWS = (("Baseline", "baseline"), ("+SA", "sa_only"),
                 ("+Proposed", "proposed"))

GRID_CSV_COLUMNS = ("cell", "batch_size", "alpha", "tap_layer",
                    "inject_layer", "status", "best_epoch", "best_val_f1",
                    "test_precision", "test_recall", "test_f1", "error")
KFOLD_CSV_COLUMNS = ("fold", "best_epoch", "best_val_f1",
                     "test_precision", "test_recall", "test_f1")
ABLATION_CSV_COLUMNS = ("row", "mode", "best_epoch", "best_val_f1",
                        "test_precision", "test_recall", "test_f1")
CSV_FLOAT_COLUMNS = frozenset({"alpha", "best_val_f1", "test_precision",
                               "test_recall", "test_f1"})


@dataclass
class PreparedData:
    train: list[Example]
    val: list[Example]
    test: list[Example]
    vocab: Vocabulary
    label_space: LabelSpace
    stratified: bool | None  # None when splits came pre-made


def _corpus(config: ExperimentConfig) -> tuple[list[Example], LabelSpace]:
    data = config.data
    if data.synth_spec is not None or data.synth_spec_path is not None:
        spec = data.synth_spec if data.synth_spec is not None \
            else load_synth_spec(data.synth_spec_path)
        return gen_synthetic(spec, seed=config.train.seed), \
            spec.label_space()
    label_space = load_label_space(data.label_space_path)
    return load_jsonl(data.dataset_path, label_space), label_space


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """Materialize splits and vocabulary for one experiment."""
    data = config.data
    if data.presplit:
        label_space = load_label_space(data.label_space_path)
        parts = [load_jsonl(p, label_space)
                 for p in (data.train_path, data.val_path, data.test_path)]
        train_ex, val_ex, test_ex = parts
        stratified = None
    else:
        examples, label_space = _corpus(config)
        splits = make_splits(examples, data.ratios, config.train.seed)
        train_ex, val_ex, test_ex = splits.train, splits.val, splits.test
        stratified = splits.stratified
    if not train_ex:
        raise DataError("prepared training split is empty")
    vocab = build_vocab(train_ex, min_freq=data.min_freq,
                        max_size=data.max_vocab)
    return PreparedData(train=train_ex, val=val_ex, test=test_ex,
                        vocab=vocab, label_space=label_space,
                        stratified=stratified)


def _build_components(config: ExperimentConfig, model_cfg: ModelConfig):
    # stream seeds are offsets of the run seed so the two encoders and
    # the projection start from distinct but reproducible states
    seed = config.train.seed
    mode = config.train.mode
    model_f = EncoderModel(model_cfg, seed=seed)
    model_c = EncoderModel(model_cfg, seed=seed + 1) \
        if mode != "baseline" else None
    projection = None
    if mode == "proposed":
        projection = ProjectionNetwork(model_cfg.d_model,
                                       config.dual.projection_dims,
                                       seed=seed + 2)
    return model_f, model_c, projection


def _restored_model(model_cfg: ModelConfig,
                    state: dict[str, np.ndarray]) -> EncoderModel:
    model = EncoderModel(model_cfg, seed=0)
    model.load_state({name[2:]: arr for name, arr in state.items()
                      if name.startswith("f.")})
    return model


def _label_space_meta(label_space: LabelSpace) -> dict:
    return {"task_kind": label_space.task_kind,
            "labels": list(label_space.labels)}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_run_artifacts(run_dir: Path, config: ExperimentConfig,
                         model_cfg: ModelConfig, prepared: PreparedData,
                         result: TrainResult, arrays: dict[str, np.ndarray],
                         val: MetricsBundle, test: MetricsBundle) -> dict:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(_json_text(config.to_dict()),
                                         encoding="utf-8")
    with (run_dir / "epochs.jsonl").open("w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    metrics = {"mode": config.train.mode,
               "seed": config.train.seed,
               "best_epoch": result.best_epoch,
               "best_val_f1": round(result.best_f1, 6),
               "epochs_run": len(result.records),
               "stopped_early": result.stopped_early,
               "val": val.to_dict(),
               "test": test.to_dict()}
    (run_dir / "metrics.json").write_text(_json_text(metrics),
                                          encoding="utf-8")
    # exactly what export_embeddings reads back
    meta = {"experiment": config.to_dict(),
            "model_config": model_cfg.to_dict(),
            "label_space": _label_space_meta(prepared.label_space),
            "vocab": prepared.vocab.id_to_token}
    save_checkpoint(run_dir / "checkpoint.bin", meta, arrays)
    return metrics


def _execute(config: ExperimentConfig, prepared: PreparedData,
             run_dir: Path) -> dict:
    """Train on already-prepared data and write the four artifacts."""
    model_cfg = replace(config.model, vocab_size=len(prepared.vocab),
                        head_kind=prepared.label_space.task_kind,
                        n_outputs=len(prepared.label_space.labels))
    model_f, model_c, projection = _build_components(config, model_cfg)
    result = train(model_f, model_c, projection, prepared.train,
                   prepared.val, prepared.vocab, prepared.label_space,
                   config.dual, config.train, config.threshold)
    arrays = {f"f.{name}": arr for name, arr in result.state.items()}
    best = _restored_model(model_cfg, arrays)
    val = evaluate(best, prepared.val, prepared.vocab,
                   prepared.label_space, config.train.batch_size,
                   config.threshold)
    test = evaluate(best, prepared.test, prepared.vocab,
                    prepared.label_space, config.train.batch_size,
                    config.threshold)
    metrics = _write_run_artifacts(run_dir, config, model_cfg, prepared,
                                   result, arrays, val, test)
    metrics["run_dir"] = str(run_dir)
    return metrics


def run_training(config: ExperimentConfig) -> dict:
    """One training run into config.out_dir; returns the metrics payload."""
    prepared = prepare_data(config)  # before mkdir: bad data, no debris
    if not prepared.val or not prepared.test:
        raise DataError("training needs non-empty validation and test "
                        "splits")
    return _execute(config, prepared, Path(config.out_dir))


def _csv_cell(column: str, value):
    if value is None:
        return ""
    return f"{value:.6f}" if column in CSV_FLOAT_COLUMNS else value


def _write_csv(path: Path, columns: tuple[str, ...],
               rows: list[dict]) -> None:
    """One line per row dict; a missing or None value is an empty cell."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(col, row.get(col))
                             for col in columns])


def _grid_cell(config: ExperimentConfig, index: int, cell: dict) -> dict:
    row = {"cell": index, **cell}
    run_dir = Path(config.out_dir) / f"cell{index:03d}"
    try:
        metrics = run_training(replace(config.with_cell(cell),
                                       out_dir=str(run_dir)))
    except Exception as err:  # per-cell isolation: the grid keeps going
        row.update({"status": "failed", "error": str(err),
                    "best_epoch": None, "best_val_f1": None,
                    "test_precision": None, "test_recall": None,
                    "test_f1": None})
        return row
    row.update({"status": "ok", "error": "",
                "best_epoch": metrics["best_epoch"],
                "best_val_f1": metrics["best_val_f1"],
                "test_precision": metrics["test"]["macro"]["precision"],
                "test_recall": metrics["test"]["macro"]["recall"],
                "test_f1": metrics["test"]["macro"]["f1"]})
    return row


def _grid_cell_payload(payload: tuple[dict, int, dict]) -> dict:
    config_dict, index, cell = payload
    return _grid_cell(ExperimentConfig.from_dict(config_dict), index, cell)


def run_grid(config: ExperimentConfig, workers: int = 1) -> dict:
    """Exhaustive sweep over the configured grid axes.

    Cells run with identical seeds, so every cell sees the same splits and
    initial parameters; rows appear in enumeration order (batch_size, then
    alpha, then tap_layer, then inject_layer).  A failing cell is recorded
    and skipped, never fatal.
    """
    if config.grid is None:
        raise ConfigError("grid command needs a grid section")
    prepare_data(config)  # validate data before any cell starts
    cells = config.grid.cells(config.train, config.dual)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        payloads = [(config.to_dict(), i, cell)
                    for i, cell in enumerate(cells)]
        with ProcessPoolExecutor(max_workers=workers) as pool_:
            rows = list(pool_.map(_grid_cell_payload, payloads))
    else:
        rows = [_grid_cell(config, i, cell)
                for i, cell in enumerate(cells)]
    ok_rows = [r for r in rows if r["status"] == "ok"]
    winner = None
    if ok_rows:
        best = max(r["best_val_f1"] for r in ok_rows)
        winner = next(r for r in ok_rows if r["best_val_f1"] == best)
    summary = {"n_cells": len(rows),
               "n_failed": len(rows) - len(ok_rows),
               "rows": rows,
               "winner": winner}
    (out_dir / "grid.json").write_text(_json_text(summary),
                                       encoding="utf-8")
    _write_csv(out_dir / "grid.csv", GRID_CSV_COLUMNS, rows)
    return summary


def _kfold_fold(config: ExperimentConfig, k: int, index: int,
                val_fraction: float) -> dict:
    examples, label_space = _corpus(config)
    folds = k_folds(examples, k, config.train.seed)
    test_ex = folds.folds[index]
    rest = [ex for j, fold in enumerate(folds.folds) if j != index
            for ex in fold]
    inner = make_splits(rest, (1.0 - val_fraction, val_fraction, 0.0),
                        config.train.seed)
    prepared = PreparedData(
        train=inner.train, val=inner.val, test=test_ex,
        vocab=build_vocab(inner.train, min_freq=config.data.min_freq,
                          max_size=config.data.max_vocab),
        label_space=label_space, stratified=folds.stratified)
    run_dir = Path(config.out_dir) / f"fold{index}"
    metrics = _execute(config, prepared, run_dir)
    return {"fold": index,
            "best_epoch": metrics["best_epoch"],
            "best_val_f1": metrics["best_val_f1"],
            "test_precision": metrics["test"]["macro"]["precision"],
            "test_recall": metrics["test"]["macro"]["recall"],
            "test_f1": metrics["test"]["macro"]["f1"],
            "stratified": folds.stratified}


def _kfold_payload(payload: tuple[dict, int, int, float]) -> dict:
    config_dict, k, index, val_fraction = payload
    return _kfold_fold(ExperimentConfig.from_dict(config_dict), k, index,
                       val_fraction)


def run_kfold(config: ExperimentConfig, k: int, val_fraction: float = 0.2,
              workers: int = 1) -> dict:
    """Cross-validation: each fold is held out once as the test set, and
    the validation slice is carved from the remaining folds."""
    if k < 2:
        raise ConfigError("k must be at least 2")
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError("val_fraction must lie in (0, 1)")
    if not config.data.splittable:
        raise ConfigError("k-fold needs a splittable data source, not "
                          "pre-split files")
    _corpus(config)  # validate the source before creating output
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        payloads = [(config.to_dict(), k, i, val_fraction)
                    for i in range(k)]
        with ProcessPoolExecutor(max_workers=workers) as pool_:
            rows = list(pool_.map(_kfold_payload, payloads))
    else:
        rows = [_kfold_fold(config, k, i, val_fraction) for i in range(k)]
    stratified = all(row.pop("stratified") for row in rows)
    stats = {}
    for metric in ("test_precision", "test_recall", "test_f1"):
        values = np.array([row[metric] for row in rows])
        stats[metric] = {"mean": round(float(values.mean()), 6),
                         "std": round(float(values.std()), 6)}
    summary = {"k": k, "val_fraction": val_fraction,
               "stratified": stratified, "rows": rows, "summary": stats}
    (out_dir / "kfold.json").write_text(_json_text(summary),
                                        encoding="utf-8")
    aggregates = [{"fold": name, **{metric: values[name]
                                    for metric, values in stats.items()}}
                  for name in ("mean", "std")]
    _write_csv(out_dir / "kfold.csv", KFOLD_CSV_COLUMNS, rows + aggregates)
    return summary


def run_ablation(config: ExperimentConfig) -> dict:
    """Baseline / +SA / +Proposed under shared seeds and splits."""
    if config.dual is None:
        raise ConfigError("ablation needs a dual section")
    prepare_data(config)  # validate before creating output
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for row_name, mode in ABLATION_ROWS:
        sub = config.with_overrides(mode=mode,
                                    out_dir=str(out_dir / mode))
        metrics = run_training(sub)
        rows.append({"row": row_name, "mode": mode,
                     "best_epoch": metrics["best_epoch"],
                     "best_val_f1": metrics["best_val_f1"],
                     "test_precision":
                         metrics["test"]["macro"]["precision"],
                     "test_recall": metrics["test"]["macro"]["recall"],
                     "test_f1": metrics["test"]["macro"]["f1"]})
    summary = {"rows": rows}
    (out_dir / "ablation.json").write_text(_json_text(summary),
                                           encoding="utf-8")
    _write_csv(out_dir / "ablation.csv", ABLATION_CSV_COLUMNS, rows)
    return summary


def _principal_components(embeddings: np.ndarray) -> np.ndarray | None:
    """Projections of the centered rows on the top two eigenvectors of
    their covariance.  Each eigenvector's largest-magnitude component is
    made positive; an eigenvalue <= 1e-12 gives a zero column."""
    n, d = embeddings.shape
    if n < 2 or d < 2:
        return None
    centered = embeddings - embeddings.mean(axis=0)
    values, vectors = np.linalg.eigh(centered.T @ centered / n)
    values, top = values[:-3:-1], vectors[:, :-3:-1]
    signs = np.sign(top[np.abs(top).argmax(axis=0), [0, 1]])
    return centered @ (top * signs * (values > 1e-12))


def _label_names(decision, labels: list[str]) -> str:
    if isinstance(decision, (set, frozenset)):
        return "|".join(labels[i] for i in sorted(decision))
    return labels[int(decision)]


def export_embeddings(checkpoint_path: str | Path, split: str,
                      layer: str, out_csv: str | Path) -> int:
    """Write one CSV row per example: id, gold and predicted labels,
    embedding components, and two PCA coordinates.

    `pooled_final` exports the representation the classifier head sees;
    `tapped` exports the pooled tap-layer state that feeds the projection
    network during training.
    """
    if split not in SPLIT_NAMES:
        raise ConfigError(f"split must be one of {SPLIT_NAMES}, "
                          f"got {split!r}")
    if layer not in EXPORT_LAYERS:
        raise ConfigError(f"layer must be one of {EXPORT_LAYERS}, "
                          f"got {layer!r}")
    meta, arrays = load_checkpoint(checkpoint_path)
    config = ExperimentConfig.from_dict(meta["experiment"])
    model_cfg = ModelConfig.from_dict(meta["model_config"])
    if layer == "tapped" and config.dual is None:
        raise ConfigError("tapped export needs a run with a dual section")

    prepared = prepare_data(config)
    if prepared.vocab.id_to_token != meta["vocab"]:
        raise ConfigError("checkpoint vocabulary does not match the "
                          "re-prepared data; the data source changed")
    if _label_space_meta(prepared.label_space) != meta["label_space"]:
        raise ConfigError("checkpoint label space does not match the "
                          "re-prepared data; the label file changed")
    examples = getattr(prepared, split)
    if not examples:
        raise DataError(f"{split} split is empty")
    model = _restored_model(model_cfg, arrays)

    pooling = config.dual.pooling if config.dual is not None else "cls"
    tap = config.dual.tap_layer if config.dual is not None else None
    by_id = {ex.id: ex for ex in examples}
    ids: list[str] = []
    golds: list[str] = []
    predicted: list[str] = []
    vectors: list[np.ndarray] = []
    labels = list(prepared.label_space.labels)
    for batch in batches(examples, prepared.vocab, prepared.label_space,
                         32, model_cfg.max_seq_len, train=False):
        with ad.no_grad():
            logits, hidden = model.forward(batch, train=False)
            source = hidden[-1] if layer == "pooled_final" \
                else hidden[tap]
            pooled = pool(source, batch.attention_mask, pooling)
        decisions = predict(logits.data, model_cfg.head_kind,
                            config.threshold)
        for row_id, decision, vec in zip(batch.ids, decisions,
                                         pooled.data):
            ids.append(row_id)
            golds.append("|".join(by_id[row_id].labels))
            predicted.append(_label_names(decision, labels))
            vectors.append(np.asarray(vec))
    embeddings = np.stack(vectors)
    pcs = _principal_components(embeddings)

    out_csv = Path(out_csv)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    width = embeddings.shape[1]
    header = ["id", "gold", "predicted"] + \
        [f"e{i}" for i in range(width)] + \
        (["pc1", "pc2"] if pcs is not None else [])
    with out_csv.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row_id in enumerate(ids):
            row = [row_id, golds[i], predicted[i]]
            row += [f"{x:.6f}" for x in embeddings[i]]
            if pcs is not None:
                # wider precision: the zero-mean property of the
                # projections should survive the round trip through text
                row += [f"{x:.12g}" for x in pcs[i]]
            writer.writerow(row)
    return len(ids)


def generate_corpus(spec_path: str | Path, seed: int,
                    out_path: str | Path) -> tuple[Path, Path]:
    """Generate a synthetic corpus file plus its label-space file."""
    spec = load_synth_spec(spec_path)
    examples = gen_synthetic(spec, seed=seed)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(out_path, examples)
    space = spec.label_space()
    space_path = out_path.with_name(out_path.stem + ".labels.json")
    space_path.write_text(_json_text({"task_kind": space.task_kind,
                                      "labels": list(space.labels)}),
                          encoding="utf-8")
    return out_path, space_path
