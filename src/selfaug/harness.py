"""Experiment harness: data preparation, single runs, grid search, k-fold,
ablations, and embedding export.

Grid, k-fold and ablation are sweeps on one cell engine: each prepares
its data once, builds one job (config, prepared data, run directory) per
cell, and `_run_cells` runs the jobs in a process pool (or in this
process, at one worker), returning each cell's metric columns or the
exception it raised.  Grid records a failure as a row; k-fold and
ablation raise the first one after every cell has run, and then write no
table.  A run's test evaluation and the export run on one eval-mode
pass, `training.EvalPass`, which shares a split's batches out to a
second thread or to forked processes; the export's thread or workers
then write their rows' text to temporary files.  Sweep cells and
training's per-epoch validation evaluate in their own process, so there
is one level of parallelism.

Every run directory holds the same four artifacts (config.json as the
resolved snapshot, checkpoint.bin, epochs.jsonl, metrics.json), and every
primary output except wall-clock fields in epochs.jsonl is byte-identical
across reruns with the same config and seed.  Configuration and data problems
surface before the output directory is created, so a failed start leaves
no partial run behind.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass, replace
from itertools import compress
from pathlib import Path
from types import SimpleNamespace
from typing import IO

import numpy as np

from . import autodiff as ad
from . import parallel
from .config import GRID_AXES, ExperimentConfig
from .data import (EXPORT_BATCH_SIZE, Batch, Example, Folds, LabelSpace,
                   SynthSpec, Vocabulary, batches, build_vocab,
                   encode_split, gen_synthetic, k_folds, load_jsonl,
                   load_label_space, load_synth_spec, make_splits,
                   write_jsonl)
from .errors import ConfigError, DataError, ShapeError
from .metrics import MetricsBundle
from .model import (EncoderModel, load_checkpoint, pool, predict,
                    save_checkpoint)
from .objective import ProjectionNetwork
from .schema import Schema
from .seeding import check_seed
from .training import TRAIN_MODES, EvalPass, TrainResult, evaluate, train

EXPORT_LAYERS = ("pooled_final", "tapped")
SPLIT_NAMES = ("train", "val", "test")
ABLATION_ROWS = (("Baseline", "baseline"), ("+SA", "sa_only"),
                 ("+Proposed", "proposed"))

# the row columns every sweep cell fills from its run's metrics
METRIC_COLUMNS = ("best_epoch", "best_val_f1", "test_precision",
                  "test_recall", "test_f1")
GRID_CSV_COLUMNS = ("cell", *GRID_AXES, "status", *METRIC_COLUMNS, "error")
KFOLD_CSV_COLUMNS = ("fold", *METRIC_COLUMNS)
ABLATION_CSV_COLUMNS = ("row", "mode", *METRIC_COLUMNS)
CSV_FLOAT_COLUMNS = frozenset({"alpha", "best_val_f1", "test_precision",
                               "test_recall", "test_f1"})
# the checkpoint meta keys export_embeddings reads, with their JSON types
CHECKPOINT_META = {"experiment": dict, "label_space": dict, "vocab": list}


@dataclass(frozen=True)
class FoldCell(Schema):
    """One k-fold cell: fold `index` of `k` is its test split, and
    `val_fraction` of the other folds its validation split."""

    k: int
    index: int
    val_fraction: float

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigError("k must be at least 2")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in (0, 1)")
        if not 0 <= self.index < self.k:
            raise ConfigError(f"fold index {self.index} outside "
                              f"[0, {self.k})")


@dataclass
class PreparedData:
    train: list[Example]
    val: list[Example]
    test: list[Example]
    vocab: Vocabulary
    label_space: LabelSpace
    fold: FoldCell | None = None  # the k-fold cell it was made for


# the last synthetic corpus generated, with a weak reference to the spec
# object it was made for, a copy of that spec as it was, and the seed.
# Preparing one config's data and then running that config (a caller
# that inspects the data it trains on does both) generates the corpus
# once.  The match is on the object, not its value: a config built or
# loaded anew, as every run of the CLI and every export builds one,
# generates its corpus as a run on its own does, and the corpus is let
# go with the spec, so a process keeps no corpus its caller has dropped
_last_synthetic: tuple[weakref.ref, SynthSpec, int, list[Example]] | None \
    = None


def _forget_synthetic(spec_ref: weakref.ref) -> None:
    global _last_synthetic
    if _last_synthetic is not None and _last_synthetic[0] is spec_ref:
        _last_synthetic = None


def _synthetic(spec: SynthSpec, seed: int) -> list[Example]:
    global _last_synthetic
    last = _last_synthetic
    if last is None or last[0]() is not spec or last[1:3] != (spec, seed):
        last = _last_synthetic = (weakref.ref(spec, _forget_synthetic),
                                  copy.deepcopy(spec), seed,
                                  gen_synthetic(spec, seed=seed))
    return list(last[3])


def _corpus(config: ExperimentConfig) -> tuple[list[Example], LabelSpace]:
    data = config.data
    if data.presplit:
        raise ConfigError("k-fold needs a splittable data source, not "
                          "pre-split files")
    if data.synth_spec is not None or data.synth_spec_path is not None:
        spec = data.synth_spec if data.synth_spec is not None \
            else load_synth_spec(data.synth_spec_path)
        return _synthetic(spec, config.train.seed), spec.label_space()
    label_space = load_label_space(data.label_space_path)
    return load_jsonl(data.dataset_path, label_space), label_space


def prepare_data(config: ExperimentConfig,
                 fold: FoldCell | None = None) -> PreparedData:
    """Materialize splits and vocabulary for one experiment, or for its
    k-fold cell `fold`."""
    data = config.data
    if fold is not None:
        examples, label_space = _corpus(config)
        return _fold_data(config, k_folds(examples, fold.k,
                                          config.train.seed),
                          fold, label_space)
    if data.presplit:
        label_space = load_label_space(data.label_space_path)
        parts = [load_jsonl(p, label_space)
                 for p in (data.train_path, data.val_path, data.test_path)]
        train_ex, val_ex, test_ex = parts
    else:
        examples, label_space = _corpus(config)
        splits = make_splits(examples, data.ratios, config.train.seed)
        train_ex, val_ex, test_ex = splits.train, splits.val, splits.test
    if not train_ex:
        raise DataError("prepared training split is empty")
    vocab = build_vocab(train_ex, min_freq=data.min_freq,
                        max_size=data.max_vocab)
    return PreparedData(train=train_ex, val=val_ex, test=test_ex,
                        vocab=vocab, label_space=label_space)


def _encoder(config: ExperimentConfig, prepared: PreparedData,
             seed: int) -> EncoderModel:
    """The configured encoder, sized to the vocabulary and label space."""
    return EncoderModel(config.model, len(prepared.vocab),
                        len(prepared.label_space.labels), seed=seed)


def _build_components(config: ExperimentConfig, prepared: PreparedData):
    # stream seeds are offsets of the run seed so the two encoders and
    # the projection start from distinct but reproducible states
    seed = config.train.seed
    mode = config.train.mode
    model_f = _encoder(config, prepared, seed)
    model_c = _encoder(config, prepared, seed + 1) \
        if mode != "baseline" else None
    projection = None
    if mode == "proposed":
        projection = ProjectionNetwork(config.model.d_model,
                                       config.dual.projection_dims,
                                       seed=seed + 2)
    return model_f, model_c, projection


def _restored_model(config: ExperimentConfig, prepared: PreparedData,
                    state: dict[str, np.ndarray]) -> EncoderModel:
    model = _encoder(config, prepared, seed=0)
    # older files' key biases: softmax cancels the per-row shift they add
    model.load_state({name[2:]: arr for name, arr in state.items()
                      if name.startswith("f.")
                      and not name.endswith(".attn_k_b")})
    return model


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_run_artifacts(run_dir: Path, config: ExperimentConfig,
                         prepared: PreparedData, result: TrainResult,
                         test: MetricsBundle) -> dict:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(_json_text(config.to_dict()),
                                         encoding="utf-8")
    with (run_dir / "epochs.jsonl").open("w", encoding="utf-8") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    metrics = {"mode": config.train.mode,
               "seed": config.train.seed,
               "best_epoch": result.best_epoch,
               "best_val_f1": round(result.best_val.macro.f1, 6),
               "epochs_run": len(result.records),
               "stopped_early": result.stopped_early,
               "val": result.best_val.to_dict(),
               "test": test.to_dict()}
    (run_dir / "metrics.json").write_text(_json_text(metrics),
                                          encoding="utf-8")
    # exactly what export_embeddings reads back.  The run directory is
    # left out, so that one config and seed give the same bytes wherever
    # the run is written
    experiment = {key: value for key, value in config.to_dict().items()
                  if key != "out_dir"}
    meta = {"experiment": experiment,
            "label_space": prepared.label_space.to_dict(),
            "vocab": prepared.vocab.id_to_token}
    if prepared.fold is not None:
        meta["fold"] = prepared.fold.to_dict()
    save_checkpoint(run_dir / "checkpoint.bin", meta,
                    {f"f.{name}": arr for name, arr in result.state.items()})
    return metrics


def _check_out_dir(out_dir: Path) -> None:
    """Raise a ConfigError if `out_dir` is, or lies below, an existing
    file, so that no work is done for a run that could not be written."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"out_dir {str(out_dir)!r}: {str(path)!r} "
                                  f"is not a directory")
            return


def _check_out_file(path: Path) -> None:
    """Raise a ConfigError if `path` is an existing directory, or if its
    directory could not be made (see `_check_out_dir`)."""
    if path.is_dir():
        raise ConfigError(f"output file {str(path)!r} is a directory")
    _check_out_dir(path.parent)


def _check_sweep_out(out_dir: Path, run_dirs: list[Path],
                     table: str) -> None:
    """Raise a ConfigError, before any cell runs, if the sweep's output
    directory, a cell's run directory or one of its two table files
    could not be written."""
    _check_out_dir(out_dir)
    for run_dir in run_dirs:
        _check_out_dir(run_dir)
    for suffix in (".json", ".csv"):
        _check_out_file(out_dir / f"{table}{suffix}")


def _check_splits(prepared: PreparedData, where: str = "") -> None:
    """Raise a DataError naming the first empty split of `prepared`."""
    for name in SPLIT_NAMES:
        if not getattr(prepared, name):
            raise DataError(f"{where}training needs a non-empty {name} "
                            f"split")


def _execute(config: ExperimentConfig, prepared: PreparedData,
             run_dir: Path, workers: int | None = 1) -> dict:
    """Train on already-prepared data and write the four artifacts; only
    the test evaluation takes `workers` processes (see `evaluate`)."""
    _check_splits(prepared)
    train_split, val_split, test_split = (
        encode_split(examples, prepared.vocab, prepared.label_space,
                     config.model.max_seq_len)
        for examples in (prepared.train, prepared.val, prepared.test))
    model_f, model_c, projection = _build_components(config, prepared)
    result = train(model_f, model_c, projection, train_split, val_split,
                   prepared.label_space, config.dual, config.train,
                   config.threshold)
    # validation metrics come from training's own best-epoch evaluation,
    # which saw the same parameters; only the test split is new to them
    model_f.load_state(result.state)
    test = evaluate(model_f, test_split, prepared.label_space,
                    config.train.batch_size, config.threshold, workers)
    metrics = _write_run_artifacts(run_dir, config, prepared, result, test)
    metrics["run_dir"] = str(run_dir)
    return metrics


def run_training(config: ExperimentConfig,
                 workers: int | None = None) -> dict:
    """One training run into config.out_dir; returns the metrics payload.
    Its test evaluation takes up to `workers` processes (default: one
    per CPU this process may use; see `parallel.runs`)."""
    _check_out_dir(Path(config.out_dir))
    prepared = prepare_data(config)  # before mkdir: bad data, no debris
    return _execute(config, prepared, Path(config.out_dir), workers)


# one sweep cell: its config, the prepared data, and its run directory
Job = tuple[ExperimentConfig, PreparedData, Path]


def _cell(job: Job) -> dict | Exception:
    """Run one cell; its row's metric columns, or the exception it raised
    (returned, so that one failing cell never stops the others)."""
    try:
        metrics = _execute(*job)
    except Exception as err:  # noqa: BLE001 - each sweep decides
        return err
    test = metrics["test"]["macro"]
    return dict(zip(METRIC_COLUMNS, (
        metrics["best_epoch"], metrics["best_val_f1"], test["precision"],
        test["recall"], test["f1"])))


def _run_cells(jobs: list[Job],
               workers: int | None = None) -> list[dict | Exception]:
    """Every cell's result, in job order, from a pool of
    `parallel.processes(workers, cells)` processes that is joined before
    return; at one, the cells run in this process.  The pool starts the
    costliest cells first, ranked by training mode (proposed, sa_only,
    baseline), and equal modes in job order: Graham's
    longest-processing-time rule.  A desk ablation's modes take about
    0.35, 0.60 and 0.79 s, so in job order one of two workers would run
    baseline and then proposed."""
    workers = parallel.processes(workers, len(jobs))
    if workers == 1:
        return [_cell(job) for job in jobs]
    order = sorted(range(len(jobs)),
                   key=lambda i: -TRAIN_MODES.index(jobs[i][0].train.mode))
    with parallel.process_pool(workers) as pool_:
        futures = {i: pool_.submit(_cell, jobs[i]) for i in order}
        return [futures[i].result() for i in range(len(jobs))]


def _all_ok(results: list[dict | Exception]) -> list[dict]:
    """The results, once every cell has run; the first failure is raised."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _csv_cell(column: str, value):
    if value is None:
        return ""
    return f"{value:.6f}" if column in CSV_FLOAT_COLUMNS else value


def _write_tables(out_dir: Path, name: str, summary: dict,
                  columns: tuple[str, ...], rows: list[dict]) -> None:
    """`<name>.json` holds the summary; `<name>.csv` one line per row
    dict, where a missing or None value is an empty cell."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(_json_text(summary),
                                          encoding="utf-8")
    with (out_dir / f"{name}.csv").open("w", encoding="utf-8",
                                        newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(col, row.get(col))
                             for col in columns])


def run_grid(config: ExperimentConfig, workers: int | None = None) -> dict:
    """Exhaustive sweep over the configured grid axes.

    Cells run with identical seeds, so every cell sees the same splits and
    initial parameters; rows appear in enumeration order (batch_size, then
    alpha, then tap_layer, then inject_layer).  A failing cell is recorded
    and skipped, never fatal.
    """
    if config.grid is None:
        raise ConfigError("grid command needs a grid section")
    out_dir = Path(config.out_dir)
    cells = config.grid.cells(config.train, config.dual)
    run_dirs = [out_dir / f"cell{i:03d}" for i in range(len(cells))]
    _check_sweep_out(out_dir, run_dirs, "grid")
    # cells vary no data setting, so they share one preparation
    prepared = prepare_data(config)
    jobs = [(replace(config.with_cell(cell), out_dir=str(run_dir)),
             prepared, run_dir) for cell, run_dir in zip(cells, run_dirs)]
    rows = []
    for i, (cell, result) in enumerate(
            zip(cells, _run_cells(jobs, workers))):
        if isinstance(result, Exception):
            rows.append({"cell": i, **cell, "status": "failed",
                         "error": str(result),
                         **dict.fromkeys(METRIC_COLUMNS)})
        else:
            rows.append({"cell": i, **cell, "status": "ok", "error": "",
                         **result})
    ok_rows = [r for r in rows if r["status"] == "ok"]
    winner = None
    if ok_rows:
        best = max(r["best_val_f1"] for r in ok_rows)
        winner = next(r for r in ok_rows if r["best_val_f1"] == best)
    summary = {"n_cells": len(rows),
               "n_failed": len(rows) - len(ok_rows),
               "rows": rows,
               "winner": winner}
    _write_tables(out_dir, "grid", summary, GRID_CSV_COLUMNS, rows)
    return summary


def _fold_data(config: ExperimentConfig, folds: Folds, cell: FoldCell,
               label_space: LabelSpace) -> PreparedData:
    rest = [ex for j, fold in enumerate(folds.folds) if j != cell.index
            for ex in fold]
    inner = make_splits(rest, (1.0 - cell.val_fraction, cell.val_fraction,
                               0.0), config.train.seed)
    return PreparedData(
        train=inner.train, val=inner.val, test=folds.folds[cell.index],
        vocab=build_vocab(inner.train, min_freq=config.data.min_freq,
                          max_size=config.data.max_vocab),
        label_space=label_space, fold=cell)


def run_kfold(config: ExperimentConfig, k: int, val_fraction: float = 0.2,
              workers: int | None = None) -> dict:
    """Cross-validation: each fold is held out once as the test set, and
    the validation slice is carved from the remaining folds.  A failing
    fold is raised once every fold has run, and no table is written.
    Each fold's checkpoint records its cell, so that it exports from the
    data it was trained and tested on."""
    # at k < 2 the one cell made is refused
    cells = [FoldCell(k, i, val_fraction) for i in range(max(k, 1))]
    out_dir = Path(config.out_dir)
    run_dirs = [out_dir / f"fold{i}" for i in range(k)]
    _check_sweep_out(out_dir, run_dirs, "kfold")
    examples, label_space = _corpus(config)
    folds = k_folds(examples, k, config.train.seed)
    # every fold's config keeps the sweep's out_dir
    jobs = [(config, _fold_data(config, folds, cell, label_space), run_dir)
            for cell, run_dir in zip(cells, run_dirs)]
    for i, (_, prepared, _) in enumerate(jobs):  # before any fold runs
        _check_splits(prepared, f"fold {i}: ")
    rows = [{"fold": i, **result} for i, result in
            enumerate(_all_ok(_run_cells(jobs, workers)))]
    stats = {}
    for metric in ("test_precision", "test_recall", "test_f1"):
        values = np.array([row[metric] for row in rows])
        stats[metric] = {"mean": round(float(values.mean()), 6),
                         "std": round(float(values.std()), 6)}
    summary = {"k": k, "val_fraction": val_fraction,
               "stratified": folds.stratified, "rows": rows,
               "summary": stats}
    aggregates = [{"fold": name, **{metric: values[name]
                                    for metric, values in stats.items()}}
                  for name in ("mean", "std")]
    _write_tables(out_dir, "kfold", summary, KFOLD_CSV_COLUMNS,
                  rows + aggregates)
    return summary


def run_ablation(config: ExperimentConfig,
                 workers: int | None = None) -> dict:
    """Baseline / +SA / +Proposed under shared seeds and splits.  A
    failing mode is raised once every mode has run, and no table is
    written."""
    if config.dual is None:
        raise ConfigError("ablation needs a dual section")
    out_dir = Path(config.out_dir)
    run_dirs = [out_dir / mode for _, mode in ABLATION_ROWS]
    _check_sweep_out(out_dir, run_dirs, "ablation")
    prepared = prepare_data(config)  # the modes share one preparation
    jobs = [(config.with_overrides(mode=mode, out_dir=str(run_dir)),
             prepared, run_dir)
            for (_, mode), run_dir in zip(ABLATION_ROWS, run_dirs)]
    rows = [{"row": row_name, "mode": mode, **result}
            for (row_name, mode), result in
            zip(ABLATION_ROWS, _all_ok(_run_cells(jobs, workers)))]
    _write_tables(out_dir, "ablation", {"rows": rows}, ABLATION_CSV_COLUMNS,
                  rows)
    return {"rows": rows}


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


def export_embeddings(checkpoint_path: str | Path, split: str,
                      layer: str, out_csv: str | Path,
                      workers: int | None = None) -> int:
    """Write one CSV row per example: id, gold and predicted labels,
    embedding components, and two PCA coordinates.

    `pooled_final` exports the representation the classifier head sees,
    the top layer's [CLS] row under either pooling; `tapped` exports the
    tap-layer state that feeds the projection network during training,
    pooled as the run's `dual.pooling` says.

    The forwards run on an `EvalPass` in batches of `EXPORT_BATCH_SIZE`,
    on two threads or in up to `workers` processes.  Once this process
    has computed the PCA over every row, each thread or process formats
    its run's rows, and this one writes its own and then the others'
    text in run order.  The CSV is written to a temporary file beside
    `out_csv` and put in place once the thread or every worker has
    joined, so a failure leaves neither.
    """
    if split not in SPLIT_NAMES:
        raise ConfigError(f"split must be one of {SPLIT_NAMES}, "
                          f"got {split!r}")
    if layer not in EXPORT_LAYERS:
        raise ConfigError(f"layer must be one of {EXPORT_LAYERS}, "
                          f"got {layer!r}")
    out_csv = Path(out_csv)
    _check_out_file(out_csv)
    parallel.one_blas_thread()
    meta, arrays = load_checkpoint(checkpoint_path)
    for key, kind in CHECKPOINT_META.items():
        if not isinstance(meta.get(key), kind):
            raise ConfigError(f"{checkpoint_path}: checkpoint meta lacks "
                              f"{key!r} or holds the wrong type there")
    try:
        config = ExperimentConfig.from_dict(meta["experiment"])
        fold = FoldCell.from_dict(meta["fold"], "fold") \
            if "fold" in meta else None
    except ConfigError as err:
        raise ConfigError(f"{checkpoint_path}: checkpoint meta: "
                          f"{err}") from None
    if layer == "tapped" and config.dual is None:
        raise ConfigError("tapped export needs a run with a dual section")

    prepared = prepare_data(config, fold)
    if prepared.vocab.id_to_token != meta["vocab"]:
        raise ConfigError("checkpoint vocabulary does not match the "
                          "re-prepared data; the data source changed")
    if prepared.label_space.to_dict() != meta["label_space"]:
        raise ConfigError("checkpoint label space does not match the "
                          "re-prepared data; the label file changed")
    examples = getattr(prepared, split)
    if not examples:
        raise DataError(f"{split} split is empty")
    try:
        model = _restored_model(config, prepared, arrays)
    except (ConfigError, ShapeError) as err:
        raise ConfigError(f"{checkpoint_path}: checkpoint arrays do not fit "
                          f"its experiment's model: {err}") from None

    if layer == "pooled_final":  # what the head reads, whatever the pooling
        source_layer, pooling = config.model.n_layers, "cls"
    else:
        source_layer, pooling = config.dual.tap_layer, config.dual.pooling
    # the top layer runs for the CLS row alone unless it is mean-pooled
    cls_only = pooling == "cls" or source_layer != config.model.n_layers
    labels = prepared.label_space.labels
    n, width = len(examples), config.model.d_model
    passing = EvalPass(model, encode_split(
        examples, prepared.vocab, prepared.label_space,
        config.model.max_seq_len), EXPORT_BATCH_SIZE, workers)
    # what the thread or the workers write, this process reads: the rows,
    # and the text of each run but the first (run r's in texts[r - 1])
    predicted = parallel.shared(n, len(labels), dtype=bool)
    embeddings, pcs = parallel.shared(n, width), parallel.shared(n, 2)
    texts = [tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
             for _ in passing.runs[1:]]

    def keep(rows: slice, batch: Batch, logits: ad.Tensor,
             hidden: list[ad.Tensor]) -> None:
        predicted[rows] = predict(logits.data,
                                  not prepared.label_space.single_label,
                                  config.threshold)
        embeddings[rows] = pool(hidden[source_layer], batch.layout,
                                pooling).data

    # each row takes two writes.  The text fields go through csv into
    # `heads` with a "\r\n" terminator that is cut off again: csv's
    # minimal quoting covers the terminator's characters, so a bare "\r"
    # in an id is quoted and its row reads back whole.  The numbers need no
    # quoting and take one format string, one row at a time through
    # tolist(): the floats of a whole matrix would outweigh the matrix.
    # pcs get wider precision: the zero-mean property of the projections
    # should survive the round trip through text
    def write(run: int, with_pcs: bool, fh: IO[str] | None = None) -> None:
        fh = texts[run - 1] if fh is None else fh
        rows = passing.runs[run]
        numbers = ",%.6f" * width + (",%.12g" * 2 if with_pcs else "") \
            + "\n"
        heads: list[str] = []
        text_fields = csv.writer(SimpleNamespace(write=heads.append),
                                 lineterminator="\r\n")
        for ex, chosen, vec, pc in zip(examples[rows], predicted[rows],
                                       embeddings[rows],
                                       pcs[rows, :2 if with_pcs else 0]):
            text_fields.writerow((ex.id, "|".join(ex.labels),
                                  "|".join(compress(labels,
                                                    chosen.tolist()))))
            fh.write(heads.pop()[:-2])
            fh.write(numbers % (*vec.tolist(), *pc.tolist()))
        fh.flush()

    tmp_csv = out_csv.with_name(f".{out_csv.name}.{os.getpid()}.tmp")
    try:
        with passing.forwards(batches, keep, cls_only,
                              write=write) as start:
            found = _principal_components(embeddings)
            with_pcs = found is not None
            if with_pcs:
                pcs[:] = found
            writing = start("write", with_pcs)
            out_csv.parent.mkdir(parents=True, exist_ok=True)
            header = ["id", "gold", "predicted"] + \
                [f"e{i}" for i in range(width)] + \
                (["pc1", "pc2"] if with_pcs else [])
            with tmp_csv.open("w", encoding="utf-8", newline="") as fh:
                fh.write(",".join(header) + "\n")
                write(0, with_pcs, fh)
                for future, text in zip(writing, texts):
                    future.result()
                    text.seek(0)
                    shutil.copyfileobj(text, fh)
        os.replace(tmp_csv, out_csv)
    except BaseException:
        tmp_csv.unlink(missing_ok=True)
        raise
    finally:
        for text in texts:
            text.close()
    return n


def generate_corpus(spec_path: str | Path, seed: int,
                    out_path: str | Path) -> tuple[Path, Path]:
    """Generate a synthetic corpus file plus its label-space file."""
    check_seed(seed)
    out_path = Path(out_path)
    space_path = out_path.with_name(out_path.stem + ".labels.json")
    for path in (out_path, space_path):
        _check_out_file(path)
    spec = load_synth_spec(spec_path)
    examples = gen_synthetic(spec, seed=seed)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(out_path, examples)
    space_path.write_text(_json_text(spec.label_space().to_dict()),
                          encoding="utf-8")
    return out_path, space_path
