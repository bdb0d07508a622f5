"""Output checks computed by the benchmark itself.

Nothing here imports selfaug: each check recounts or replays from the
artifacts a run wrote (metrics.json, epochs.jsonl, embeddings.csv) and
from the gold labels of the prepared splits, so a fault in the program's
own metric code cannot also hide in its check.  Every check returns a
list of problem strings; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# metrics.json and epochs.jsonl round every float to 6 decimals
ROUNDING = 1e-6


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def macro_f1(golds: Sequence[frozenset], preds: Sequence[frozenset],
             labels: Sequence[str]) -> float:
    """Unweighted mean over classes of one-vs-rest F1.

    Golds and predictions are sets of label names (a singleton for
    single-label tasks).  A class with a zero denominator scores 0.
    """
    if len(golds) != len(preds):
        raise ValueError(f"{len(golds)} golds vs {len(preds)} predictions")
    total = 0.0
    for label in labels:
        tp = sum(1 for g, p in zip(golds, preds) if label in g and label in p)
        fp = sum(1 for g, p in zip(golds, preds)
                 if label not in g and label in p)
        fn = sum(1 for g, p in zip(golds, preds)
                 if label in g and label not in p)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        total += (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
    return total / len(labels)


def constant_floor(golds: Sequence[frozenset], labels: Sequence[str],
                   single_label: bool) -> float:
    """Best macro-F1 any constant predictor reaches on these golds.

    A constant prediction S scores F1 = 2n_c / (N + n_c) on each class c
    in S with n_c gold members (precision n_c/N, recall 1) and 0 on every
    other class.  The terms are independent and non-negative, so the best
    single-label constant is the largest term and the best multilabel
    constant predicts every class.
    """
    n = len(golds)
    terms = []
    for label in labels:
        members = sum(1 for g in golds if label in g)
        terms.append(2.0 * members / (n + members) if members else 0.0)
    best = max(terms) if single_label else sum(terms)
    return best / len(labels)


def replay_patience(val_f1: Sequence[float], patience: int,
                    max_epochs: int) -> tuple[int, int, bool]:
    """(best_epoch, epochs_run, stopped_early) under strict-improvement
    early stopping: ties never count, and training stops once `patience`
    epochs in a row fail to improve.  A run that never triggers the rule
    must use all `max_epochs`."""
    best, best_epoch, stale = float("-inf"), 0, 0
    for epoch, score in enumerate(val_f1[:max_epochs], start=1):
        if score > best:
            best, best_epoch, stale = score, epoch, 0
        else:
            stale += 1
        if stale >= patience:
            return best_epoch, epoch, True
    return best_epoch, max_epochs, False


def check_patience(run_dir: Path, patience: int,
                   max_epochs: int) -> list[str]:
    records = read_epochs(run_dir)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    scores = [rec["val_f1"] for rec in records]
    best_epoch, epochs_run, stopped = replay_patience(scores, patience,
                                                      max_epochs)
    problems = []
    if len(records) != epochs_run:
        problems.append(f"{run_dir.name}: {len(records)} epochs recorded, "
                        f"patience replay stops after {epochs_run}")
    if [rec["epoch"] for rec in records] != list(range(1, len(records) + 1)):
        problems.append(f"{run_dir.name}: epochs.jsonl is not numbered 1..n")
    got = (metrics["best_epoch"], metrics["epochs_run"],
           metrics["stopped_early"])
    if got != (best_epoch, epochs_run, stopped):
        problems.append(f"{run_dir.name}: metrics.json has (best_epoch, "
                        f"epochs_run, stopped_early) = {got}, replay gives "
                        f"{(best_epoch, epochs_run, stopped)}")
    if best_epoch and abs(metrics["best_val_f1"]
                          - scores[best_epoch - 1]) > ROUNDING:
        problems.append(f"{run_dir.name}: best_val_f1 "
                        f"{metrics['best_val_f1']} differs from epoch "
                        f"{best_epoch}'s val_f1 {scores[best_epoch - 1]}")
    return problems


def loss_identity_error(record: dict, mode: str, alpha: float) -> float:
    """|recorded total - total rebuilt from its parts| for one epoch.

    proposed: (1-a)/2 (ce_f + ce_c) + a * contrastive.  sa_only is the
    same objective at a = 0 with the contrastive term skipped, and
    baseline trains stream one alone, so its total is ce_f."""
    if mode == "baseline":
        expected = record["ce_f"]
        stray = abs(record["ce_c"]) + abs(record["contrastive"])
    elif mode == "sa_only":
        expected = 0.5 * (record["ce_f"] + record["ce_c"])
        stray = abs(record["contrastive"])
    else:
        expected = ((1.0 - alpha) / 2.0 * (record["ce_f"] + record["ce_c"])
                    + alpha * record["contrastive"])
        stray = 0.0
    return abs(record["total"] - expected) + stray


def check_loss_identity(run_dir: Path, mode: str,
                        alpha: float) -> list[str]:
    # each of the four fields carries up to half a unit of rounding
    tolerance = 3 * ROUNDING
    problems = []
    for rec in read_epochs(run_dir):
        err = loss_identity_error(rec, mode, alpha)
        if err > tolerance:
            problems.append(f"{run_dir.name} epoch {rec['epoch']}: loss "
                            f"parts do not add up to total ({err:.2e})")
    return problems


def check_beats_floor(f1: float, golds: Sequence[frozenset],
                      labels: Sequence[str], single_label: bool,
                      where: str) -> list[str]:
    floor = constant_floor(golds, labels, single_label)
    if f1 > floor + ROUNDING:
        return []
    return [f"{where}: test macro-F1 {f1:.6f} does not beat the best "
            f"constant predictor ({floor:.6f})"]


def check_identical(digests: Iterable[dict[str, str]],
                    where: str) -> list[str]:
    """Every repeat must have written the same bytes to every file."""
    digests = list(digests)
    problems = []
    for i, other in enumerate(digests[1:], start=2):
        for name in sorted(set(digests[0]) | set(other)):
            if digests[0].get(name) != other.get(name):
                problems.append(f"{where}: {name} differs between repeat 1 "
                                f"and repeat {i}")
    return problems


def pca_mean_error(pcs: np.ndarray) -> float:
    """Largest |column mean| of exported PCA coordinates, relative to the
    column's largest magnitude.  They project centred embeddings, so the
    mean must vanish to rounding."""
    return float(np.max(np.abs(pcs.mean(axis=0)) / np.abs(pcs).max(axis=0)))


def read_epochs(run_dir: Path) -> list[dict]:
    with (run_dir / "epochs.jsonl").open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_embeddings(path: Path) -> tuple[list[str], list[frozenset],
                                         list[frozenset], np.ndarray]:
    """ids, gold sets, predicted sets and the PCA columns.

    Streams the rows and keeps only those columns, so that reading the
    export never takes more memory than writing it did: the benchmark's
    peak RSS must stay the program's."""
    label_sets: dict[str, frozenset] = {}
    ids, golds, preds, pcs = [], [], [], []
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = sum(1 for col in header if col.startswith("e"))
        if header[:3] != ["id", "gold", "predicted"] or \
                header[3 + width:] != ["pc1", "pc2"]:
            raise ValueError(f"unexpected embeddings header {header[:4]}...")
        for row in reader:
            ids.append(row[0])
            for column, out in ((row[1], golds), (row[2], preds)):
                if column not in label_sets:
                    label_sets[column] = frozenset(column.split("|"))
                out.append(label_sets[column])
            pcs.append((float(row[-2]), float(row[-1])))
    return ids, golds, preds, np.array(pcs)
