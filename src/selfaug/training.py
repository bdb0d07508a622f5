"""Optimization loop: Adam, early stopping on validation F1, and the three
training modes.

baseline:  single encoder, classification loss only.
sa_only:   both streams with injection; composite objective at alpha = 0,
           so the contrastive term (and the projection network) drop out.
proposed:  full composite objective with the shared projection and the
           redundancy-reduction loss.

All three modes draw the same shuffle stream, so ablations see identical
batch order.  A run is fully determined by (seed, config, data): every
field of every EpochRecord except wall-clock seconds reproduces bitwise.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor
from .data import EXPORT_BATCH_SIZE, Batch, LabelSpace, batches, merged
from .errors import ConfigError, DataError, DomainError
from .metrics import MetricsBundle, evaluate_predictions
from .model import EncoderModel, predict
from .objective import (DualStreamConfig, ProjectionNetwork, StepLosses,
                        composite_loss, contrastive_loss, dual_forward,
                        project)
from .schema import Schema
from .seeding import check_seed, rng_for

TRAIN_MODES = ("baseline", "sa_only", "proposed")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per block of an Adam step: six 256 KiB operands stay in a
# 2 MiB L2 cache
ADAM_BLOCK = 32_768


@dataclass(frozen=True)
class TrainConfig(Schema):
    learning_rate: float = 1e-3
    max_epochs: int = 20
    patience: int = 5
    batch_size: int = 16
    seed: int = 0
    mode: str = "proposed"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigError(f"patience must lie in [1, max_epochs], got "
                              f"{self.patience} with max_epochs "
                              f"{self.max_epochs}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        check_seed(self.seed)
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, "
                              f"got {self.mode!r}")


class Adam:
    """Bias-corrected Adam over named parameters.

    The optimizer owns the parameter storage: every parameter's `.data`
    and `.grad` become views into one contiguous vector each, so a step is
    a handful of vector operations per cache-sized block and `zero_grad`
    one fill.  A `.grad` (or `.data`) a caller assigns or clears is copied
    into the arena at the next step; a missing gradient counts as zero, so
    the moments decay and a fresh parameter stays put exactly.
    """

    def __init__(self, params: list[tuple[str, Tensor]],
                 learning_rate: float) -> None:
        names = [name for name, _ in params]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in optimizer")
        if len({id(t) for _, t in params}) != len(params):
            raise ConfigError("a parameter is registered twice in the "
                              "optimizer")
        self.names = names
        self.learning_rate = learning_rate
        self.step_count = 0
        sizes = [t.size for _, t in params]
        self.offsets = np.cumsum([0] + sizes[:-1])
        total = sum(sizes)
        self.data, self.grad, self.m, self.v = \
            (np.zeros(total) for _ in range(4))
        # num and den scratch for one block (see step)
        self._scratch = [np.empty(min(total, ADAM_BLOCK)) for _ in range(2)]
        self._views = []
        for (_, t), start in zip(params, self.offsets):
            span = slice(start, start + t.size)
            data = self.data[span].reshape(t.shape)
            grad = self.grad[span].reshape(t.shape)
            data[...] = t.data
            if t.grad is not None:
                grad[...] = t.grad
            t.data, t.grad = data, grad
            self._views.append((t, data, grad))

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p, data, grad in self._views:
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
                p.grad = grad
            if p.data is not data:
                data[...] = p.data
                p.data = data
        g = self.grad
        if not np.isfinite(g).all():
            first = np.flatnonzero(~np.isfinite(g))[0]
            name = self.names[np.searchsorted(self.offsets, first,
                                              side="right") - 1]
            raise DomainError(f"non-finite gradient for {name} at step {t}")
        bias1 = 1.0 - ADAM_BETA1 ** t
        bias2 = 1.0 - ADAM_BETA2 ** t
        # element for element and in the same order as the per-tensor
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g^2
        #   p = p - lr*(m/bias1) / (sqrt(v/bias2) + eps)
        # so results are bitwise those of a loop over tensors.  The arena
        # goes through in blocks, so each block's operands stay in cache
        # across the 13 passes; num and den are block-sized scratch, so
        # the update allocates nothing
        for start in range(0, g.size, ADAM_BLOCK):
            span = slice(start, start + ADAM_BLOCK)
            gb, m, v, w = g[span], self.m[span], self.v[span], \
                self.data[span]
            num, den = (a[:gb.size] for a in self._scratch)
            m *= ADAM_BETA1
            np.multiply(gb, 1.0 - ADAM_BETA1, out=num)
            m += num
            v *= ADAM_BETA2
            np.square(gb, out=den)
            den *= 1.0 - ADAM_BETA2
            v += den
            np.divide(m, bias1, out=num)
            num *= self.learning_rate
            np.divide(v, bias2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            w -= num


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement.

    Ties never count as improvement, so the earliest of equal-best epochs
    is kept.
    """

    def __init__(self, patience: int) -> None:
        if patience < 1:
            raise ConfigError("patience must be at least 1")
        self.patience = patience
        self.best_score = float("-inf")
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, score: float) -> bool:
        """Record one epoch's score; True means training should stop."""
        if score > self.best_score:
            self.best_score = score
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


@dataclass
class EpochRecord:
    epoch: int
    ce_f: float
    ce_c: float
    contrastive: float
    total: float
    val_precision: float
    val_recall: float
    val_f1: float
    seconds: float

    def to_dict(self) -> dict:
        return {"epoch": self.epoch,
                "ce_f": round(self.ce_f, 6),
                "ce_c": round(self.ce_c, 6),
                "contrastive": round(self.contrastive, 6),
                "total": round(self.total, 6),
                "val_precision": round(self.val_precision, 6),
                "val_recall": round(self.val_recall, 6),
                "val_f1": round(self.val_f1, 6),
                "seconds": round(self.seconds, 3)}


@dataclass
class TrainResult:
    records: list[EpochRecord]
    best_epoch: int
    best_val: MetricsBundle  # validation metrics of the best epoch
    stopped_early: bool
    # stream one's parameter arrays at the best epoch, keyed by
    # model_f.parameters() names; the copy, the projection and the
    # optimizer moments only shape training and are not kept
    state: dict[str, np.ndarray] = field(repr=False)


def classification_loss(logits: Tensor, batch: Batch,
                        multilabel: bool) -> Tensor:
    if multilabel:
        return ad.binary_cross_entropy_with_logits(logits, batch.targets)
    return ad.cross_entropy(logits, batch.targets)


def _step_losses(mode: str, model_f: EncoderModel,
                 model_c: EncoderModel | None,
                 projection: ProjectionNetwork | None, batch: Batch,
                 dual_cfg: DualStreamConfig | None,
                 rng_f: np.random.Generator,
                 rng_c: np.random.Generator,
                 multilabel: bool) -> StepLosses:
    if mode == "baseline":
        logits, _ = model_f.forward(batch, train=True, rng=rng_f,
                                    cls_only=True)
        ce = classification_loss(logits, batch, multilabel)
        return StepLosses(ce_f=ce, ce_c=ad.tensor(0.0),
                          contrastive=ad.tensor(0.0), total=ce)
    logits_f, logits_c, pooled_i, pooled_j = dual_forward(
        model_f, model_c, batch, dual_cfg, train=True,
        rng_f=rng_f, rng_c=rng_c)
    ce_f = classification_loss(logits_f, batch, multilabel)
    ce_c = classification_loss(logits_c, batch, multilabel)
    if mode == "sa_only":
        # alpha = 0 zeroes the contrastive weight; the term is skipped
        # rather than computed and multiplied by zero
        return composite_loss(ce_f, ce_c, ad.tensor(0.0), 0.0)
    z_a = project(projection, pooled_i)
    z_b = project(projection, pooled_j)
    lc, _ = contrastive_loss(z_a, z_b, dual_cfg.lambda_offdiag)
    return composite_loss(ce_f, ce_c, lc, dual_cfg.alpha)


class EvalPass:
    """One eval-mode pass over a split, behind `evaluate` and the export.

    The split is a `Batch` of all its rows, as `encode_split` makes it.
    It goes in contiguous runs of whole batches (see `parallel.runs`),
    each a view of its rows; this process takes the first, and a thread
    or forked processes the rest (see `parallel.inheriting_pool`).  When a
    full batch is worth two threads (see `parallel.worth_two_threads`),
    a thread of this process takes the second of two runs, since a
    worker forked from a large heap (a training's) pays a fault for
    every page it rewrites.  Otherwise each of up to `workers` processes
    takes one.  Within a run, consecutive batches of one padded width
    run as one forward of up to `EXPORT_BATCH_SIZE` sequences (see
    `merged`), or of `batch_size` on two threads, which keeps every bit
    of single batches of `batch_size`.
    """

    def __init__(self, model: EncoderModel, split: Batch,
                 batch_size: int, workers: int | None = 1) -> None:
        if batch_size < 1:  # before the runs divide by it
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.model, self.split, self.batch_size = model, split, batch_size
        self.on_threads = parallel.worth_two_threads(
            split.lengths.mean() * min(batch_size, len(split)),
            model.config.d_model)
        self.runs = parallel.runs(len(split), batch_size, workers,
                                  self.on_threads)

    @contextmanager
    def forwards(self, stream: Callable, keep: Callable,
                 cls_only: bool = True, **later: Callable) -> Iterator:
        """Hand keep(rows, batch, logits, hidden) each forward of the
        batches `stream` (a `data.batches`) makes of the split, in the
        process and on the thread that ran it, so it may write only
        those rows.  The block runs once all are done and the split let
        go; its start(phase, *args) has the thread or the workers run
        later[phase](run, *args) on what existed when they started (see
        `parallel.inheriting_pool`)."""
        # on two threads batches keep their size: on wide, evaluation in
        # export-sized batches measured slower
        most = self.batch_size if self.on_threads else EXPORT_BATCH_SIZE

        def forward(run: int) -> None:
            rows = self.runs[run]
            part = self.split.rows(rows)
            with ad.no_grad():  # grad mode is each thread's own
                for row, batch in merged(part, stream(
                        part, self.batch_size, train=False), most):
                    logits, hidden = self.model.forward(
                        batch, train=False, cls_only=cls_only)
                    row += rows.start
                    keep(slice(row, row + len(batch)), batch, logits,
                         hidden)

        with parallel.inheriting_pool(len(self.runs), self.on_threads,
                                      forward=forward, **later) as start:
            forwarding = start("forward")
            forward(0)
            for future in forwarding:
                future.result()
            self.split = None
            yield start


def evaluate(model: EncoderModel, split: Batch,
             label_space: LabelSpace, batch_size: int = 32,
             threshold: float = 0.5, workers: int | None = 1) \
        -> MetricsBundle:
    """Metrics of the predictions of an `EvalPass` over a split, in up to
    `workers` processes."""
    if not split:
        raise DataError("cannot evaluate an empty split")
    k = len(label_space.labels)
    predicted = parallel.shared(len(split), k, dtype=bool)

    def keep(rows: slice, batch: Batch, logits: Tensor, _) -> None:
        predicted[rows] = predict(logits.data, not label_space.single_label,
                                  threshold)

    with EvalPass(model, split, batch_size, workers).forwards(batches, keep):
        pass  # every row's predictions are in
    gold = np.eye(k, dtype=bool)[split.targets] \
        if label_space.single_label else split.targets > 0.5
    return evaluate_predictions(predicted, gold, list(label_space.labels))


def train(model_f: EncoderModel, model_c: EncoderModel | None,
          projection: ProjectionNetwork | None,
          train_split: Batch, val_split: Batch,
          label_space: LabelSpace,
          dual_cfg: DualStreamConfig | None, train_cfg: TrainConfig,
          threshold: float = 0.5) -> TrainResult:
    """Run one training job and return the best-epoch snapshot and its
    validation metrics.

    Stream one (model_f) is the model that validation sees and the
    checkpoint serves, so the snapshot holds its parameters alone.  The
    copy and the projection only shape training; the snapshot is what
    inference reads, not a point to resume training from.
    """
    mode = train_cfg.mode
    if not train_split:
        raise DataError("training split is empty")
    if not val_split:
        raise DataError("validation split is empty")
    if mode != "baseline":
        if model_c is None:
            raise ConfigError(f"mode {mode!r} needs the second stream")
        if dual_cfg is None:
            raise ConfigError(f"mode {mode!r} needs a dual-stream config")
        dual_cfg.validate_for(model_f.config.n_layers)
    if mode == "proposed":
        if projection is None:
            raise ConfigError("proposed mode needs the projection network")
        if train_cfg.batch_size < 2:
            raise ConfigError("proposed mode needs batch_size >= 2 for "
                              "the feature statistics")
    if len(train_split) < train_cfg.batch_size:
        raise DataError(f"training split ({len(train_split)} examples) "
                        f"is smaller than one batch "
                        f"({train_cfg.batch_size})")

    named: list[tuple[str, Tensor]] = \
        [(f"f.{n}", t) for n, t in model_f.parameters()]
    if mode != "baseline":
        named += [(f"c.{n}", t) for n, t in model_c.parameters()]
    if mode == "proposed":
        named += [(f"proj.{n}", t) for n, t in projection.parameters()]
    optimizer = Adam(named, train_cfg.learning_rate)
    parallel.keep_freed_memory()
    parallel.one_blas_thread()
    stopper = EarlyStopper(train_cfg.patience)

    records: list[EpochRecord] = []
    best_state: dict[str, np.ndarray] = {}
    best_val: MetricsBundle | None = None
    stopped_early = False
    for epoch in range(1, train_cfg.max_epochs + 1):
        started = time.perf_counter()
        # fresh dropout streams per epoch; the shuffle seed derivation is
        # part of the reproducibility contract (seed + epoch)
        rng_f = rng_for(train_cfg.seed, "dropout_f", epoch)
        rng_c = rng_for(train_cfg.seed, "dropout_c", epoch)
        sums = np.zeros(4)
        n_batches = 0
        for batch in batches(train_split, train_cfg.batch_size, train=True,
                             seed=train_cfg.seed + epoch):
            optimizer.zero_grad()
            losses = _step_losses(mode, model_f, model_c, projection,
                                  batch, dual_cfg, rng_f, rng_c,
                                  not label_space.single_label)
            ad.backward(losses.total)
            optimizer.step()
            sums += np.array(losses.as_floats())
            # the graph goes before the next forward builds another, so
            # only one is ever alive; `keep_freed_memory` keeps the pages
            # it frees in the heap, where that forward reuses them
            del losses
            n_batches += 1
        means = sums / n_batches
        # in this process: a training process forks no pool per epoch
        bundle = evaluate(model_f, val_split, label_space,
                          train_cfg.batch_size, threshold)
        records.append(EpochRecord(
            epoch=epoch, ce_f=means[0], ce_c=means[1],
            contrastive=means[2], total=means[3],
            val_precision=bundle.macro.precision,
            val_recall=bundle.macro.recall,
            val_f1=bundle.macro.f1,
            seconds=time.perf_counter() - started))
        should_stop = stopper.update(epoch, bundle.macro.f1)
        if stopper.best_epoch == epoch:
            best_state, best_val = model_f.state(), bundle
        if should_stop:
            stopped_early = True
            break
    return TrainResult(records=records, best_epoch=stopper.best_epoch,
                       best_val=best_val,
                       stopped_early=stopped_early, state=best_state)
