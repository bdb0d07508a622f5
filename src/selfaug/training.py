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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Batch, Example, LabelSpace, Vocabulary, batches
from .errors import ConfigError, DataError, DomainError
from .metrics import MetricsBundle, evaluate_predictions
from .model import EncoderModel, predict
from .objective import (DualStreamConfig, ProjectionNetwork, StepLosses,
                        composite_loss, contrastive_loss, dual_forward,
                        project)
from .schema import Schema
from .seeding import rng_for

TRAIN_MODES = ("baseline", "sa_only", "proposed")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, "
                              f"got {self.mode!r}")


class Adam:
    """Bias-corrected Adam over named parameters.

    Parameters with no gradient are treated as zero-gradient: the moments
    decay and a fresh parameter stays put exactly.
    """

    def __init__(self, params: list[tuple[str, Tensor]],
                 learning_rate: float) -> None:
        names = [name for name, _ in params]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in optimizer")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params}
        self.v = {name: np.zeros_like(t.data) for name, t in params}

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1 ** t
        bias2 = 1.0 - ADAM_BETA2 ** t
        for name, p in self.params:
            g = p.grad if p.grad is not None else 0.0
            if not np.all(np.isfinite(g)):
                raise DomainError(f"non-finite gradient for {name} at "
                                  f"step {t}")
            m = self.m[name] = ADAM_BETA1 * self.m[name] + \
                (1.0 - ADAM_BETA1) * g
            v = self.v[name] = ADAM_BETA2 * self.v[name] + \
                (1.0 - ADAM_BETA2) * np.square(g)
            p.data = p.data - self.learning_rate * (m / bias1) / \
                (np.sqrt(v / bias2) + ADAM_EPS)


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
    best_f1: float
    stopped_early: bool
    # stream one's parameter arrays at the best epoch, keyed by
    # model_f.parameters() names; the copy, the projection and the
    # optimizer moments only shape training and are not kept
    state: dict[str, np.ndarray] = field(repr=False)


def classification_loss(logits: Tensor, batch: Batch,
                        head_kind: str) -> Tensor:
    if head_kind == "multilabel":
        return ad.binary_cross_entropy_with_logits(logits, batch.targets)
    return ad.cross_entropy(logits, batch.targets)


def _step_losses(mode: str, model_f: EncoderModel,
                 model_c: EncoderModel | None,
                 projection: ProjectionNetwork | None, batch: Batch,
                 dual_cfg: DualStreamConfig | None,
                 rng_f: np.random.Generator,
                 rng_c: np.random.Generator) -> StepLosses:
    head_kind = model_f.config.head_kind
    if mode == "baseline":
        logits, _ = model_f.forward(batch, train=True, rng=rng_f)
        ce = classification_loss(logits, batch, head_kind)
        return StepLosses(ce_f=ce, ce_c=ad.tensor(0.0),
                          contrastive=ad.tensor(0.0), total=ce)
    logits_f, logits_c, pooled_i, pooled_j = dual_forward(
        model_f, model_c, batch, dual_cfg, train=True,
        rng_f=rng_f, rng_c=rng_c)
    ce_f = classification_loss(logits_f, batch, head_kind)
    ce_c = classification_loss(logits_c, batch, head_kind)
    if mode == "sa_only":
        # alpha = 0 zeroes the contrastive weight; the term is skipped
        # rather than computed and multiplied by zero
        return composite_loss(ce_f, ce_c, ad.tensor(0.0), 0.0)
    z_a = project(projection, pooled_i, train=True)
    z_b = project(projection, pooled_j, train=True)
    lc, _ = contrastive_loss(z_a, z_b, dual_cfg.lambda_offdiag)
    return composite_loss(ce_f, ce_c, lc, dual_cfg.alpha)


def _targets_as_decisions(batch: Batch,
                          label_space: LabelSpace) -> list:
    if label_space.single_label:
        return [int(t) for t in batch.targets]
    return [frozenset(int(i) for i in np.nonzero(row > 0.5)[0])
            for row in batch.targets]


def evaluate(model: EncoderModel, examples: list[Example],
             vocab: Vocabulary, label_space: LabelSpace,
             batch_size: int = 32,
             threshold: float = 0.5) -> MetricsBundle:
    """Deterministic eval-mode pass over a split."""
    if not examples:
        raise DataError("cannot evaluate an empty split")
    preds: list = []
    golds: list = []
    for batch in batches(examples, vocab, label_space, batch_size,
                         model.config.max_seq_len, train=False):
        with ad.no_grad():
            logits, _ = model.forward(batch, train=False)
        preds.extend(predict(logits.data, model.config.head_kind,
                             threshold))
        golds.extend(_targets_as_decisions(batch, label_space))
    return evaluate_predictions(preds, golds, list(label_space.labels))


def train(model_f: EncoderModel, model_c: EncoderModel | None,
          projection: ProjectionNetwork | None,
          train_examples: list[Example], val_examples: list[Example],
          vocab: Vocabulary, label_space: LabelSpace,
          dual_cfg: DualStreamConfig | None, train_cfg: TrainConfig,
          threshold: float = 0.5) -> TrainResult:
    """Run one training job and return the best-epoch snapshot.

    Stream one (model_f) is the model that validation sees and the
    checkpoint serves, so the snapshot holds its parameters alone.  The
    copy and the projection only shape training; the snapshot is what
    inference reads, not a point to resume training from.
    """
    mode = train_cfg.mode
    if not train_examples:
        raise DataError("training split is empty")
    if not val_examples:
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
    if len(train_examples) < train_cfg.batch_size:
        raise DataError(f"training split ({len(train_examples)} examples) "
                        f"is smaller than one batch "
                        f"({train_cfg.batch_size})")

    named: list[tuple[str, Tensor]] = \
        [(f"f.{n}", t) for n, t in model_f.parameters()]
    if mode != "baseline":
        named += [(f"c.{n}", t) for n, t in model_c.parameters()]
    if mode == "proposed":
        named += [(f"proj.{n}", t) for n, t in projection.parameters()]
    optimizer = Adam(named, train_cfg.learning_rate)
    stopper = EarlyStopper(train_cfg.patience)

    records: list[EpochRecord] = []
    best_state: dict[str, np.ndarray] = {}
    stopped_early = False
    for epoch in range(1, train_cfg.max_epochs + 1):
        started = time.perf_counter()
        # fresh dropout streams per epoch; the shuffle seed derivation is
        # part of the reproducibility contract (seed + epoch)
        rng_f = rng_for(train_cfg.seed, "dropout_f", epoch)
        rng_c = rng_for(train_cfg.seed, "dropout_c", epoch)
        sums = np.zeros(4)
        n_batches = 0
        for batch in batches(train_examples, vocab, label_space,
                             train_cfg.batch_size,
                             model_f.config.max_seq_len, train=True,
                             seed=train_cfg.seed + epoch):
            optimizer.zero_grad()
            losses = _step_losses(mode, model_f, model_c, projection,
                                  batch, dual_cfg, rng_f, rng_c)
            ad.backward(losses.total)
            optimizer.step()
            sums += np.array(losses.as_floats())
            n_batches += 1
        means = sums / n_batches
        bundle = evaluate(model_f, val_examples, vocab, label_space,
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
            best_state = model_f.state()
        if should_stop:
            stopped_early = True
            break
    return TrainResult(records=records, best_epoch=stopper.best_epoch,
                       best_f1=stopper.best_score,
                       stopped_early=stopped_early, state=best_state)
