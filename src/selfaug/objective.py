"""Dual-stream objective: hidden-state injection, shared projection, and a
redundancy-reduction contrastive loss.

Two encoders run on the same batch.  Stream one is the model kept for
inference; its layer-`tap_layer` hidden state is summed into the copy's
layer-`inject_layer` state (the additive hook in the encoder).  Both pooled
states pass through one shared projection network, and the contrastive term
pushes the cross-correlation matrix of the two projected batches toward the
identity: the diagonal term rewards agreement per feature, the off-diagonal
term (weighted by lambda_offdiag) penalizes redundancy between features.

The composite objective is
    total = (1 - alpha) / 2 * (ce_f + ce_c) + alpha * contrastive
with alpha in [0, 1].

`augment_gradient` decides whether the copy's classification loss may reach
stream one through the injected tensor: "stop" (default) severs it, "flow"
leaves it connected.  The contrastive term reaches both encoders through the
pooled states either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor
from .data import Batch
from .errors import ConfigError, ShapeError
from .model import EncoderModel, pool
from .schema import Schema

# eps inside sqrt(var + eps) for the contrastive feature normalization.
# Deliberately tiny: already-normalized inputs must reproduce the identity
# cross-correlation to ~1e-15, and a conventional 1e-5 would visibly shrink
# every diagonal entry.  The projection's batch norm keeps the usual 1e-5.
CONTRASTIVE_EPS = 1e-15
PROJECTION_BN_EPS = 1e-5

GRADIENT_POLICIES = ("stop", "flow")
POOLING_KINDS = ("cls", "mean")


@dataclass(frozen=True)
class DualStreamConfig(Schema):
    tap_layer: int
    inject_layer: int
    alpha: float
    augment_gradient: str = "stop"
    pooling: str = "cls"
    lambda_offdiag: float = 0.005
    projection_dims: tuple[int, int, int] = (1024, 1024, 300)

    def __post_init__(self) -> None:
        if self.tap_layer < 0 or self.inject_layer < 0:
            raise ConfigError("layer indices must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.augment_gradient not in GRADIENT_POLICIES:
            raise ConfigError(f"augment_gradient must be one of "
                              f"{GRADIENT_POLICIES}, "
                              f"got {self.augment_gradient!r}")
        if self.pooling not in POOLING_KINDS:
            raise ConfigError(f"pooling must be one of {POOLING_KINDS}, "
                              f"got {self.pooling!r}")
        if self.lambda_offdiag < 0.0:
            raise ConfigError("lambda_offdiag must be non-negative")
        if len(self.projection_dims) != 3 or min(self.projection_dims) < 1:
            raise ConfigError("projection_dims must be three positive sizes")

    def validate_for(self, n_layers: int) -> None:
        for name, idx in (("tap_layer", self.tap_layer),
                          ("inject_layer", self.inject_layer)):
            if idx > n_layers:
                raise ConfigError(f"{name} {idx} exceeds encoder depth "
                                  f"{n_layers}")


class ProjectionNetwork:
    """Three linear layers (input -> d1 -> d2 -> d3), each followed by
    parameter-free per-feature batch normalization; ReLU after the first
    two, none after the last.  The layers have no bias: batch norm
    subtracts each feature's mean, and a bias with it.

    Shared between both streams: the same parameters project both pooled
    batches, and gradient accumulation sums their contributions.
    """

    def __init__(self, d_in: int, dims: tuple[int, int, int],
                 seed: int) -> None:
        self.d_in = d_in
        rng = np.random.default_rng(seed)
        sizes = [d_in, *dims]
        self.weights = [ad.parameter(rng.normal(0.0, 0.02, (a, b)))
                        for a, b in zip(sizes, sizes[1:])]

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"proj{i}_w", w) for i, w in enumerate(self.weights)]


def project(net: ProjectionNetwork, pooled: Tensor) -> Tensor:
    """Pooled states [batch, d_in] -> embeddings [batch, dims[-1]].  Each
    layer's batch norm needs batch >= 2."""
    if pooled.ndim != 2 or pooled.shape[1] != net.d_in:
        raise ShapeError(f"project: expected [batch, {net.d_in}], "
                         f"got {pooled.shape}")
    h = pooled
    last = len(net.weights) - 1
    for i, w in enumerate(net.weights):
        h = ad.batch_norm_features(ad.linear(h, w), eps=PROJECTION_BN_EPS)
        if i < last:
            h = ad.relu(h)
    return h


def contrastive_loss(z_a: Tensor, z_b: Tensor,
                     lambda_offdiag: float = 0.005) -> tuple[Tensor, Tensor]:
    """Redundancy-reduction loss over two projected batches.

    Each feature column is normalized to mean 0, std 1 (population variance)
    across the batch; M = (1/batch) * z_a^T z_b is the cross-correlation.
    Loss = sum_m (1 - M_mm)^2 + lambda * sum_{m != n} M_mn^2.  Returns
    (loss, M); gradients flow into both inputs through the normalization.
    """
    return ad.cross_correlation_loss(
        ad.batch_norm_features(z_a, eps=CONTRASTIVE_EPS),
        ad.batch_norm_features(z_b, eps=CONTRASTIVE_EPS), lambda_offdiag)


@dataclass
class StepLosses:
    """Scalar loss tensors for one step; `total` is the backward target."""

    ce_f: Tensor
    ce_c: Tensor
    contrastive: Tensor
    total: Tensor

    def as_floats(self) -> tuple[float, float, float, float]:
        return (self.ce_f.item(), self.ce_c.item(),
                self.contrastive.item(), self.total.item())


def composite_loss(ce_f: Tensor, ce_c: Tensor, contrastive: Tensor,
                   alpha: float) -> StepLosses:
    """total = (1 - alpha)/2 * (ce_f + ce_c) + alpha * contrastive."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    for name, t in (("ce_f", ce_f), ("ce_c", ce_c),
                    ("contrastive", contrastive)):
        if t.size != 1:
            raise ShapeError(f"composite_loss: {name} must be scalar, "
                             f"got shape {t.shape}")
    total = ad.add(ad.scale(ad.add(ce_f, ce_c), (1.0 - alpha) / 2.0),
                   ad.scale(contrastive, alpha))
    return StepLosses(ce_f=ce_f, ce_c=ce_c, contrastive=contrastive,
                      total=total)


def dual_forward(model_f: EncoderModel, model_c: EncoderModel, batch: Batch,
                 config: DualStreamConfig, train: bool = False,
                 rng_f: np.random.Generator | None = None,
                 rng_c: np.random.Generator | None = None,
                 ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Run both streams with injection.

    When the batch is worth two threads (`parallel.worth_two_threads`),
    stream one runs on a thread of its own, recording its nodes as
    stream 1 and the copy's as stream 2, so that `backward` can sweep
    them side by side too; every value and rng draw is that of running
    them one after the other.

    Returns (logits_f, logits_c, pooled_tap, pooled_injected): stream one's
    logits and tapped pooled state, the copy's logits, and the copy's pooled
    post-injection state.  Under the "stop" policy the injected tensor is
    detached, so the copy's losses cannot reach stream one through it; the
    pooled tap stays connected regardless, which is the path the contrastive
    term uses.
    """
    if model_f.config.n_layers != model_c.config.n_layers:
        raise ConfigError("both streams must share the encoder depth")
    n_layers = model_f.config.n_layers
    config.validate_for(n_layers)

    side_by_side = parallel.worth_two_threads(len(batch.layout.slots),
                                              model_f.config.d_model)
    start = parallel.beside if side_by_side else parallel.at_once

    # a stream's last layer runs for the CLS row alone unless the rest of
    # its top state is read: stream one's as the tap (injected whole),
    # the copy's when it is mean-pooled for the contrastive view
    def forward_f() -> tuple[Tensor, list[Tensor]]:
        with ad.stream(1 if side_by_side else 0):
            return model_f.forward(batch, train=train, rng=rng_f,
                                   cls_only=config.tap_layer != n_layers)

    def injected() -> Tensor:
        tap = outputs_f()[1][config.tap_layer]
        return tap.detach() if config.augment_gradient == "stop" else tap

    # side by side, the copy runs its layers below inject_layer while
    # stream one runs on another thread, and waits for stream one's
    # forward when it reaches inject_layer
    with start(forward_f) as outputs_f, ad.stream(2 if side_by_side else 0):
        logits_c, hidden_c = model_c.forward(
            batch, train=train, injection=(config.inject_layer, injected),
            rng=rng_c, cls_only=not (config.pooling == "mean"
                                     and config.inject_layer == n_layers))
        logits_f, hidden_f = outputs_f()
    pooled_tap = pool(hidden_f[config.tap_layer], batch.layout,
                      config.pooling)
    pooled_injected = pool(hidden_c[config.inject_layer], batch.layout,
                           config.pooling)
    return logits_f, logits_c, pooled_tap, pooled_injected
