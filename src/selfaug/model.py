"""Micro transformer encoder with per-layer hidden-state taps and additive
injection.

The forward pass returns every intermediate hidden state H_0..H_L (H_0 is
the embedding output), and an optional injection (j, T) replaces H_j with
H_j + T before layer j+1 consumes it; j = n_layers sums into the final state
just before pooling.  That additive hook is the entire coupling surface the
dual-stream objective needs.

Layout is post-layer-norm: attention -> add & norm -> feed-forward ->
add & norm.  Padding positions are masked out of every attention row, so
pad content can never influence a real position.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Batch
from .errors import ConfigError, ShapeError
from .schema import Schema

LN_EPS = 1e-5
# additive mask: pushes pad-key scores far enough down that exp() underflows
# to exactly zero after max-subtraction
MASK_OFFSET = 1e9

INIT_STD = 0.02

HEAD_KINDS = ("binary", "multiclass", "multilabel")

Injection = tuple[int, Tensor]


@dataclass(frozen=True)
class ModelConfig(Schema):
    """Encoder shape.  `vocab_size`, `head_kind` and `n_outputs` come from
    the prepared data: a config file leaves them unset and a run fills
    them in before building the encoder."""

    vocab_size: int | None = None
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 64
    max_seq_len: int = 128
    dropout_rate: float = 0.0
    head_kind: str | None = None
    n_outputs: int | None = None

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff",
                     "n_outputs"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by "
                              f"n_heads {self.n_heads}")
        if self.max_seq_len < 2:
            raise ConfigError(f"max_seq_len must be >= 2, "
                              f"got {self.max_seq_len}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), "
                              f"got {self.dropout_rate}")
        if self.head_kind is not None and self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"unknown head kind {self.head_kind!r}")
        if self.head_kind == "binary" and self.n_outputs not in (None, 2):
            raise ConfigError("binary head uses exactly 2 outputs")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class EncoderLayer:
    """One block: multi-head self-attention and a gelu feed-forward, each
    with residual connection and post-layer-norm."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        d, f = config.d_model, config.d_ff
        self.config = config

        def w(rows: int, cols: int) -> Tensor:
            return ad.parameter(rng.normal(0.0, INIT_STD, (rows, cols)))

        self.wq, self.bq = w(d, d), ad.parameter(np.zeros(d))
        self.wk, self.bk = w(d, d), ad.parameter(np.zeros(d))
        self.wv, self.bv = w(d, d), ad.parameter(np.zeros(d))
        self.wo, self.bo = w(d, d), ad.parameter(np.zeros(d))
        self.w1, self.b1 = w(d, f), ad.parameter(np.zeros(f))
        self.w2, self.b2 = w(f, d), ad.parameter(np.zeros(d))
        self.ln1_gain = ad.parameter(np.ones(d))
        self.ln1_bias = ad.parameter(np.zeros(d))
        self.ln2_gain = ad.parameter(np.ones(d))
        self.ln2_bias = ad.parameter(np.zeros(d))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("attn_q_w", self.wq), ("attn_q_b", self.bq),
                ("attn_k_w", self.wk), ("attn_k_b", self.bk),
                ("attn_v_w", self.wv), ("attn_v_b", self.bv),
                ("attn_out_w", self.wo), ("attn_out_b", self.bo),
                ("ffn_in_w", self.w1), ("ffn_in_b", self.b1),
                ("ffn_out_w", self.w2), ("ffn_out_b", self.b2),
                ("ln1_gain", self.ln1_gain), ("ln1_bias", self.ln1_bias),
                ("ln2_gain", self.ln2_gain), ("ln2_bias", self.ln2_bias)]

    def _split_heads(self, x: Tensor, b: int, s: int) -> Tensor:
        cfg = self.config
        return ad.swap_axes(ad.reshape(x, (b, s, cfg.n_heads, cfg.d_head)),
                            1, 2)

    def apply(self, h: Tensor, mask: np.ndarray, train: bool,
              rng: np.random.Generator | None) -> Tensor:
        cfg = self.config
        b, s, d = h.shape
        q = self._split_heads(ad.linear(h, self.wq, self.bq), b, s)
        k = self._split_heads(ad.linear(h, self.wk, self.bk), b, s)
        v = self._split_heads(ad.linear(h, self.wv, self.bv), b, s)
        scores = ad.scale(ad.matmul(q, ad.swap_axes(k, 2, 3)),
                          1.0 / math.sqrt(cfg.d_head))
        # keys at pad positions get -1e9 before softmax
        bias = np.broadcast_to((mask - 1.0)[:, None, None, :] * MASK_OFFSET,
                               scores.shape)
        probs = ad.softmax_rows(ad.add(scores, ad.tensor(bias)))
        if train and cfg.dropout_rate > 0.0:
            probs = ad.dropout(probs, cfg.dropout_rate, rng)
        ctx = ad.reshape(ad.swap_axes(ad.matmul(probs, v), 1, 2), (b, s, d))
        attn = ad.linear(ctx, self.wo, self.bo)
        if train and cfg.dropout_rate > 0.0:
            attn = ad.dropout(attn, cfg.dropout_rate, rng)
        h = ad.layer_norm(ad.add(h, attn), self.ln1_gain, self.ln1_bias,
                          eps=LN_EPS)
        ffn = ad.linear(ad.gelu(ad.linear(h, self.w1, self.b1)),
                        self.w2, self.b2)
        if train and cfg.dropout_rate > 0.0:
            ffn = ad.dropout(ffn, cfg.dropout_rate, rng)
        return ad.layer_norm(ad.add(h, ffn), self.ln2_gain, self.ln2_bias,
                             eps=LN_EPS)


class EncoderModel:
    """Token + learned positional embeddings, a stack of encoder layers,
    and a classification head over the pooled state."""

    def __init__(self, config: ModelConfig, seed: int) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        self.token_embedding = ad.parameter(
            rng.normal(0.0, INIT_STD, (config.vocab_size, config.d_model)))
        self.position_embedding = ad.parameter(
            rng.normal(0.0, INIT_STD, (config.max_seq_len, config.d_model)))
        self.layers = [EncoderLayer(config, rng)
                       for _ in range(config.n_layers)]
        self.head_w = ad.parameter(
            rng.normal(0.0, INIT_STD, (config.d_model, config.n_outputs)))
        self.head_b = ad.parameter(np.zeros(config.n_outputs))

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = [("token_embedding", self.token_embedding),
                  ("position_embedding", self.position_embedding)]
        for i, layer in enumerate(self.layers):
            params.extend((f"layer{i}.{name}", t)
                          for name, t in layer.parameters())
        params.extend([("head_w", self.head_w), ("head_b", self.head_b)])
        return params

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        params = dict(self.parameters())
        if set(arrays) != set(params):
            missing = sorted(set(params) - set(arrays))
            extra = sorted(set(arrays) - set(params))
            raise ConfigError(f"state mismatch: missing {missing}, "
                              f"unexpected {extra}")
        for name, t in params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ShapeError(f"parameter {name}: stored shape "
                                 f"{arr.shape} != model shape {t.shape}")
            t.data = arr.copy()

    def forward(self, batch: Batch, train: bool = False,
                injection: Injection | None = None,
                rng: np.random.Generator | None = None,
                ) -> tuple[Tensor, list[Tensor]]:
        """Logits plus the full list of hidden states H_0..H_L.

        With injection (j, T), H_j becomes H_j + T before the next layer
        (or, at j = n_layers, before pooling); the returned list holds the
        post-injection state, which is what downstream consumers see.
        """
        cfg = self.config
        ids, mask = batch.token_ids, batch.attention_mask
        b, s = ids.shape
        if s > cfg.max_seq_len:
            raise ShapeError(f"batch width {s} exceeds max_seq_len "
                             f"{cfg.max_seq_len}")
        if np.any(mask.sum(axis=1) < 1):
            raise ShapeError("a sequence with no real tokens cannot be "
                             "encoded")
        if injection is not None:
            j, tap = injection
            if not 0 <= j <= cfg.n_layers:
                raise ConfigError(f"injection layer {j} outside "
                                  f"[0, {cfg.n_layers}]")
            if tap.shape != (b, s, cfg.d_model):
                raise ShapeError(f"injection tensor shape {tap.shape} does "
                                 f"not match hidden shape "
                                 f"{(b, s, cfg.d_model)}")
        if train and cfg.dropout_rate > 0.0 and rng is None:
            raise ConfigError("training forward with dropout needs an rng")
        tok = ad.embedding_lookup(self.token_embedding, ids)
        pos = ad.broadcast_to(ad.reshape(
            ad.slice_front(self.position_embedding, s),
            (1, s, cfg.d_model)), (b, s, cfg.d_model))
        h = ad.add(tok, pos)
        if train and cfg.dropout_rate > 0.0:
            h = ad.dropout(h, cfg.dropout_rate, rng)
        if injection is not None and injection[0] == 0:
            h = ad.add(h, injection[1])
        hidden = [h]
        for depth, layer in enumerate(self.layers, start=1):
            h = layer.apply(h, mask, train, rng)
            if injection is not None and injection[0] == depth:
                h = ad.add(h, injection[1])
            hidden.append(h)
        pooled = pool(hidden[-1], mask, "cls")
        logits = ad.linear(pooled, self.head_w, self.head_b)
        return logits, hidden


def pool(hidden: Tensor, mask: np.ndarray, kind: str) -> Tensor:
    """Collapse [batch, seq, d] to [batch, d].

    cls takes position 0 (always a real token); mean averages over real
    positions only, weighted by the attention mask.
    """
    if kind == "cls":
        return ad.take_index(hidden, 0, axis=1)
    if kind == "mean":
        counts = mask.sum(axis=1, keepdims=True)
        if np.any(counts < 1):
            raise ShapeError("mean pooling over a fully padded sequence")
        b, s, d = hidden.shape
        weights = np.broadcast_to((mask / counts)[:, :, None], (b, s, d))
        return ad.sum_axis(ad.mul(hidden, ad.tensor(weights)), 1)
    raise ConfigError(f"unknown pooling kind {kind!r}")


def predict(logits: np.ndarray, head_kind: str,
            threshold: float = 0.5) -> list[int] | list[set[int]]:
    """Class decisions from raw logits.

    Single-label: argmax, ties resolving to the lower index.  Multilabel:
    sigmoid >= threshold per class, falling back to the single best class
    when nothing clears the bar.
    """
    if head_kind in ("binary", "multiclass"):
        return [int(i) for i in np.argmax(logits, axis=-1)]
    if head_kind == "multilabel":
        probs = 1.0 / (1.0 + np.exp(-logits))
        out: list[set[int]] = []
        for row in probs:
            chosen = {int(i) for i in np.nonzero(row >= threshold)[0]}
            if not chosen:
                chosen = {int(np.argmax(row))}
            out.append(chosen)
        return out
    raise ConfigError(f"unknown head kind {head_kind!r}")


# ---------------------------------------------------------------------------
# checkpoint container
#
# magic | u32 version | u64 header length | header JSON | raw float64 data.
# The header records metadata plus (name, shape, offset) per array; no
# timestamps anywhere, so save -> load -> save reproduces the bytes exactly.

CHECKPOINT_MAGIC = b"SAUG"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, meta: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    entries = []
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape),
                        "offset": offset})
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint, refusing one whose header or array table does
    not fit the file (a truncated or foreign file) with a ConfigError."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path} is not a checkpoint file")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version "
                          f"{version}")
    base = 16 + header_len
    if base > len(raw):
        raise ConfigError(f"{path} is truncated: its header needs "
                          f"{header_len} bytes, {len(raw) - 16} remain")
    try:
        header = json.loads(raw[16:base].decode("utf-8"))
    except ValueError:
        raise ConfigError(f"{path}: checkpoint header is not valid "
                          f"JSON") from None
    if not isinstance(header, dict) or \
            not isinstance(header.get("meta"), dict) or \
            not isinstance(header.get("arrays"), list):
        raise ConfigError(f"{path}: checkpoint header lacks its meta "
                          f"object or arrays list")
    size = len(raw) - base
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        offset = entry["offset"]
        if offset < 0 or offset + 8 * count > size:
            raise ConfigError(f"{path} is truncated: array "
                              f"{entry['name']} needs bytes {offset} to "
                              f"{offset + 8 * count} of a {size}-byte data "
                              f"region")
        arrays[entry["name"]] = np.frombuffer(
            raw, dtype="<f8", count=count,
            offset=base + offset).reshape(shape).copy()
    return header["meta"], arrays
