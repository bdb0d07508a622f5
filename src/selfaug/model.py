"""Micro transformer encoder with per-layer hidden-state taps and additive
injection.

A batch arrives padded to its longest row: [batch, seq] token ids and
each row's length, the count of its real tokens.  The encoder carries the
real tokens alone: every hidden state is [n, d], the n real positions
packed in row-major order (sequence 0's tokens, then sequence 1's), and
the batch's `RowLayout` holds where each packed row sits in the padded
grid.  Per-token work (embeddings, projections, feed-forward blocks,
layer norms and dropout) runs on real rows only; attention alone sees the
padded grid, inside its node (see autodiff).

The forward pass returns every intermediate hidden state H_0..H_L (H_0 is
the embedding output), and an optional injection (j, T) replaces H_j with
H_j + T before layer j+1 consumes it; j = n_layers sums into the final state
just before pooling.  That additive hook is the entire coupling surface the
dual-stream objective needs.  A forward with `cls_only` runs the last layer
for each sequence's [CLS] row alone, so its H_L is [batch, d]: the
baseline step, evaluation, each stream of a dual step whose tap or pooled
view does not need the rest of H_L, and export unless it mean-pools a
tapped H_L.

Layout is post-layer-norm: attention -> add & norm -> feed-forward ->
add & norm.  Padding positions are masked out of every attention row and
hold no hidden state, so pad content can never influence a real position.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Batch, RowLayout, parse_json
from .errors import ConfigError, ShapeError
from .schema import Schema

LN_EPS = 1e-5
INIT_STD = 0.02

# (layer j, tensor T), or T as a function the forward calls when it
# reaches layer j
Injection = tuple[int, Tensor | Callable[[], Tensor]]


@dataclass(frozen=True)
class ModelConfig(Schema):
    """Encoder shape.  The vocabulary size and the head's width come from
    the prepared data and are passed to `EncoderModel` beside it."""

    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 64
    max_seq_len: int = 128
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("d_model", "n_heads", "n_layers", "d_ff"):
            value = getattr(self, name)
            if value < 1:
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

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class EncoderLayer:
    """One block: multi-head self-attention and a gelu feed-forward, each
    with residual connection and post-layer-norm.  The key projection
    has no bias: softmax cancels the constant q . b_k adds to a row."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        d, f = config.d_model, config.d_ff
        self.config = config

        def w(rows: int, cols: int) -> Tensor:
            return ad.parameter(rng.normal(0.0, INIT_STD, (rows, cols)))

        self.wq, self.bq = w(d, d), ad.parameter(np.zeros(d))
        self.wk = w(d, d)
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
                ("attn_k_w", self.wk),
                ("attn_v_w", self.wv), ("attn_v_b", self.bv),
                ("attn_out_w", self.wo), ("attn_out_b", self.bo),
                ("ffn_in_w", self.w1), ("ffn_in_b", self.b1),
                ("ffn_out_w", self.w2), ("ffn_out_b", self.b2),
                ("ln1_gain", self.ln1_gain), ("ln1_bias", self.ln1_bias),
                ("ln2_gain", self.ln2_gain), ("ln2_bias", self.ln2_bias)]

    def apply(self, h: Tensor, layout: RowLayout, train: bool,
              rng: np.random.Generator | None,
              cls_only: bool = False) -> Tensor:
        """The layer's output for every packed row of `h`, or with
        `cls_only` for each sequence's [CLS] row alone, as [batch, d];
        keys and values always come from every row of `h`."""
        cfg = self.config
        rate = cfg.dropout_rate if train else 0.0
        rows = ad.gather_rows(h, layout) if cls_only else h
        attn = ad.self_attention(ad.linear(rows, self.wq, self.bq),
                                 ad.linear(h, self.wk),
                                 ad.linear(h, self.wv, self.bv),
                                 self.wo, self.bo, layout, cfg.n_heads,
                                 1.0 / math.sqrt(cfg.d_head), rate, rng)
        if rate > 0.0:
            attn = ad.dropout(attn, rate, rng, layout)
        h = ad.layer_norm(ad.add(rows, attn), self.ln1_gain, self.ln1_bias,
                          eps=LN_EPS)
        ffn = ad.feed_forward(h, self.w1, self.b1, self.w2, self.b2)
        if rate > 0.0:
            ffn = ad.dropout(ffn, rate, rng, layout)
        return ad.layer_norm(ad.add(h, ffn), self.ln2_gain, self.ln2_bias,
                             eps=LN_EPS)


class EncoderModel:
    """Token + learned positional embeddings, a stack of encoder layers,
    and a classification head over the pooled state with one output per
    class."""

    def __init__(self, config: ModelConfig, vocab_size: int, n_outputs: int,
                 seed: int) -> None:
        self.config = config
        rng = np.random.default_rng(seed)
        self.token_embedding = ad.parameter(
            rng.normal(0.0, INIT_STD, (vocab_size, config.d_model)))
        self.position_embedding = ad.parameter(
            rng.normal(0.0, INIT_STD, (config.max_seq_len, config.d_model)))
        self.layers = [EncoderLayer(config, rng)
                       for _ in range(config.n_layers)]
        self.head_w = ad.parameter(
            rng.normal(0.0, INIT_STD, (config.d_model, n_outputs)))
        self.head_b = ad.parameter(np.zeros(n_outputs))

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
            t.data[...] = arr  # in place: an optimizer may own the storage

    def forward(self, batch: Batch, train: bool = False,
                injection: Injection | None = None,
                rng: np.random.Generator | None = None,
                cls_only: bool = False,
                ) -> tuple[Tensor, list[Tensor]]:
        """Logits plus the full list of hidden states H_0..H_L, each
        packed [n, d] over the batch's n real tokens (see `RowLayout`).

        With injection (j, T), T is packed [n, d] as well and H_j becomes
        H_j + T before the next layer (or, at j = n_layers, before
        pooling); the returned list holds the post-injection state, which
        is what downstream consumers see.  T may be a function returning
        the tensor: it is called, and its result checked, only once the
        forward has computed H_j, so the layers below j can run while
        another thread is still computing T.

        With `cls_only`, the last layer computes each sequence's [CLS]
        row alone, the only row the classifier head reads, and H_L is
        [batch, d]; an injection at j = n_layers then adds T's [CLS]
        rows.  The logits, H_L's rows and the rng's state equal a full
        forward's up to rounding.
        """
        cfg = self.config
        layout = batch.layout
        if layout.width > cfg.max_seq_len:
            raise ShapeError(f"batch width {layout.width} exceeds "
                             f"max_seq_len {cfg.max_seq_len}")
        j, tap = injection if injection is not None else (None, None)
        if j is not None and not 0 <= j <= cfg.n_layers:
            raise ConfigError(f"injection layer {j} outside "
                              f"[0, {cfg.n_layers}]")
        if train and cfg.dropout_rate > 0.0 and rng is None:
            raise ConfigError("training forward with dropout needs an rng")
        ids = batch.token_ids.reshape(-1)[layout.slots]
        h = ad.add(ad.embedding_lookup(self.token_embedding, ids),
                   ad.embedding_lookup(self.position_embedding,
                                       layout.positions))
        if train and cfg.dropout_rate > 0.0:
            h = ad.dropout(h, cfg.dropout_rate, rng, layout)
        hidden = []
        for depth in range(cfg.n_layers + 1):
            last = cls_only and depth == cfg.n_layers
            if depth > 0:
                h = self.layers[depth - 1].apply(h, layout, train, rng,
                                                 cls_only=last)
            if depth == j:
                h = ad.add(h, _injected(tap, layout, cfg.d_model, last))
            hidden.append(h)
        pooled = pool(hidden[-1], layout, "cls")
        logits = ad.linear(pooled, self.head_w, self.head_b)
        return logits, hidden


def _injected(tap: Tensor | Callable[[], Tensor], layout: RowLayout,
              d_model: int, cls_rows: bool) -> Tensor:
    """The injection tensor, asked for now when `tap` is a function, as
    the packed rows of `layout`, or with `cls_rows` their [CLS] rows."""
    if callable(tap):
        tap = tap()
    packed = (len(layout.slots), d_model)
    if tap.shape != packed:
        raise ShapeError(f"injection tensor shape {tap.shape} does "
                         f"not match packed hidden shape {packed}")
    return ad.gather_rows(tap, layout) if cls_rows else tap


def pool(hidden: Tensor, layout: RowLayout, kind: str) -> Tensor:
    """Collapse a packed hidden state of a batch with `layout` to
    [batch, d].

    cls takes each sequence's position 0 (always a real token); mean
    averages each sequence's real rows.  A state with one row per
    sequence holds [CLS] rows alone (a CLS-only top layer's, or that of a
    batch of one-token sequences), and cls pooling returns it as it is.
    """
    if kind not in ("cls", "mean"):
        raise ConfigError(f"unknown pooling kind {kind!r}")
    if kind == "mean":
        return ad.segment_mean(hidden, layout)
    return hidden if hidden.shape[0] == len(layout.lengths) else \
        ad.gather_rows(hidden, layout)


def predict(logits: np.ndarray, multilabel: bool,
            threshold: float = 0.5) -> np.ndarray:
    """Class decisions from raw logits, as a boolean [n, k] matrix whose
    column c is class c.

    Single-label: one True per row, at the argmax, ties resolving to the
    lower index.  Multilabel: sigmoid >= threshold per class; a row where
    nothing clears the bar falls back to the argmax of its probabilities.
    """
    if multilabel:
        # the fallback reads the probabilities, not the logits: sigmoid
        # saturates, so their argmax can fall on another column
        scores = 1.0 / (1.0 + np.exp(-logits))
        chosen = scores >= threshold
    else:
        scores = logits
        chosen = np.zeros(logits.shape, dtype=bool)
    empty = np.flatnonzero(~chosen.any(axis=1))
    chosen[empty, scores[empty].argmax(axis=1)] = True
    return chosen


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
    """Read a checkpoint, refusing a file that cannot be read, or one
    whose header or array table does not fit the file exactly (a
    truncated, extended or foreign file), with a ConfigError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read the checkpoint: "
                          f"{err.strerror or err}") from None
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
    header = parse_json(raw[16:base], f"{path}: checkpoint header",
                        ConfigError)
    if not isinstance(header, dict) or \
            not isinstance(header.get("meta"), dict) or \
            not isinstance(header.get("arrays"), list):
        raise ConfigError(f"{path}: checkpoint header lacks its meta "
                          f"object or arrays list")
    size = len(raw) - base
    entries = [_array_entry(path, index, entry)
               for index, entry in enumerate(header["arrays"])]
    spans = sorted((offset, 8 * math.prod(shape))
                   for _, shape, offset in entries)
    # the arrays tile the data region: each starts where the one before
    # it ends, and the last ends with the file
    if [offset for offset, _ in spans] + [size] != \
            [0] + [offset + nbytes for offset, nbytes in spans]:
        raise ConfigError(f"{path}: its {size}-byte data region does not "
                          f"hold exactly its listed arrays (a truncated, "
                          f"extended or damaged file)")
    arrays: dict[str, np.ndarray] = {}
    for name, shape, offset in entries:
        if name in arrays:
            raise ConfigError(f"{path}: checkpoint array {name} is listed "
                              f"twice")
        arrays[name] = np.frombuffer(
            raw, dtype="<f8", count=math.prod(shape),
            offset=base + offset).reshape(shape).copy()
    return header["meta"], arrays


def _array_entry(path: str | Path, index: int,
                 entry) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, offset) of one header array entry."""
    def count(value) -> bool:
        return type(value) is int and value >= 0

    if isinstance(entry, dict):
        name, shape = entry.get("name"), entry.get("shape")
        offset = entry.get("offset")
        if isinstance(name, str) and isinstance(shape, list) and \
                all(count(n) for n in shape) and count(offset):
            return name, tuple(shape), offset
    raise ConfigError(f"{path}: checkpoint array entry {index} needs a "
                      f"name string, a shape of non-negative integers and "
                      f"a non-negative integer offset")
