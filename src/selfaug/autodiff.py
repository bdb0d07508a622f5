"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is implicit: every operation attaches a node to its output tensor
recording the tracked inputs and a closure that routes the output gradient
back to them.  ``backward`` linearizes the graph once (iterative post-order,
so depth is not bounded by the interpreter recursion limit) and walks it in
reverse; each node is therefore visited exactly once even when a tensor is
shared between subexpressions, and shared inputs accumulate their gradient
with ``+=``.  Gradients are cleared explicitly by the caller, never by the
engine, which is what lets a parameter collect contributions from several
losses in one step.

Everything is float64.  This library exists for verification work and the
finite-difference checks in the test-suite need the headroom.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


class Node:
    """One recorded operation: the tracked inputs and a gradient routine."""

    __slots__ = ("op", "inputs", "apply")

    def __init__(self, op: str, inputs: tuple["Tensor", ...],
                 apply: Callable[[Array], None]) -> None:
        self.op = op
        self.inputs = inputs
        self.apply = apply


class Tensor:
    """A float64 array plus an accumulated gradient and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, severed from the graph.  Shares the buffer."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self.node is not None:
            flags.append(f"op={self.node.op}")
        tail = (", " + ", ".join(flags)) if flags else ""
        return f"Tensor(shape={self.shape}{tail})"


def tensor(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Suspend graph recording (evaluation forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _attach(out: Tensor, op: str, inputs: Sequence[Tensor],
            apply: Callable[[Array], None]) -> Tensor:
    if _grad_enabled:
        tracked = tuple(t for t in inputs if _tracked(t))
        if tracked:
            out.node = Node(op, tracked, apply)
    return out


def _accum(t: Tensor, g: Array) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise and unary operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def apply(g: Array) -> None:
        if _tracked(a):
            _accum(a, g)
        if _tracked(b):
            _accum(b, g)

    return _attach(out, "add", (a, b), apply)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def apply(g: Array) -> None:
        if _tracked(a):
            _accum(a, g)
        if _tracked(b):
            _accum(b, -g)

    return _attach(out, "sub", (a, b), apply)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def apply(g: Array) -> None:
        if _tracked(a):
            _accum(a, g * b.data)
        if _tracked(b):
            _accum(b, g * a.data)

    return _attach(out, "mul", (a, b), apply)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (loss weighting, 1/sqrt(d_k), ...)."""
    c = float(factor)
    out = Tensor(a.data * c)

    def apply(g: Array) -> None:
        _accum(a, g * c)

    return _attach(out, "scale", (a,), apply)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def apply(g: Array) -> None:
        _accum(a, g * (a.data > 0.0))

    return _attach(out, "relu", (a,), apply)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form gelu: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    x = a.data
    t = np.tanh(_GELU_C * (x + _GELU_K * (x * x * x)))
    out = Tensor(0.5 * x * (1.0 + t))

    def apply(g: Array) -> None:
        dt = (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)
        _accum(a, g * (0.5 * (1.0 + t) + 0.5 * x * dt))

    return _attach(out, "gelu", (a,), apply)


# ---------------------------------------------------------------------------
# matrix and structural operations


def _swap_last(x: Array) -> Array:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions of {a.shape} and "
                         f"{b.shape} do not match")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"matmul: batch dimensions of {a.shape} and "
                         f"{b.shape} are not broadcastable") from err
    out = Tensor(out_data)

    def apply(g: Array) -> None:
        if _tracked(a):
            _accum(a, _unbroadcast(np.matmul(g, _swap_last(b.data)), a.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(np.matmul(_swap_last(a.data), g), b.shape))

    return _attach(out, "matmul", (a, b), apply)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b), with x of shape [..., k], w of [k, n], b of [n].

    Fused affine map: one node instead of matmul + broadcast + add, which
    keeps the graphs built by the encoder small.
    """
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input shape {x.shape} does not match "
                         f"weight shape {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} does not match "
                         f"weight shape {w.shape}")
    out_data = x.data @ w.data
    if b is not None:
        out_data = out_data + b.data
    out = Tensor(out_data)
    k, n = w.shape

    def apply(g: Array) -> None:
        if _tracked(x):
            _accum(x, g @ w.data.T)
        if _tracked(w):
            _accum(w, x.data.reshape(-1, k).T @ g.reshape(-1, n))
        if b is not None and _tracked(b):
            _accum(b, g.reshape(-1, n).sum(axis=0))

    inputs = (x, w) if b is None else (x, w, b)
    return _attach(out, "linear", inputs, apply)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def apply(g: Array) -> None:
        _accum(a, g.reshape(a.shape))

    return _attach(out, "reshape", (a,), apply)


def swap_axes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out = Tensor(np.swapaxes(a.data, axis1, axis2))

    def apply(g: Array) -> None:
        _accum(a, np.swapaxes(g, axis1, axis2))

    return _attach(out, "swap_axes", (a,), apply)


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = Tensor(np.broadcast_to(a.data, shape))
    except ValueError as err:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} "
                         f"to {shape}") from err

    def apply(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.shape))

    return _attach(out, "broadcast_to", (a,), apply)


def slice_front(a: Tensor, length: int) -> Tensor:
    """First `length` rows along axis 0 (positional-embedding lookup)."""
    if not 0 < length <= a.shape[0]:
        raise ShapeError(f"slice_front: length {length} out of range for "
                         f"shape {a.shape}")
    out = Tensor(a.data[:length])

    def apply(g: Array) -> None:
        full = np.zeros_like(a.data)
        full[:length] = g
        _accum(a, full)

    return _attach(out, "slice_front", (a,), apply)


def take_index(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along `axis`, dropping that axis (CLS pooling)."""
    if not 0 <= index < a.shape[axis]:
        raise ShapeError(f"take_index: index {index} out of range for "
                         f"axis {axis} of shape {a.shape}")
    out = Tensor(np.take(a.data, index, axis=axis))

    def apply(g: Array) -> None:
        full = np.zeros_like(a.data)
        sel = [slice(None)] * a.ndim
        sel[axis] = index
        full[tuple(sel)] = g
        _accum(a, full)

    return _attach(out, "take_index", (a,), apply)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))

    def apply(g: Array) -> None:
        _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape))

    return _attach(out, "sum_axis", (a,), apply)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def apply(g: Array) -> None:
        _accum(a, np.full(a.shape, float(g)))

    return _attach(out, "sum_all", (a,), apply)


def embedding_lookup(table: Tensor, ids: Array) -> Tensor:
    """Rows of `table` at integer `ids`; scatter-add on the way back."""
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise DomainError(f"embedding_lookup: id out of range "
                          f"[0, {table.shape[0]})")
    out = Tensor(table.data[ids])
    d = table.shape[1]

    def apply(g: Array) -> None:
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, d))
        _accum(table, full)

    return _attach(out, "embedding_lookup", (table,), apply)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity (and no node) at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout: rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.data * mask)

    def apply(g: Array) -> None:
        _accum(a, g * mask)

    return _attach(out, "dropout", (a,), apply)


# ---------------------------------------------------------------------------
# normalizations, softmax, losses


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max-subtraction."""
    x = a.data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def apply(g: Array) -> None:
        _accum(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _attach(out, "softmax_rows", (a,), apply)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize each row over the last axis (population variance), then
    apply per-feature gain and bias."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} "
                         f"do not match feature width {d}")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = Tensor(xhat * gain.data + bias.data)

    def apply(g: Array) -> None:
        if _tracked(gain):
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if _tracked(bias):
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if _tracked(a):
            gx = g * gain.data
            _accum(a, inv * (gx - gx.mean(axis=-1, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))

    return _attach(out, "layer_norm", (a, gain, bias), apply)


def batch_norm_features(a: Tensor, eps: float = 1e-5,
                        train: bool = True) -> Tensor:
    """Normalize each feature column to mean 0, std 1 across the batch.

    Population (biased) variance; no learnable affine.  A single-row batch
    is a configuration error in training mode because the statistics are
    undefined; in eval mode it degenerates to zeros.
    """
    if a.ndim != 2:
        raise ShapeError(f"batch_norm_features: expected [batch, features], "
                         f"got {a.shape}")
    if train and a.shape[0] < 2:
        raise ConfigError("batch_norm_features: batch size must be >= 2 in "
                          "training mode")
    x = a.data
    mu = x.mean(axis=0)
    var = x.var(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = Tensor(xhat)
    n = x.shape[0]

    def apply(g: Array) -> None:
        _accum(a, inv * (g - g.mean(axis=0)
                         - xhat * (g * xhat).sum(axis=0) / n))

    return _attach(out, "batch_norm_features", (a,), apply)


def cross_entropy(logits: Tensor, targets: Array) -> Tensor:
    """Mean negative log-softmax probability of the integer targets."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be [batch, classes], "
                         f"got {logits.shape}")
    targets = np.asarray(targets)
    b, c = logits.shape
    if targets.shape != (b,):
        raise ShapeError(f"cross_entropy: targets shape {targets.shape} does "
                         f"not match batch size {b}")
    if np.any(targets < 0) or np.any(targets >= c):
        bad = targets[(targets < 0) | (targets >= c)][0]
        raise DomainError(f"cross_entropy: target {bad} outside [0, {c})")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    logp = x - lse
    rows = np.arange(b)
    out = Tensor(-logp[rows, targets].mean())

    def apply(g: Array) -> None:
        p = np.exp(logp)
        p[rows, targets] -= 1.0
        _accum(logits, p * (float(g) / b))

    return _attach(out, "cross_entropy", (logits,), apply)


def binary_cross_entropy_with_logits(logits: Tensor, targets: Array) -> Tensor:
    """Mean element-wise BCE on raw logits, in the overflow-safe form
    max(x,0) - x*t + log(1 + exp(-|x|))."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ShapeError(f"binary_cross_entropy_with_logits: targets "
                         f"{targets.shape} do not match logits {logits.shape}")
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise DomainError("binary_cross_entropy_with_logits: targets must "
                          "be 0 or 1")
    x = logits.data
    loss = np.maximum(x, 0.0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    out = Tensor(loss.mean())
    n = x.size

    def apply(g: Array) -> None:
        sig = 1.0 / (1.0 + np.exp(-x))
        _accum(logits, (sig - targets) * (float(g) / n))

    return _attach(out, "binary_cross_entropy_with_logits", (logits,), apply)


# ---------------------------------------------------------------------------
# backward


def _postorder(root: Tensor) -> list[Tensor]:
    """Tensors with nodes, inputs before consumers, each exactly once."""
    order: list[Tensor] = []
    visited = {id(root)}
    stack: list[tuple[Tensor, Iterator[Tensor]]] = [
        (root, iter(root.node.inputs if root.node else ()))
    ]
    while stack:
        t, children = stack[-1]
        pushed = False
        for child in children:
            if child.node is not None and id(child) not in visited:
                visited.add(id(child))
                stack.append((child, iter(child.node.inputs)))
                pushed = True
                break
        if not pushed:
            stack.pop()
            if t.node is not None:
                order.append(t)
    return order


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Seeds d(loss)/d(loss) = 1 and visits every recorded node exactly once in
    reverse topological order.  Gradients land in `.grad` of every tracked
    tensor that the loss depends on; everything else is left untouched.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be a scalar, "
                         f"got shape {loss.shape}")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad = loss.grad + np.ones_like(loss.data)
    if loss.node is None:
        return
    for t in reversed(_postorder(loss)):
        if t.grad is not None:
            t.node.apply(t.grad)
