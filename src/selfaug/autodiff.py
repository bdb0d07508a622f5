"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is implicit: every operation that has a tracked input attaches a
node to its output tensor.  The node holds the gradient targets of the
op's operands (each tracked input's own node, or the tensor itself for a
`requires_grad` leaf) and a closure over the arrays its backward reads,
never an intermediate tensor, so an op output that no backward reads is
freed as soon as the forward drops it.  ``backward`` linearizes the
graph once (iterative post-order, so depth is not bounded by the
interpreter recursion limit) and walks it in reverse; each node is
therefore visited exactly once even when a tensor is shared between
subexpressions, and shared inputs accumulate their gradient with ``+=``.
A node's gradient lives only until the sweep has applied it, so after
``backward`` only leaves hold a `.grad`.  Leaf gradients are cleared
explicitly by the caller, never by the engine, which is what lets a
parameter collect contributions from several losses in one step.  A graph
is swept once: each node drops its closure, and the arrays it keeps, as
soon as it has run, so the memory of the graph's lower layers is given
back while the sweep is still under way.  A sweep that reaches a node an
earlier sweep ran raises before it moves any gradient.

A node also records which stream built it.  Inside a ``stream(k)``
block a thread tags its nodes k (1 or 2); elsewhere they are 0, the
head.  The dual objective records its two encoders as streams 1 and 2 on
two threads and its losses as the head.  ``backward`` sweeps such a
graph's head first and then the two streams side by side, stream one on
a ``parallel.beside`` thread, each in its own order, when no stream
reads the head or the other stream, no leaf is read by both, and in the
one sweep's order the head reads each target before any stream does:
then every gradient sums the same terms in the same order as the one
sweep, and the results are bitwise equal.  Otherwise (a copy whose loss
reaches stream one through the injection, say) it sweeps as one.
Recording, its stream tag and ``no_grad`` are each thread's own, so a
thread that leaves ``no_grad`` does not switch recording back on under
another.

Where an intermediate is cheap to compute again from what a node keeps
anyway, backward recomputes it instead of holding it.  The attention core
with its output projection (split heads, scores, key mask, softmax,
dropout, context, merge heads, context @ wo + bo) is one node,
``self_attention``, that keeps q, k, v, the probabilities and the boolean
keep-mask and rebuilds the dropped-out probabilities and the context.
The encoder carries a batch's real tokens alone, packed as [n, d] rows,
so every per-row op (``linear``, ``layer_norm``, ``feed_forward``,
``dropout``) does no work for padding.  The ops that need the padded
grid take the batch's `RowLayout` (see data), built and checked once,
and trust its indices.  ``self_attention`` scatters packed q, k and v
into the grid for the scores, the key mask (from the layout's lengths)
and the softmax, and gathers the context rows back before its
projection.  Its queries are every packed row or each sequence's [CLS]
row alone, which the encoder's last layer passes when nothing reads the
others.  That node and ``dropout`` draw their masks at the grid's size
and keep the rows they use, so the rng and every real row see what a
padded call would.  ``gather_rows`` takes each sequence's [CLS] row, and
``segment_mean`` mean-pools each sequence's rows.
The feed-forward block (linear, gelu, linear) is one node,
``feed_forward``, that keeps its input and the pre-activation and
rebuilds the activation from the one tanh its derivative needs; ``gelu``
on its own keeps only its input and takes the tanh again.  The contrastive
term, the chain swap_axes, matmul, scale, sub, four mul, two sum_all,
scale and add, is one node, ``cross_correlation_loss``, that keeps the two
views and their cross-correlation.

Everything is float64.  This library exists for verification work and the
finite-difference checks in the test-suite need the headroom.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import parallel
from .errors import ConfigError, DomainError, ShapeError

if TYPE_CHECKING:
    from .data import RowLayout

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


class _Recording(threading.local):
    stream = 0  # the tag `stream` gives the nodes this thread records
    grad_enabled = True  # False inside this thread's `no_grad` blocks


_recording = _Recording()


class Node:
    """One recorded operation: where its inputs' gradients go, a gradient
    routine, the gradient of its output while a sweep is under way, and
    the stream that recorded it (0 outside any `stream` block).

    `inputs` lines up with the op's tensor operands; each entry is the
    operand's node, the operand itself when it is a `requires_grad` leaf,
    or None when it is untracked.  `apply(g, *inputs)` routes the output
    gradient `g` into the targets.
    """

    __slots__ = ("op", "inputs", "apply", "grad", "stream")

    def __init__(self, op: str, inputs: tuple[Target | None, ...],
                 apply: Callable[..., None]) -> None:
        self.op = op
        self.inputs = inputs
        # None once a sweep has run the node
        self.apply: Callable[..., None] | None = apply
        self.grad: Array | None = None
        self.stream = _recording.stream


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


# what a gradient accumulates into: a recorded op or a leaf tensor
Target = Node | Tensor


def tensor(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Suspend graph recording on this thread (evaluation forwards);
    other threads go on recording."""
    prev = _recording.grad_enabled
    _recording.grad_enabled = False
    try:
        yield
    finally:
        _recording.grad_enabled = prev


@contextmanager
def stream(tag: int) -> Iterator[None]:
    """Tag the nodes this thread records inside the block as stream `tag`
    (1 or 2), so that `backward` may sweep the two streams side by side."""
    prev = _recording.stream
    _recording.stream = tag
    try:
        yield
    finally:
        _recording.stream = prev


def _target(t: Tensor) -> Target | None:
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _attach(out: Tensor, op: str, inputs: Sequence[Tensor],
            apply: Callable[..., None]) -> Tensor:
    if _recording.grad_enabled:
        targets = tuple([_target(t) for t in inputs])
        if targets.count(None) < len(targets):
            out.node = Node(op, targets, apply)
    return out


def _accum(t: Target, g: Array) -> None:
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
        raise ShapeError(f"{op}: operand shapes {a.shape} and {b.shape} "
                         "differ")


# ---------------------------------------------------------------------------
# elementwise and unary operations
#
# Each backward closure reads arrays and shapes bound before it is defined,
# never a Tensor, so a node keeps alive only what its backward reads.


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def apply(g: Array, ta: Target | None, tb: Target | None) -> None:
        if ta is not None:
            _accum(ta, g)
        if tb is not None:
            _accum(tb, g)

    return _attach(out, "add", (a, b), apply)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def apply(g: Array, ta: Target | None, tb: Target | None) -> None:
        if ta is not None:
            _accum(ta, g)
        if tb is not None:
            _accum(tb, -g)

    return _attach(out, "sub", (a, b), apply)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    x, y = a.data, b.data
    out = Tensor(x * y)

    def apply(g: Array, ta: Target | None, tb: Target | None) -> None:
        if ta is not None:
            _accum(ta, g * y)
        if tb is not None:
            _accum(tb, g * x)

    return _attach(out, "mul", (a, b), apply)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (loss weighting, 1/sqrt(d_k), ...)."""
    c = float(factor)
    out = Tensor(a.data * c)

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, g * c)

    return _attach(out, "scale", (a,), apply)


def relu(a: Tensor) -> Tensor:
    x = a.data
    out = Tensor(np.maximum(x, 0.0))

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, g * (x > 0.0))

    return _attach(out, "relu", (a,), apply)


def _gelu_tanh(x: Array) -> Array:
    return np.tanh(_GELU_C * (x + _GELU_K * (x * x * x)))


def _gelu_value(x: Array, t: Array) -> Array:
    """gelu(x) from x and its tanh t = _gelu_tanh(x)."""
    return 0.5 * x * (1.0 + t)


def _gelu_grad(g: Array, x: Array, t: Array) -> Array:
    """Gradient at gelu's input x, from the output gradient g and tanh t."""
    dt = (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)
    return g * (0.5 * (1.0 + t) + 0.5 * x * dt)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form gelu: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    The node keeps only x; backward computes the tanh again from it.
    """
    x = a.data
    out = Tensor(_gelu_value(x, _gelu_tanh(x)))

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, _gelu_grad(g, x, _gelu_tanh(x)))

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
    x, y = a.data, b.data
    try:
        out_data = np.matmul(x, y)
    except ValueError as err:
        raise ShapeError(f"matmul: batch dimensions of {a.shape} and "
                         f"{b.shape} are not broadcastable") from err
    out = Tensor(out_data)

    def apply(g: Array, ta: Target | None, tb: Target | None) -> None:
        if ta is not None:
            _accum(ta, _unbroadcast(np.matmul(g, _swap_last(y)), x.shape))
        if tb is not None:
            _accum(tb, _unbroadcast(np.matmul(_swap_last(x), g), y.shape))

    return _attach(out, "matmul", (a, b), apply)


def _check_affine(op: str, in_shape: tuple[int, ...], w: Tensor,
                  b: Tensor | None) -> None:
    """Raise unless `w` is a 2-D weight whose rows match the last axis of
    `in_shape` and `b`, if given, is a bias of its width."""
    if w.ndim != 2:
        raise ShapeError(f"{op}: weight must be 2-D, got {w.shape}")
    if in_shape[-1] != w.shape[0]:
        raise ShapeError(f"{op}: input shape {in_shape} does not match "
                         f"weight shape {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"{op}: bias shape {b.shape} does not match "
                         f"weight shape {w.shape}")


def _affine(xd: Array, wd: Array, bd: Array | None) -> Array:
    out = xd @ wd
    return out if bd is None else out + bd


def _linear_grads(g: Array, xd: Array, wd: Array, tw: Target | None,
                  tb: Target | None) -> Array:
    """Route the gradient g of xd @ wd + b into the weight and bias
    targets, and return the gradient at xd."""
    k, n = wd.shape
    if tw is not None:
        _accum(tw, xd.reshape(-1, k).T @ g.reshape(-1, n))
    if tb is not None:
        _accum(tb, g.reshape(-1, n).sum(axis=0))
    return g @ wd.T


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b), with x of shape [..., k], w of [k, n], b of [n].

    Fused affine map: one node instead of matmul + broadcast + add, which
    keeps the graphs built by the encoder small.
    """
    _check_affine("linear", x.shape, w, b)
    xd, wd = x.data, w.data
    out = Tensor(_affine(xd, wd, None if b is None else b.data))

    def apply(g: Array, tx: Target | None, tw: Target | None,
              tb: Target | None = None) -> None:
        gx = _linear_grads(g, xd, wd, tw, tb)
        if tx is not None:
            _accum(tx, gx)

    inputs = (x, w) if b is None else (x, w, b)
    return _attach(out, "linear", inputs, apply)


def feed_forward(h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor) -> Tensor:
    """gelu(h @ w1 + b1) @ w2 + b2, the encoder's feed-forward block.

    One node stands for the chain linear, gelu, linear.  It keeps h and
    the pre-activation x = h @ w1 + b1, not the activation: backward takes
    the tanh of x once and uses it both to rebuild gelu(x) for w2's
    gradient and for gelu's derivative.  Every product sees the operands,
    in the memory layouts, that the chain's would, so outputs and
    gradients are bitwise equal to the chain's.
    """
    _check_affine("feed_forward", h.shape, w1, b1)
    _check_affine("feed_forward", (*h.shape[:-1], w1.shape[-1]), w2, b2)
    hd, w1d, w2d = h.data, w1.data, w2.data
    x = _affine(hd, w1d, b1.data)
    out = Tensor(_affine(_gelu_value(x, _gelu_tanh(x)), w2d, b2.data))

    def apply(g: Array, th: Target | None, tw1: Target | None,
              tb1: Target | None, tw2: Target | None,
              tb2: Target | None) -> None:
        t = _gelu_tanh(x)
        ga = _linear_grads(g, _gelu_value(x, t), w2d, tw2, tb2)
        gh = _linear_grads(_gelu_grad(ga, x, t), hd, w1d, tw1, tb1)
        if th is not None:
            _accum(th, gh)

    return _attach(out, "feed_forward", (h, w1, b1, w2, b2), apply)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    in_shape = a.shape
    out = Tensor(a.data.reshape(shape))

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, g.reshape(in_shape))

    return _attach(out, "reshape", (a,), apply)


def swap_axes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out = Tensor(np.swapaxes(a.data, axis1, axis2))

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, np.swapaxes(g, axis1, axis2))

    return _attach(out, "swap_axes", (a,), apply)


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    in_shape = a.shape
    try:
        out = Tensor(np.broadcast_to(a.data, shape))
    except ValueError as err:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} "
                         f"to {shape}") from err

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, _unbroadcast(g, in_shape))

    return _attach(out, "broadcast_to", (a,), apply)


def slice_front(a: Tensor, length: int) -> Tensor:
    """First `length` rows along axis 0 (positional-embedding lookup)."""
    if not 0 < length <= a.shape[0]:
        raise ShapeError(f"slice_front: length {length} out of range for "
                         f"shape {a.shape}")
    in_shape = a.shape
    out = Tensor(a.data[:length])

    def apply(g: Array, ta: Target) -> None:
        full = np.zeros(in_shape)
        full[:length] = g
        _accum(ta, full)

    return _attach(out, "slice_front", (a,), apply)


def take_index(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along `axis`, dropping that axis (CLS pooling)."""
    if not 0 <= index < a.shape[axis]:
        raise ShapeError(f"take_index: index {index} out of range for "
                         f"axis {axis} of shape {a.shape}")
    in_shape = a.shape
    out = Tensor(np.take(a.data, index, axis=axis))

    def apply(g: Array, ta: Target) -> None:
        full = np.zeros(in_shape)
        sel = [slice(None)] * len(in_shape)
        sel[axis] = index
        full[tuple(sel)] = g
        _accum(ta, full)

    return _attach(out, "take_index", (a,), apply)


def _row_sums(index: Array, rows: Array, n: int) -> Array:
    """Row r of the result sums the rows i of `rows` with index[i] == r,
    added in order of i onto zero, as np.add.at adds them; one flat
    bincount makes the same additions several times faster."""
    width = math.prod(rows.shape[1:])
    flat = (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    sums = np.bincount(flat, weights=rows.reshape(-1), minlength=n * width)
    return sums.reshape(n, *rows.shape[1:])


def _layout_rows(op: str, a: Tensor, layout: RowLayout,
                 cls: bool = False) -> Array:
    """The flat grid positions of `a`'s rows: every packed row of
    `layout`, or with `cls` each sequence's [CLS] row, told apart by
    `a`'s row count (the two agree when every length is 1)."""
    if a.shape[0] == len(layout.slots):
        return layout.slots
    if not (cls and a.shape[0] == len(layout.lengths)):
        raise ShapeError(f"{op}: {a.shape[0]} rows do not fit a layout of "
                         f"{len(layout.slots)} packed rows in "
                         f"{len(layout.lengths)} sequences")
    return layout.slots[layout.starts]


def gather_rows(a: Tensor, layout: RowLayout) -> Tensor:
    """Each sequence's [CLS] row of the packed rows `a` of `layout`, as
    [batch, ...]; the gradient is scattered back to those rows."""
    _layout_rows("gather_rows", a, layout)
    in_shape, index = a.shape, layout.starts
    out = Tensor(a.data[index])

    def apply(g: Array, ta: Target) -> None:
        full = np.zeros(in_shape)
        full[index] = g
        _accum(ta, full)

    return _attach(out, "gather_rows", (a,), apply)


def segment_mean(a: Tensor, layout: RowLayout) -> Tensor:
    """Each sequence's mean over its packed rows `a` of `layout`, as
    [batch, ...].

    Each row is weighted by 1 / length and the weighted rows are summed
    in order, which rounds as a weighted sum over a zero-padded segment
    does.
    """
    _layout_rows("segment_mean", a, layout)
    segment = layout.sequences
    weights = (1.0 / layout.lengths)[segment].reshape(
        (-1,) + (1,) * (a.ndim - 1))
    out = _row_sums(segment, a.data * weights, len(layout.lengths))

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, g[segment] * weights)

    return _attach(Tensor(out), "segment_mean", (a,), apply)


def sum_all(a: Tensor) -> Tensor:
    in_shape = a.shape
    out = Tensor(a.data.sum())

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, np.full(in_shape, float(g)))

    return _attach(out, "sum_all", (a,), apply)


def embedding_lookup(table: Tensor, ids: Array) -> Tensor:
    """Rows of `table` at integer `ids`; scatter-add on the way back."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DomainError(f"embedding_lookup: id out of range "
                          f"[0, {table.shape[0]})")
    n, d = table.shape
    out = Tensor(table.data[ids])

    def apply(g: Array, tt: Target) -> None:
        _accum(tt, _row_sums(ids, g.reshape(-1, d), n))

    return _attach(out, "embedding_lookup", (table,), apply)


def dropout(a: Tensor, rate: float, rng: np.random.Generator,
            layout: RowLayout | None = None) -> Tensor:
    """Inverted dropout; identity (and no node) at rate 0.

    The node keeps the boolean keep-mask (1 byte per element) and scales
    it again on the way back, which gives the same floats as the scaled
    mask the forward used.  With `layout`, `a` holds its packed rows or
    its [CLS] rows: the mask is drawn for the whole padded grid and `a`'s
    rows kept, so the rng advances as it would for the padded tensor and
    each row sees that row's entries of the padded mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout: rate must lie in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    if layout is None:
        keep = rng.random(a.shape) >= rate
    else:
        rows = _layout_rows("dropout", a, layout, cls=True)
        grid = (len(layout.lengths) * layout.width, *a.shape[1:])
        keep = (rng.random(grid) >= rate)[rows]
    out = Tensor(a.data * (keep / (1.0 - rate)))

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, g * (keep / (1.0 - rate)))

    return _attach(out, "dropout", (a,), apply)


# ---------------------------------------------------------------------------
# normalizations, softmax, losses


def _softmax(x: Array) -> Array:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(y: Array, g: Array) -> Array:
    """Gradient at the softmax input, from its output y and gradient g."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max-subtraction."""
    y = _softmax(a.data)
    out = Tensor(y)

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, _softmax_grad(y, g))

    return _attach(out, "softmax_rows", (a,), apply)


# additive key bias: pushes pad-key scores far enough down that exp()
# underflows to exactly zero after max-subtraction
MASK_OFFSET = 1e9


def self_attention(q: Tensor, k: Tensor, v: Tensor, wo: Tensor, bo: Tensor,
                   layout: RowLayout, n_heads: int, scale: float,
                   rate: float = 0.0,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head scaled dot-product attention over packed rows, with its
    output projection.

    k and v are the [n, d] packed rows of `layout`; q is those n rows or
    each sequence's [CLS] row alone ([batch, d]), one output row each.

    Inside the node, q, k and v are scattered into zero-filled
    [batch, seq_q, d] and [batch, width, d] grids (seq_q is 1 for [CLS]
    queries, else the longest length).  d is split into `n_heads` heads,
    softmax(q k^T * scale + key bias) is taken row-wise, the bias being
    -MASK_OFFSET at every pad key, inverted dropout at `rate` is applied
    to those probabilities, and the heads of probs @ v are merged back.
    The context rows of the queries are gathered before
    context @ wo + bo.  So the scores, the key mask, the softmax and the
    dropout see the padded grid, and every product of a row with a weight
    sees that row alone.  The keep-mask is drawn for the whole
    [batch, heads, width, width] score matrix and cut to the first seq_q
    query rows, so the rng advances as a full call's would and every row
    gets the full call's mask.

    One node stands for the chain, over padded inputs, reshape,
    swap_axes, matmul, scale, add, softmax_rows, dropout, matmul,
    swap_axes, reshape, gather_rows, linear, and gives its floats on every
    real row.  It keeps the padded q, k and v, the probabilities and the
    boolean keep-mask, and computes the dropped-out probabilities and the
    context again in backward.
    """
    _layout_rows("self_attention", k, layout)
    _layout_rows("self_attention", q, layout, cls=True)
    if k.ndim != 2 or v.shape != k.shape or q.shape[1:] != k.shape[1:]:
        raise ShapeError(f"self_attention: q, k and v must be packed rows "
                         f"of one width, got {q.shape}, {k.shape} and "
                         f"{v.shape}")
    b, s, n = len(layout.lengths), layout.width, len(layout.slots)
    d = k.shape[1]
    if d % n_heads != 0:
        raise ShapeError(f"self_attention: width {d} not divisible by "
                         f"{n_heads} heads")
    _check_affine("self_attention", q.shape, wo, bo)
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"self_attention: rate must lie in [0, 1), "
                          f"got {rate}")
    sq = 1 if q.shape[0] == b else int(layout.lengths.max())
    # (sequence, position) of every packed row, or None for rows that
    # fill their grid, where scatter and gather are reshapes
    rows_at = (layout.sequences, layout.positions)
    key_at = None if n == b * s else rows_at
    query_at = None if q.shape[0] == b * sq else rows_at

    def split(x: Array, at: tuple[Array, Array] | None,
              width: int) -> Array:
        """Rows -> [batch, heads, width, d_head], zero where no row is."""
        full = x if at is None else np.zeros((b, width, d))
        if at is not None:
            full[at] = x
        return np.swapaxes(full.reshape(b, width, n_heads, d // n_heads),
                           1, 2)

    def gather(x: Array, at: tuple[Array, Array] | None) -> Array:
        """[batch, heads, width, d_head] -> the merged rows at `at`."""
        x = np.swapaxes(x, 1, 2)
        return (x if at is None else x[at]).reshape(-1, d)

    qh, kh, vh = (split(q.data, query_at, sq), split(k.data, key_at, s),
                  split(v.data, key_at, s))
    wod = wo.data
    key_bias = np.where(np.arange(s) < layout.lengths[:, None], 0.0,
                        -MASK_OFFSET)
    y = _softmax(np.matmul(qh, _swap_last(kh)) * scale
                 + key_bias[:, None, None, :])
    keep = None if rate == 0.0 else \
        rng.random((b, n_heads, s, s))[:, :, :sq] >= rate
    p = y if keep is None else y * (keep / (1.0 - rate))
    out = Tensor(_affine(gather(np.matmul(p, vh), query_at), wod, bo.data))

    def apply(g: Array, tq: Target | None, tk: Target | None,
              tv: Target | None, two: Target | None,
              tbo: Target | None) -> None:
        # x * 1.0 is x bit for bit, so no dropout needs no branch
        drop = 1.0 if keep is None else keep / (1.0 - rate)
        p = y * drop
        g = split(_linear_grads(g, gather(np.matmul(p, vh), query_at), wod,
                                two, tbo), query_at, sq)
        if tv is not None:
            _accum(tv, gather(np.matmul(_swap_last(p), g), key_at))
        gs = _softmax_grad(y, np.matmul(g, _swap_last(vh)) * drop) * scale
        if tq is not None:
            _accum(tq, gather(np.matmul(gs, kh), query_at))
        if tk is not None:
            _accum(tk, gather(_swap_last(np.matmul(_swap_last(qh), gs)),
                              key_at))

    return _attach(out, "self_attention", (q, k, v, wo, bo), apply)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize each row over the last axis (population variance), then
    apply per-feature gain and bias."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} "
                         f"do not match feature width {d}")
    x, gd = a.data, gain.data
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    out = Tensor(xhat * gd + bias.data)

    def apply(g: Array, ta: Target | None, tgain: Target | None,
              tbias: Target | None) -> None:
        if tgain is not None:
            _accum(tgain, (g * xhat).reshape(-1, d).sum(axis=0))
        if tbias is not None:
            _accum(tbias, g.reshape(-1, d).sum(axis=0))
        if ta is not None:
            gx = g * gd
            _accum(ta, inv * (gx - gx.sum(axis=-1, keepdims=True) / d
                              - xhat * ((gx * xhat).sum(axis=-1,
                                                        keepdims=True) / d)))

    return _attach(out, "layer_norm", (a, gain, bias), apply)


def batch_norm_features(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each feature column to mean 0, std 1 across the batch.

    Population (biased) variance; no learnable affine.  A single-row batch
    is a configuration error because the statistics are undefined.
    """
    if a.ndim != 2:
        raise ShapeError(f"batch_norm_features: expected [batch, features], "
                         f"got {a.shape}")
    if a.shape[0] < 2:
        raise ConfigError("batch_norm_features: batch size must be >= 2")
    x = a.data
    n = x.shape[0]
    xhat = x - x.sum(axis=0) / n
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=0) / n + eps)
    xhat *= inv
    out = Tensor(xhat)

    def apply(g: Array, ta: Target) -> None:
        _accum(ta, inv * (g - g.sum(axis=0) / n
                          - xhat * (g * xhat).sum(axis=0) / n))

    return _attach(out, "batch_norm_features", (a,), apply)


def cross_correlation_loss(a: Tensor, b: Tensor,
                           lambda_offdiag: float) -> tuple[Tensor, Tensor]:
    """(loss, M) of two [batch, width] views, M = a^T b / batch untracked:
    sum_m (1 - M_mm)^2 + lambda * sum_{m != n} M_mn^2 over whole masks.
    Backward replays the chain's doubled squares, its sweep order and a's
    transposed layout, so loss and gradients are the chain's bit for bit.
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"cross_correlation_loss: views {a.shape} and "
                         f"{b.shape} are not one [batch, width] shape")
    (batch, width), lam, x, y = a.shape, float(lambda_offdiag), a.data, b.data
    m, eye = np.matmul(x.T, y) * (1.0 / batch), np.eye(width)
    out = Tensor((((eye - m) * (eye - m)) * eye).sum()
                 + ((m * m) * (1.0 - eye)).sum() * lam)

    def apply(g: Array, ta: Target | None, tb: Target | None) -> None:
        off = (np.full(m.shape, float(g * lam)) * (1.0 - eye)) * m
        on = (np.full(m.shape, float(g)) * eye) * (eye - m)
        gm = ((off + off) + -(on + on)) * (1.0 / batch)
        if tb is not None:
            _accum(tb, np.matmul(x, gm))
        if ta is not None:
            _accum(ta, np.matmul(gm, y.T).T)

    return _attach(out, "cross_correlation_loss", (a, b), apply), Tensor(m)


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

    def apply(g: Array, tl: Target) -> None:
        p = np.exp(logp)
        p[rows, targets] -= 1.0
        _accum(tl, p * (float(g) / b))

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

    def apply(g: Array, tl: Target) -> None:
        sig = 1.0 / (1.0 + np.exp(-x))
        _accum(tl, (sig - targets) * (float(g) / n))

    return _attach(out, "binary_cross_entropy_with_logits", (logits,), apply)


# ---------------------------------------------------------------------------
# backward


def _postorder(root: Tensor) -> list[Node]:
    """Nodes the root depends on, inputs before consumers, each once."""
    if root.node is None:
        return []
    order: list[Node] = []
    visited = {root.node}
    stack: list[tuple[Node, Iterator[Target | None]]] = [
        (root.node, iter(root.node.inputs))
    ]
    while stack:
        node, children = stack[-1]
        for child in children:
            if type(child) is Node and child not in visited:
                visited.add(child)
                stack.append((child, iter(child.inputs)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def _sweep(order: list[Node]) -> None:
    for node in order:
        g, node.grad = node.grad, None
        if g is not None:
            node.apply(g, *node.inputs)
        node.apply = None


def _stream_parts(order: list[Node]) -> list[list[Node]] | None:
    """`order` cut into the head (stream 0) and streams 1 and 2, each in
    its order, when sweeping the head and then the two streams side by
    side sums every gradient in the order `order` does; else None.

    That holds when no stream node reads a node of the head or of the
    other stream, no gradient target is read by both streams, and every
    head node that reads a target comes before every stream node that
    reads it.
    """
    parts: list[list[Node]] = [[], [], []]
    reader: dict[Target, int] = {}  # target -> the stream that reads it
    for node in order:
        tag = node.stream
        parts[tag].append(node)
        for t in node.inputs:
            if t is None:
                continue
            if tag == 0:
                if t in reader:
                    return None
            elif (type(t) is Node and t.stream != tag) or \
                    reader.setdefault(t, tag) != tag:
                return None
    return parts if parts[1] and parts[2] else None


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Seeds d(loss)/d(loss) = 1 and visits every recorded node exactly once in
    reverse topological order.  Gradients accumulate in `.grad` of every
    leaf tensor (`requires_grad`) that the loss depends on, and the loss
    itself accumulates the seed in its `.grad`; intermediate tensors never
    get one.  Each node drops its gradient, its backward routine and the
    arrays that routine keeps as soon as it has run, so the graph cannot
    be swept again: a sweep that reaches a node an earlier one ran raises
    ValueError before it seeds or moves any gradient.

    A graph recorded by two `stream`s sweeps its head first, then the two
    streams side by side, each stream's nodes in their order, when that
    sums every gradient in the order of the one sweep (see
    `_stream_parts`); the results are bitwise those of the one sweep.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be a scalar, "
                         f"got shape {loss.shape}")
    order = _postorder(loss)
    if any(node.apply is None for node in order):
        raise ValueError("backward: this graph was freed by an earlier "
                         "sweep")
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    if loss.node is None:
        return
    loss.node.grad = np.ones_like(loss.data)
    order.reverse()
    parts = _stream_parts(order) if any(n.stream for n in order) else None
    if parts is None:
        _sweep(order)
        return
    head, first, second = parts
    _sweep(head)
    with parallel.beside(lambda: _sweep(first)) as first_done:
        _sweep(second)
        first_done()
