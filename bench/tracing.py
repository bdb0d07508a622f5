"""Per-layer tracing of selfaug, installed from outside the package.

A Tracer replaces selfaug's public functions with timed wrappers, at the
names the callers look them up by: `from .data import batches` copies the
function into selfaug.training, so selfaug.training.batches is wrapped
rather than selfaug.data.batches.  Every wrapped call records a span
(name, start, end, parent) in memory; the spans are written once, when
the benchmark ends.  Autodiff ops are wrapped too, and the backward
closure of each tensor an op returns (`node.apply`) is swapped for a timed
one, so forward and backward time land on the op that caused them.

Untraced benchmark runs never construct a Tracer, so they run selfaug's
own functions with no wrapper in between.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# every autodiff op that some workload calls; neg, exp, log, sqrt,
# mean_all and sum_axis are called by none of them
OPS = ("add", "sub", "mul", "scale", "relu", "gelu", "matmul", "linear",
       "reshape", "swap_axes", "broadcast_to", "slice_front", "take_index",
       "sum_all", "embedding_lookup", "dropout", "softmax_rows",
       "layer_norm", "batch_norm_features", "cross_entropy",
       "binary_cross_entropy_with_logits")

N_LAYER_SLOTS = 4  # the deepest workload model (wide) has 4 layers

# span names whose inclusive time is reported as "<name>_s"
TIMED_SPANS = (
    "data.batches", "data.gen_synthetic", "data.build_vocab",
    "model.forward_train", "model.forward_eval",
    *(f"model.layer{i}.apply" for i in range(N_LAYER_SLOTS)),
    "model.pool", "model.predict", "model.save_checkpoint",
    "model.load_checkpoint",
    "objective.dual_forward", "objective.project",
    "objective.contrastive_loss",
    "autodiff.backward",
    "training.adam_step", "training.evaluate",
    "metrics.evaluate_predictions",
    "harness.prepare_data", "harness.export_embeddings",
)

# (metric, unit) for every per-layer metric the traced run prints, in
# print order; the runner fills in the ones marked as its own
PER_LAYER = (
    [(f"{name}_s", "s") for name in TIMED_SPANS]
    + [("data.encode_calls", "count"), ("data.encode_per_example", "ratio"),
       ("model.checkpoint_bytes", "bytes"), ("autodiff.graph_bytes", "bytes"),
       ("autodiff.grad_bytes", "bytes"), ("training.adam_steps", "count"),
       ("training.epochs_past_best", "count"),  # runner: from artifacts
       ("trace.setup_overhead", "ratio"),       # runner
       ("trace.phase_overhead", "ratio")]       # runner
    + [(f"autodiff.{op}.{kind}", unit) for op in OPS
       for kind, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))]
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._example_ids: set[str] = set()
        self._layer_index: dict[int, int] = {}
        self._step_bytes = 0

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.timed(getattr(owner, attr), name))

    def install(self) -> None:
        from selfaug import (autodiff, data, harness, model, objective,
                             training)

        for owner in (training, harness):
            self._patch(owner, "batches", self._batches(owner.batches))
        self._patch(data, "encode", self._counted(data.encode, "data.encode",
                                                  "data.encode_calls"))
        self._wrap(harness, "gen_synthetic", "data.gen_synthetic")
        self._wrap(harness, "build_vocab", "data.build_vocab")

        self._patch(model.EncoderModel, "forward",
                    self._forward(model.EncoderModel.forward))
        self._patch(model.EncoderLayer, "apply",
                    self._layer_apply(model.EncoderLayer.apply))
        for owner in (model, objective, harness):
            self._wrap(owner, "pool", "model.pool")
        for owner in (training, harness):
            self._wrap(owner, "predict", "model.predict")
            self._wrap(owner, "evaluate", "training.evaluate")
        self._patch(harness, "save_checkpoint",
                    self._save_checkpoint(harness.save_checkpoint))
        self._wrap(harness, "load_checkpoint", "model.load_checkpoint")

        self._wrap(training, "dual_forward", "objective.dual_forward")
        self._wrap(training, "project", "objective.project")
        self._wrap(training, "contrastive_loss", "objective.contrastive_loss")

        for op in OPS:
            self._patch(autodiff, op, self._op(op, getattr(autodiff, op)))
        self._patch(autodiff, "backward",
                    self._backward(autodiff.backward, autodiff._postorder))

        self._patch(training.Adam, "step",
                    self._counted(training.Adam.step, "training.adam_step",
                                  "training.adam_steps"))
        self._wrap(training, "evaluate_predictions",
                   "metrics.evaluate_predictions")
        self._wrap(harness, "prepare_data", "harness.prepare_data")
        self._wrap(harness, "export_embeddings", "harness.export_embeddings")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers with more than a span -----------------------------------

    def _batches(self, fn):
        def batches(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                index = self.begin("data.batches")
                try:
                    batch = next(stream)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                self._example_ids.update(batch.ids)
                yield batch
        return batches

    def _forward(self, fn):
        def forward(model, batch, *args, **kwargs):
            train = kwargs.get("train", args[0] if args else False)
            for i, layer in enumerate(model.layers):
                self._layer_index[id(layer)] = i
            name = "model.forward_train" if train else "model.forward_eval"
            return self.call(name, fn, model, batch, *args, **kwargs)
        return forward

    def _layer_apply(self, fn):
        def apply(layer, *args, **kwargs):
            name = f"model.layer{self._layer_index[id(layer)]}.apply"
            return self.call(name, fn, layer, *args, **kwargs)
        return apply

    def _save_checkpoint(self, fn):
        def save_checkpoint(path, *args, **kwargs):
            self.call("model.save_checkpoint", fn, path, *args, **kwargs)
            self.counts["model.checkpoint_bytes"] += os.path.getsize(path)
        return save_checkpoint

    def _counted(self, fn, name: str, counter: str):
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return self.call(name, fn, *args, **kwargs)
        return counted

    def _op(self, op: str, fn):
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"
        calls = f"autodiff.{op}.calls"

        def traced_op(*args, **kwargs):
            out = self.call(fwd, fn, *args, **kwargs)
            self.counts[calls] += 1
            node = out.node
            # dropout at rate 0 hands back its input, whose node belongs to
            # the op that made it
            if node is not None and all(out is not a for a in args):
                self._step_bytes += out.data.nbytes
                node.apply = self.timed(node.apply, bwd)
            return out
        return traced_op

    def _backward(self, fn, postorder):
        def backward(loss):
            self._peak("autodiff.graph_bytes", self._step_bytes)
            self._step_bytes = 0
            self.call("autodiff.backward", fn, loss)
            # gradients the sweep left on intermediate (non-leaf) tensors
            held = sum(t.grad.nbytes for t in postorder(loss)
                       if t.grad is not None)
            self._peak("autodiff.grad_bytes", held)
        return backward

    def _peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the
        duration minus the time its child spans cover).  No wrapped
        function calls itself, so inclusive totals never double count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans and counters give."""
        totals = self.totals()
        out = {f"{name}_s": totals.get(name, {}).get("total_s", 0.0)
               for name in TIMED_SPANS}
        for op in OPS:
            out[f"autodiff.{op}.fwd_s"] = \
                totals.get(f"autodiff.{op}.fwd", {}).get("total_s", 0.0)
            out[f"autodiff.{op}.bwd_s"] = \
                totals.get(f"autodiff.{op}.bwd", {}).get("total_s", 0.0)
            out[f"autodiff.{op}.calls"] = int(self.counts[f"autodiff.{op}.calls"])
        encoded = int(self.counts["data.encode_calls"])
        out["data.encode_calls"] = encoded
        out["data.encode_per_example"] = \
            encoded / len(self._example_ids) if self._example_ids else 0.0
        for key in ("model.checkpoint_bytes", "autodiff.graph_bytes",
                    "autodiff.grad_bytes", "training.adam_steps"):
            out[key] = int(self.counts[key])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"columns": ["name", "start", "end", "parent"],
                   "spans": self.spans, "totals": self.totals()}
        path.write_text(json.dumps(payload), encoding="utf-8")
