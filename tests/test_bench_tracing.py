"""The benchmark's tracer against the engine it hooks into.

bench/tracing.py reaches into selfaug from outside: it wraps every op,
swaps each recorded node's `apply` for a timed one, and after each
`backward` sums the `.grad` of everything `_postorder(loss)` returns.
These tests run one small proposed-mode training job under it, so a
change to those hooks fails here rather than in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from selfaug import autodiff as ad
from selfaug.config import ExperimentConfig
from selfaug.harness import run_training

from test_cli import small_config

TRACING_PY = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def proposed_config(out_dir: Path) -> ExperimentConfig:
    payload = small_config(str(out_dir), max_epochs=2)
    payload["model"]["dropout_rate"] = 0.1  # so dropout's backward is timed
    return ExperimentConfig.from_dict(payload)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """(untraced metrics.json bytes, traced bytes, the tracer's metrics
    and span totals), both runs into one directory."""
    out = tmp_path_factory.mktemp("traced") / "run"
    run_training(proposed_config(out))
    untraced = (out / "metrics.json").read_bytes()
    tracing = load_tracing()
    original = ad.backward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_training(proposed_config(out))
    finally:
        tracer.uninstall()
    assert ad.backward is original
    return (untraced, (out / "metrics.json").read_bytes(), tracing,
            tracer.metrics(), tracer.totals())


def test_tracing_leaves_the_artifacts_byte_identical(traced_run):
    untraced, traced, *_ = traced_run
    assert traced == untraced


def test_graph_is_measured_and_no_intermediate_gradient_survives(
        traced_run):
    *_, metrics, _ = traced_run
    assert metrics["autodiff.graph_bytes"] > 0
    assert metrics["autodiff.grad_bytes"] == 0
    assert metrics["training.adam_steps"] > 0


def test_every_recorded_op_has_its_backward_timed(traced_run):
    _, _, tracing, metrics, totals = traced_run
    called = {op for op in tracing.OPS if metrics[f"autodiff.{op}.calls"]}
    timed = {op for op in tracing.OPS if f"autodiff.{op}.bwd" in totals}
    assert {"dropout", "linear", "matmul", "layer_norm",
            "batch_norm_features", "cross_entropy"} <= called
    assert timed == called


def test_every_traced_op_is_an_autodiff_function():
    # the tracer wraps OPS by name; an op that no src/ path calls any
    # more (gelu, since the encoder records feed_forward) must stay
    # until the tracer drops it, or --trace 1 fails at install
    tracing = load_tracing()
    missing = [op for op in tracing.OPS
               if not callable(getattr(ad, op, None))]
    assert missing == []
