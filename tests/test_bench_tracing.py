"""The benchmark's tracer against the engine it hooks into.

bench/tracing.py reaches into selfaug from outside: it wraps every op,
swaps each recorded node's `apply` for a timed one, and after each
`backward` sums the `.grad` of everything `_postorder(loss)` returns.
These tests run one small proposed-mode training job, and one export of
its kind, under it, so a change to those hooks, or to the names the
tracer patches on `harness`, fails here rather than in a traced
benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from selfaug import autodiff as ad
from selfaug import harness
from selfaug.config import ExperimentConfig
from selfaug.harness import run_training

from test_cli import small_config

TRACING_PY = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SRC = Path(ad.__file__).parent


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
    assert {"dropout", "linear", "layer_norm", "batch_norm_features",
            "cross_entropy"} <= called
    assert timed == called


@pytest.fixture(scope="module")
def traced_export(tmp_path_factory):
    """(untraced embeddings.csv bytes, traced bytes, the tracer's span
    totals) of a one-process export of a small run."""
    root = tmp_path_factory.mktemp("export")
    run_training(proposed_config(root / "run"))
    checkpoint = root / "run" / "checkpoint.bin"
    harness.export_embeddings(checkpoint, "test", "pooled_final",
                              root / "untraced.csv", 1)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        harness.export_embeddings(checkpoint, "test", "pooled_final",
                                  root / "traced.csv", 1)
    finally:
        tracer.uninstall()
    return ((root / "untraced.csv").read_bytes(),
            (root / "traced.csv").read_bytes(), tracer.totals())


def test_tracing_leaves_the_export_byte_identical(traced_export):
    untraced, traced, _ = traced_export
    assert traced == untraced


def test_the_export_records_its_spans(traced_export):
    *_, totals = traced_export
    assert {"harness.export_embeddings", "model.forward_eval",
            "model.pool", "model.predict"} <= totals.keys()


def test_every_traced_op_is_an_autodiff_function():
    # the tracer wraps OPS by name; an op that no src/ path calls any
    # more (gelu, since the encoder records feed_forward) must stay
    # until the tracer drops it, or --trace 1 fails at install
    tracing = load_tracing()
    missing = [op for op in tracing.OPS
               if not callable(getattr(ad, op, None))]
    assert missing == []


def _ops(autodiff: ast.Module) -> set[str]:
    """The public functions of an autodiff source that record a node."""
    return {f.name for f in autodiff.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "_attach" for n in ast.walk(f))}


def _autodiff_calls(tree: ast.Module, own: bool = False) -> set[str]:
    """Every autodiff function a module calls: through the module
    (`ad.add(...)`), by a name imported from it, or, in autodiff itself
    (`own`), by its bare name."""
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None and alias.name == "autodiff":
                    modules.add(bound)
                elif node.module == "autodiff":
                    names[bound] = alias.name
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in modules:
            called.add(f.attr)
        elif isinstance(f, ast.Name) and (own or f.id in names):
            called.add(f.id if own else names[f.id])
    return called


def _uncalled_ops(autodiff: ast.Module, others: list[ast.Module]) -> set[str]:
    called = _autodiff_calls(autodiff, own=True).union(
        *(_autodiff_calls(tree) for tree in others))
    return _ops(autodiff) - called


def test_every_op_without_a_src_caller_is_one_the_tracer_names():
    # such ops stay only while the tracer's hand-kept OPS wraps them;
    # an op that loses its last caller, or is added without one, fails
    # here, and trimming OPS makes their deletion due
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    autodiff = trees.pop("autodiff.py")
    uncalled = _uncalled_ops(autodiff, list(trees.values()))
    assert uncalled - set(load_tracing().OPS) == set()


def test_the_check_sees_an_op_without_a_caller():
    autodiff = ast.parse(
        "def _attach(out, op, inputs, apply):\n    return out\n"
        "def neg(a):\n    return _attach(a, 'neg', (a,), None)\n"
        "def twice(a):\n    return _attach(a, 'twice', (a,), None)\n"
        "def thrice(a):\n    return _attach(a, 'thrice', (a,), None)\n"
        "def spare(a):\n    return _attach(a, 'spare', (a,), None)\n"
        "def tensor(a):\n    return twice(a)\n")
    caller = ast.parse("import numpy as np\n"
                       "from . import autodiff as ad\n"
                       "from .autodiff import thrice as third\n"
                       "y = third(ad.neg(np.spare(x)))\n")
    assert _ops(autodiff) == {"neg", "twice", "thrice", "spare"}
    assert _uncalled_ops(autodiff, [caller]) == {"spare"}
