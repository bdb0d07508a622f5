"""Trainer tests: Adam pinned against its closed-form first step, the
early-stopping rule replayed against a brute-force oracle, and bitwise
run determinism across all three modes.
"""

import ctypes
import gc
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import selfaug
from selfaug import autodiff as ad
from selfaug import harness, parallel, training
from selfaug.config import ExperimentConfig
from selfaug.data import (EXPORT_BATCH_SIZE, EncodedSplit, LabelSpace,
                          SynthSpec, Vocabulary, batches, build_vocab,
                          encode_split, gen_synthetic)
from selfaug.errors import ConfigError, DataError, DomainError
from selfaug.harness import _build_components, prepare_data
from selfaug.metrics import evaluate_predictions
from selfaug.model import EncoderModel, ModelConfig, predict
from selfaug.objective import DualStreamConfig, ProjectionNetwork
from selfaug.seeding import rng_for
from selfaug.parallel import (ARENA_MAX, M_ARENA_MAX, M_MMAP_THRESHOLD,
                              M_TRIM_THRESHOLD, MMAP_THRESHOLD_BYTES,
                              TRIM_THRESHOLD_BYTES, keep_freed_memory)
from selfaug.training import (ADAM_BLOCK, Adam, EarlyStopper, TrainConfig,
                              _step_losses, evaluate, train)

from conftest import lanes_meet, on_lane_zero


def synth_examples(count: int = 64, seed: int = 0):
    spec = SynthSpec(task_kind="binary", classes=["ailment", "banter"],
                     keywords={"ailment": ["ache", "fever", "chill"],
                               "banter": ["joke", "meme", "banter"]},
                     literal_templates=["today the {kw} came back",
                                        "all about the {kw} again"],
                     figurative_templates=["that {kw} was wild"],
                     ambiguity=0.0, count=count)
    examples = gen_synthetic(spec, seed=seed)
    return examples, spec.label_space()


def binary_model(vocab: Vocabulary, seed: int,
                 n_layers: int = 2) -> EncoderModel:
    """A two-output encoder over `vocab` that reads up to 16 tokens."""
    return EncoderModel(ModelConfig(d_model=8, n_heads=2, n_layers=n_layers,
                                    d_ff=16, max_seq_len=16),
                        len(vocab), 2, seed=seed)


def small_setup(mode: str, seed: int = 0, n_examples: int = 64):
    examples, label_space = synth_examples(n_examples)
    split = int(0.75 * len(examples))
    train_ex, val_ex = examples[:split], examples[split:]
    vocab = build_vocab(train_ex)
    model_f = binary_model(vocab, seed)
    model_c = binary_model(vocab, seed + 1) if mode != "baseline" \
        else None
    projection = ProjectionNetwork(8, (8, 8, 4), seed=seed + 2) \
        if mode == "proposed" else None
    dual = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.2,
                            projection_dims=(8, 8, 4)) \
        if mode != "baseline" else None
    return model_f, model_c, projection, \
        encode_split(train_ex, vocab, label_space, 16), \
        encode_split(val_ex, vocab, label_space, 16), \
        label_space, dual


class TestTrainConfig:
    def test_patience_bounded_by_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=3, patience=4)

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="turbo")

    def test_positive_learning_rate(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = ad.parameter(np.array([1.0, -2.0, 3.0]))
        opt = Adam([("p", p)], learning_rate=0.1)
        p.grad = np.zeros(3)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_missing_gradient_treated_as_zero(self):
        p = ad.parameter(np.array([1.0]))
        opt = Adam([("p", p)], learning_rate=0.1)
        opt.step()
        assert np.array_equal(p.data, np.array([1.0]))

    def test_first_step_magnitude_is_learning_rate(self):
        # t=1: m-hat = g, v-hat = g^2, so the update is
        # -lr * g / (|g| + eps) = -lr * sign(g) up to eps
        p = ad.parameter(np.array([0.0, 0.0]))
        opt = Adam([("p", p)], learning_rate=0.05)
        p.grad = np.array([3.0, -0.25])
        opt.step()
        assert np.allclose(p.data, [-0.05, 0.05], atol=1e-7)

    def test_non_finite_gradient_names_parameter(self):
        p = ad.parameter(np.array([1.0]))
        q = ad.parameter(np.array([1.0]))
        opt = Adam([("weights_in", p), ("weights_out", q)],
                   learning_rate=0.1)
        p.grad = np.array([0.5])
        q.grad = np.array([np.nan])
        with pytest.raises(DomainError, match="weights_out"):
            opt.step()
        # the bad value in the middle of the arena, between two finite
        # parameters, past the first element of its own
        params = [(name, ad.parameter(np.ones(shape))) for name, shape in
                  (("embed", (3, 5)), ("mid", (2, 3)), ("head", (4,)))]
        opt = Adam(params, learning_rate=0.1)
        opt.zero_grad()
        params[1][1].grad[1, 2] = np.inf
        with pytest.raises(DomainError, match=r"for mid at step 1$"):
            opt.step()

    def test_fused_step_bitwise_equals_per_tensor_arithmetic(self):
        # the reference is the per-tensor update acceptance test_05's
        # trainer also uses; "c" never gets a gradient, and "b" takes one
        # assigned by hand on every third step instead of from backward
        rng = np.random.default_rng(4)
        shapes = {"a": (3, 5), "b": (7,), "c": (2, 2, 2)}
        params = [(name, ad.parameter(rng.normal(size=shape)))
                  for name, shape in shapes.items()]
        want = {name: t.data.copy() for name, t in params}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        lr = 0.01
        opt = Adam(params, learning_rate=lr)
        (_, a), (_, b), (_, c) = params
        c_start = c.data.copy()
        for step in range(1, 26):
            grads = {"a": rng.normal(size=shapes["a"]),
                     "b": rng.normal(size=shapes["b"])
                     * 10.0 ** rng.integers(-6, 3)}
            opt.zero_grad()
            loss = ad.sum_all(ad.mul(a, ad.tensor(grads["a"])))
            if step % 3:
                loss = ad.add(loss, ad.sum_all(
                    ad.mul(b, ad.tensor(grads["b"]))))
            else:
                b.grad = grads["b"].copy()
            ad.backward(loss)
            opt.step()
            bias1 = 1.0 - 0.9 ** step
            bias2 = 1.0 - 0.999 ** step
            for name in shapes:
                g = grads.get(name, 0.0)
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * np.square(g)
                want[name] = want[name] - lr * (m[name] / bias1) / \
                    (np.sqrt(v[name] / bias2) + 1e-8)
            for name, t in params:
                assert np.array_equal(t.data, want[name]), (name, step)
                assert np.shares_memory(t.data, opt.data), name
                assert np.shares_memory(t.grad, opt.grad), name
        assert np.array_equal(c.data, c_start)  # no gradient, no move

    def test_blocked_step_bitwise_equals_per_tensor_arithmetic(self):
        # four blocks, the last one partial; block boundaries fall inside
        # "a" (at ADAM_BLOCK) and twice inside "b"
        rng = np.random.default_rng(9)
        shapes = {"a": (ADAM_BLOCK + 5000,), "b": (2, ADAM_BLOCK),
                  "c": (3, 1000)}
        params = [(name, ad.parameter(rng.normal(size=shape)))
                  for name, shape in shapes.items()]
        opt = Adam(params, learning_rate=0.01)
        assert opt.data.size > 3 * ADAM_BLOCK
        want = {name: t.data.copy() for name, t in params}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for step in range(1, 4):
            opt.zero_grad()
            bias1 = 1.0 - 0.9 ** step
            bias2 = 1.0 - 0.999 ** step
            for name, t in params:
                g = rng.normal(size=shapes[name]) * 10.0 ** rng.integers(-4, 3)
                t.grad[...] = g
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * np.square(g)
                want[name] = want[name] - 0.01 * (m[name] / bias1) / \
                    (np.sqrt(v[name] / bias2) + 1e-8)
            opt.step()
            for name, t in params:
                assert np.array_equal(t.data, want[name]), (name, step)

        # a non-finite gradient in the last block stops the step before
        # any block has moved a parameter or a moment
        before = [arr.copy() for arr in (opt.data, opt.m, opt.v)]
        opt.zero_grad()
        opt.grad[:-1] = rng.normal(size=opt.grad.size - 1)
        opt.grad[-1] = np.nan
        with pytest.raises(DomainError, match="for c at step 4"):
            opt.step()
        for old, new in zip(before, (opt.data, opt.m, opt.v)):
            assert np.array_equal(old, new)

    def test_two_runs_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(0)
            p = ad.parameter(rng.normal(size=(4, 3)))
            opt = Adam([("p", p)], learning_rate=0.01)
            for _ in range(25):
                x = ad.tensor(rng.normal(size=(2, 4)))
                loss = ad.sum_all(ad.mul(ad.matmul(x, p),
                                         ad.matmul(x, p)))
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            return p.data
        assert np.array_equal(run(), run())

    def test_duplicate_names_rejected(self):
        p = ad.parameter(np.array([1.0]))
        with pytest.raises(ConfigError):
            Adam([("p", p), ("p", p)], learning_rate=0.1)

    def test_converges_on_quadratic(self):
        p = ad.parameter(np.array([5.0, -4.0]))
        opt = Adam([("p", p)], learning_rate=0.1)
        for _ in range(300):
            opt.zero_grad()
            ad.backward(ad.sum_all(ad.mul(p, p)))
            opt.step()
        assert np.abs(p.data).max() < 1e-2


def stopping_oracle(trace: list[float], patience: int):
    """Direct restatement of the rule: stop after `patience` consecutive
    epochs without strictly beating the best score seen so far."""
    best, best_epoch, stale = float("-inf"), 0, 0
    for epoch, score in enumerate(trace, start=1):
        if score > best:
            best, best_epoch, stale = score, epoch, 0
        else:
            stale += 1
        if stale >= patience:
            return epoch, best_epoch
    return len(trace), best_epoch


class TestEarlyStopper:
    def test_worked_trace(self):
        # one improvement at epoch 2, then five flat epochs exhaust
        # patience at epoch 7
        stopper = EarlyStopper(patience=5)
        trace = [0.6, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]
        stops = [stopper.update(i, f) for i, f in enumerate(trace, 1)]
        assert stops == [False, False, False, False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best_score == 0.7

    def test_ties_keep_earlier_epoch(self):
        stopper = EarlyStopper(patience=3)
        for epoch, f1 in enumerate([0.5, 0.9, 0.9], 1):
            stopper.update(epoch, f1)
        assert stopper.best_epoch == 2

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            patience = int(rng.integers(1, 6))
            trace = list(rng.choice([0.2, 0.4, 0.6, 0.8],
                                    size=rng.integers(1, 15)))
            stopper = EarlyStopper(patience)
            last = 0
            for epoch, score in enumerate(trace, 1):
                last = epoch
                if stopper.update(epoch, score):
                    break
            want_stop, want_best = stopping_oracle(trace, patience)
            assert (last, stopper.best_epoch) == (want_stop, want_best)


class TestTrain:
    @pytest.mark.parametrize("mode", ["baseline", "sa_only", "proposed"])
    def test_runs_and_records(self, mode):
        parts = small_setup(mode)
        cfg = TrainConfig(max_epochs=2, patience=2, batch_size=8,
                          seed=0, mode=mode)
        result = train(*parts, cfg)
        assert len(result.records) == 2
        for rec in result.records:
            assert np.isfinite(rec.total)
            assert 0.0 <= rec.val_f1 <= 1.0
        assert result.best_epoch in (1, 2)
        # stream one alone: no copy, projection or optimizer state
        assert set(result.state) == {name for name, _ in
                                     parts[0].parameters()}

    @pytest.mark.parametrize("mode", ["baseline", "proposed"])
    def test_bitwise_determinism(self, mode):
        def run():
            parts = small_setup(mode)
            cfg = TrainConfig(max_epochs=2, patience=2, batch_size=8,
                              seed=3, mode=mode)
            return train(*parts, cfg)

        a, b = run(), run()
        for ra, rb in zip(a.records, b.records):
            assert (ra.ce_f, ra.ce_c, ra.contrastive, ra.total) == \
                (rb.ce_f, rb.ce_c, rb.contrastive, rb.total)
            assert ra.val_f1 == rb.val_f1
        assert set(a.state) == set(b.state)
        for key in a.state:
            assert np.array_equal(a.state[key], b.state[key]), key

    def test_baseline_ignores_missing_second_stream(self):
        parts = small_setup("baseline")
        assert parts[1] is None and parts[2] is None
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="baseline")
        result = train(*parts, cfg)
        assert len(result.records) == 1
        assert result.records[0].ce_c == 0.0
        assert result.records[0].total == result.records[0].ce_f

    def test_sa_only_total_is_half_the_ce_sum(self):
        parts = small_setup("sa_only")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="sa_only")
        rec = train(*parts, cfg).records[0]
        assert rec.contrastive == 0.0
        assert rec.total == pytest.approx((rec.ce_f + rec.ce_c) / 2,
                                          abs=1e-12)

    def test_proposed_needs_projection(self):
        model_f, model_c, _, tr, va, space, dual = small_setup("proposed")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="proposed")
        with pytest.raises(ConfigError):
            train(model_f, model_c, None, tr, va, space, dual, cfg)

    def test_empty_split_rejected(self):
        model_f, model_c, proj, tr, va, space, dual = small_setup("baseline")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="baseline")
        empty = encode_split([], Vocabulary([]), space, 16)
        with pytest.raises(DataError):
            train(model_f, model_c, proj, tr, empty, space, dual, cfg)

    def test_train_smaller_than_batch_rejected(self):
        model_f, model_c, proj, tr, va, space, dual = small_setup("baseline")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=256,
                          seed=0, mode="baseline")
        with pytest.raises(DataError):
            train(model_f, model_c, proj, tr, va, space, dual, cfg)

    def test_max_epochs_one_gives_one_record(self):
        parts = small_setup("baseline")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="baseline")
        assert len(train(*parts, cfg).records) == 1


@pytest.mark.parametrize("mode", ["baseline", "proposed"])
def test_step_graph_is_gone_before_the_next_forward(mode, monkeypatch):
    # nodes alive before training (another test's, say) are not its graph
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, ad.Node)]
    step_losses = training._step_losses
    calls = []

    def checked(*args):
        if calls:
            alive = [o.op for o in gc.get_objects()
                     if isinstance(o, ad.Node)
                     and not any(o is b for b in before)]
            assert alive == [], f"step {len(calls) + 1} starts with " \
                                f"{len(alive)} nodes alive"
        calls.append(1)
        return step_losses(*args)

    monkeypatch.setattr(training, "_step_losses", checked)
    train(*small_setup(mode), TrainConfig(max_epochs=2, patience=2,
                                          batch_size=8, seed=0, mode=mode))
    assert len(calls) == 12  # 48 training examples, 6 batches, 2 epochs


class TestStreamThreads:
    """Training with the dual step's streams side by side and evaluation
    in two lanes (the cut-off patched to 0) leaves no thread behind,
    whether it returns or raises."""

    @pytest.fixture(autouse=True)
    def side_by_side(self, monkeypatch):
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)

    def test_no_thread_outlives_a_run(self, threads_started):
        before = threading.active_count()
        train(*small_setup("proposed"),
              TrainConfig(max_epochs=1, patience=1, batch_size=8, seed=0,
                          mode="proposed"))
        assert threading.active_count() == before
        # 6 steps, each a forward and a backward, and the validation pass
        assert len(threads_started) == 13

    def test_no_thread_outlives_a_failed_run(self, monkeypatch):
        parts = small_setup("proposed")
        layer = parts[1].layers[0]
        apply, calls = layer.apply, []

        def fails_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise DomainError("third step")
            return apply(*args, **kwargs)

        monkeypatch.setattr(layer, "apply", fails_third)
        before = threading.active_count()
        with pytest.raises(DomainError, match="third step"):
            train(*parts, TrainConfig(max_epochs=1, patience=1,
                                      batch_size=8, seed=0,
                                      mode="proposed"))
        assert threading.active_count() == before


# a run with its streams side by side and its evaluations in two lanes,
# then a 2-worker sweep that forks: a thread alive at the fork would
# leave the workers' locks held.  No thread may outlive an evaluate or an
# Adam step either
FORK_RUN = """
import sys
import threading
from dataclasses import replace
from selfaug import harness, parallel, training
from selfaug.config import ExperimentConfig
parallel.SIDE_BY_SIDE_MIN = 0
checked = set()
def alone(fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        assert threading.active_count() == 1, fn.__qualname__
        checked.add(fn.__qualname__)
        return out
    return wrapper
training.evaluate = harness.evaluate = alone(training.evaluate)
training.Adam.step = alone(training.Adam.step)
config = ExperimentConfig.from_file(sys.argv[1])
config = replace(config, train=replace(config.train, max_epochs=1,
                                       patience=1))
harness.run_training(replace(config, out_dir=sys.argv[2] + "/one"))
assert checked == {"evaluate", "Adam.step"}, checked
harness.run_ablation(replace(config, out_dir=sys.argv[2] + "/sweep"),
                     workers=2)
"""


def test_training_then_a_forked_sweep_finishes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(selfaug.__file__).parents[1])}
    preset = resources.files("selfaug") / "presets" / "desk_binary.json"
    run = subprocess.Popen([sys.executable, "-c", FORK_RUN, str(preset),
                            str(tmp_path)], env=env, start_new_session=True)
    try:
        assert run.wait(timeout=120) == 0
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)  # and the hung workers with it
        raise
    assert (tmp_path / "sweep" / "proposed" / "checkpoint.bin").is_file()


class FakeLibc:
    """A libc whose mallopt records its calls and returns `answer`."""

    def __init__(self, answer: int) -> None:
        self.answer = answer
        self.calls: list[tuple[int, int]] = []

    def mallopt(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.answer


def _unloadable(name):
    raise OSError(f"cannot load {name}")


class TestKeepFreedMemory:
    @pytest.fixture(autouse=True)
    def unset_on_glibc(self, monkeypatch):
        """The helper not yet applied, in what reads as a glibc process."""
        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        keep_freed_memory.cache_clear()
        yield
        keep_freed_memory.cache_clear()

    def test_unloadable_libc_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", _unloadable)
        keep_freed_memory()

    def test_libc_without_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        keep_freed_memory()

    def test_off_glibc_sets_nothing(self, monkeypatch):
        libc = FakeLibc(1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
        keep_freed_memory()
        assert libc.calls == []

    def test_refused_mmap_threshold_leaves_the_trim_threshold(
            self, monkeypatch):
        libc = FakeLibc(0)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        keep_freed_memory()
        assert libc.calls == [(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)]

    def test_two_trainings_set_it_once(self, monkeypatch):
        libc = FakeLibc(1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        for _ in range(2):
            train(*small_setup("baseline"),
                  TrainConfig(max_epochs=1, patience=1, batch_size=8,
                              seed=0, mode="baseline"))
        assert libc.calls == [(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
                              (M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
                              (M_ARENA_MAX, ARENA_MAX)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="mallopt is glibc's")
    def test_glibc_accepts_both_values(self):
        mallopt = ctypes.CDLL(None).mallopt
        assert mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
        assert mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="mallopt is glibc's")
    def test_glibc_accepts_one_arena(self):
        assert ctypes.CDLL(None).mallopt(M_ARENA_MAX, ARENA_MAX) == 1


# one dropout-on proposed epoch whose [16, 32, 64] activations (256 KiB)
# glibc would serve from mmap by default, run with the allocator settings
# as shipped or, given a second argument, with the helper a no-op
ALLOCATOR_RUN = """
import sys
from selfaug import harness, parallel
from selfaug.config import ExperimentConfig
if len(sys.argv) > 2:
    parallel.keep_freed_memory = lambda: None
words = " ".join(f"w{i}" for i in range(36))
harness.run_training(ExperimentConfig.from_dict({
    "data": {"synth_spec": {
        "task_kind": "binary", "classes": ["ailment", "banter"],
        "keywords": {"ailment": ["fever", "nausea"],
                     "banter": ["meme", "prank"]},
        "literal_templates": ["the {kw} " + words],
        "figurative_templates": ["pure {kw} " + words],
        "ambiguity": 0.0, "count": 60},
        "ratios": [0.8, 0.1, 0.1]},
    "model": {"d_model": 64, "n_heads": 2, "n_layers": 2, "d_ff": 64,
              "max_seq_len": 32, "dropout_rate": 0.1},
    "dual": {"tap_layer": 1, "inject_layer": 1, "alpha": 0.2,
             "projection_dims": [64, 64, 32]},
    "train": {"max_epochs": 1, "patience": 1, "batch_size": 16,
              "mode": "proposed"},
    "out_dir": sys.argv[1]}))
"""


def test_allocator_settings_do_not_move_bytes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(selfaug.__file__).parents[1])}
    runs = {}
    # one output path for both: the checkpoint stores the config
    out = tmp_path / "run"
    for name, extra in (("shipped", []), ("default", ["no-op"])):
        subprocess.run([sys.executable, "-c", ALLOCATOR_RUN, str(out),
                        *extra], check=True, env=env, timeout=60)
        runs[name] = {f: (out / f).read_bytes()
                      for f in ("metrics.json", "checkpoint.bin")}
        shutil.rmtree(out)
    assert json.loads(runs["shipped"]["metrics.json"])["epochs_run"] == 1
    assert runs["shipped"] == runs["default"]


# one epoch of d_model 128 multilabel posts that fill 64 tokens in
# batches of 16 ([1024, 128] activations): GEMMs large enough for
# OpenBLAS to split over threads, where the last bits of a split GEMM
# depend on the thread count
BLAS_RUN = """
import sys
import numpy as np
from selfaug import harness
from selfaug.config import ExperimentConfig
rng = np.random.default_rng(0)
def template():
    words = [f"w{i}" for i in rng.integers(64, size=22)]
    words[0:16:2] = ["{kw}"] * 8
    return " ".join(words)
classes = ["flu", "migraine", "allergy", "asthma"]
harness.run_training(ExperimentConfig.from_dict({
    "data": {"synth_spec": {
        "task_kind": "multilabel", "classes": classes,
        "keywords": {c: [c + "x"] for c in classes},
        "literal_templates": [template() for _ in range(4)],
        "figurative_templates": [template() for _ in range(2)],
        "ambiguity": 0.0, "count": 64},
        "ratios": [0.5, 0.25, 0.25]},
    "model": {"d_model": 128, "n_heads": 4, "n_layers": 4, "d_ff": 256,
              "max_seq_len": 64, "dropout_rate": 0.1},
    "dual": {"tap_layer": 2, "inject_layer": 3, "alpha": 0.2,
             "projection_dims": [128, 128, 64]},
    "train": {"max_epochs": 1, "patience": 1, "batch_size": 16,
              "mode": "proposed"},
    "out_dir": sys.argv[1]}))
"""


def test_checkpoint_does_not_depend_on_blas_threads(tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(selfaug.__file__).parents[1])
    checkpoints = {}
    # one output path for all: the checkpoint stores the config
    out = tmp_path / "run"
    for threads in (None, "1", "2"):
        extra = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", BLAS_RUN, str(out)],
                       check=True, env={**env, **extra}, timeout=60)
        checkpoints[threads] = (out / "checkpoint.bin").read_bytes()
        shutil.rmtree(out)
    assert checkpoints["1"] == checkpoints[None] == checkpoints["2"]


def test_every_optimized_parameter_gets_a_gradient():
    # one proposed step on the desk preset's first training batch, from
    # initialization: a parameter whose gradient is rounding noise (a
    # key bias under softmax, a bias before batch norm) learns nothing
    config = ExperimentConfig.from_file(
        resources.files("selfaug") / "presets" / "desk_binary.json")
    prepared = prepare_data(config)
    model_f, model_c, projection = _build_components(config, prepared)
    split = encode_split(prepared.train, prepared.vocab,
                         prepared.label_space, config.model.max_seq_len)
    seed = config.train.seed
    batch = next(iter(batches(split, config.train.batch_size, train=True,
                              seed=seed + 1)))
    named = [(f"f.{n}", t) for n, t in model_f.parameters()] + \
        [(f"c.{n}", t) for n, t in model_c.parameters()] + \
        [(f"proj.{n}", t) for n, t in projection.parameters()]
    Adam(named, config.train.learning_rate)  # zeroed gradient views
    losses = _step_losses("proposed", model_f, model_c, projection, batch,
                          config.dual, rng_for(seed, "dropout_f", 1),
                          rng_for(seed, "dropout_c", 1),
                          multilabel=False)
    ad.backward(losses.total)
    largest = {name: float(np.abs(t.grad).max()) for name, t in named}
    assert {name: g for name, g in largest.items() if g <= 1e-9} == {}


class TestEvaluate:
    def test_perfect_and_constant_predictors(self):
        # constant single-class predictor on a balanced binary split:
        # the predicted class scores F1 = 2/3, the other 0, macro 1/3
        examples, label_space = synth_examples(40)
        vocab = build_vocab(examples)
        model = binary_model(vocab, 0, n_layers=1)
        # force a constant predictor: zero head weights, biased logits
        model.head_w.data = np.zeros_like(model.head_w.data)
        model.head_b.data = np.array([5.0, 0.0])
        bundle = evaluate(model, encode_split(examples, vocab, label_space,
                                              16), label_space)
        assert bundle.macro.f1 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_deterministic(self):
        examples, label_space = synth_examples(30)
        vocab = build_vocab(examples)
        model = binary_model(vocab, 1, n_layers=1)
        split = encode_split(examples, vocab, label_space, 16)
        a = evaluate(model, split, label_space)
        b = evaluate(model, split, label_space)
        assert a.to_dict() == b.to_dict()

    def test_batch_size_below_one_rejected(self):
        examples, label_space = synth_examples(10)
        vocab = build_vocab(examples)
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            evaluate(binary_model(vocab, 0, n_layers=1),
                     encode_split(examples, vocab, label_space, 16),
                     label_space, batch_size=0)

    def test_empty_split_rejected(self):
        examples, label_space = synth_examples(10)
        vocab = build_vocab(examples)
        with pytest.raises(DataError):
            evaluate(binary_model(vocab, 0, n_layers=1),
                     encode_split([], vocab, label_space, 16), label_space)


def lane_split(lengths: list[int], labels: int) -> EncodedSplit:
    """An encoded split of random ids with the given row lengths: PAD
    after each length, targets for a binary or a `labels`-wide
    multilabel space."""
    rng = np.random.default_rng(0)
    lengths = np.array(lengths)
    width = int(lengths.max())
    ids = rng.integers(1, 40, size=(len(lengths), width))
    ids[np.arange(width) >= lengths[:, None]] = 0
    targets = rng.integers(0, 2, len(lengths)) if labels == 2 else \
        rng.integers(0, 2, (len(lengths), labels)).astype(float)
    return EncodedSplit(token_ids=ids, lengths=lengths, targets=targets,
                        ids=[f"r{i}" for i in range(len(lengths))])


def lane_model(labels: int, d_model: int = 8,
               max_seq_len: int = 16) -> EncoderModel:
    return EncoderModel(ModelConfig(d_model=d_model, n_heads=2, n_layers=2,
                                    d_ff=2 * d_model,
                                    max_seq_len=max_seq_len),
                        40, labels, seed=5)


def recording_forward(model: EncoderModel, before=None) -> dict:
    """Each forward's logits, by its batch's first id; `before` runs
    ahead of every forward."""
    forward, logits_of = model.forward, {}

    def spy(batch, **kwargs):
        if before is not None:
            before()
        logits, hidden = forward(batch, **kwargs)
        logits_of[batch.ids[0]] = logits.data.tobytes()
        return logits, hidden

    model.forward = spy
    return logits_of


MIXED = [2] * 8 + [16] * 8 + [5] * 8 + [9] * 3


class TestLanes:
    """Evaluation batches in two lanes (the cut-off patched to 0) give
    every bit the one-lane path gives, with the threads switching as
    finely as the interpreter can."""

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.fixture
    def cut_off(self, monkeypatch):
        def set_to(value: int) -> None:
            monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", value)
        return set_to

    @pytest.mark.parametrize("lengths, batch_size", [
        ([3, 16, 7, 1, 12, 9], 8),               # a single batch
        (list(range(1, 17)) + [4] * 8, 8),       # three batches
        ([5, 11, 2, 16, 8, 1, 3] * 4 + [6], 4),  # ends in a batch of one
        (MIXED, 8),                               # widths 2, 16, 5, 9
    ], ids=["single", "odd", "partial", "mixed"])
    @pytest.mark.parametrize("labels", [2, 3], ids=["binary", "multilabel"])
    def test_evaluate_in_two_lanes_matches_one(self, monkeypatch, cut_off,
                                               threads_started, lengths,
                                               batch_size, labels):
        split = lane_split(lengths, labels)
        space = LabelSpace("binary" if labels == 2 else "multilabel",
                           tuple("abc"[:labels]))
        scored = training.evaluate_predictions
        predicted = []

        def spy(pred, gold, names):
            predicted.append(pred.tobytes())
            return scored(pred, gold, names)

        monkeypatch.setattr(training, "evaluate_predictions", spy)
        before = threading.active_count()
        runs = []
        for value in (10**18, 0):
            cut_off(value)
            model = lane_model(labels)
            logits = recording_forward(model)
            bundle = evaluate(model, split, space, batch_size)
            runs.append((logits, bundle.to_dict()))
        assert threading.active_count() == before
        assert len(threads_started) == 1  # the two-lane call's alone
        assert runs[0] == runs[1]
        assert predicted[0] == predicted[1]
        assert len(runs[0][0]) == -(-len(lengths) // batch_size)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_in_an_evaluate_lane_reaches_the_caller(self, cut_off,
                                                          failing):
        cut_off(0)
        meet = lanes_meet()

        def fails() -> None:
            meet()
            if on_lane_zero() == (failing == 0):
                raise DomainError(f"lane {failing}")

        model = lane_model(2)
        recording_forward(model, before=fails)
        before = threading.active_count()
        with pytest.raises(DomainError, match=f"lane {failing}"):
            evaluate(model, lane_split(MIXED, 2), LabelSpace(
                "binary", ("a", "b")), 4)
        assert threading.active_count() == before


class TestLaneCutOff:
    """Small work stays on one thread; wide work takes a second."""

    def test_desk_training_starts_no_thread(self, tmp_path,
                                            threads_started):
        config = ExperimentConfig.from_file(
            resources.files("selfaug") / "presets" / "desk_binary.json")
        harness.run_training(replace(
            config, out_dir=str(tmp_path / "run"),
            train=replace(config.train, max_epochs=2, patience=2)))
        assert threads_started == []

    def test_wide_evaluate_starts_one_thread_per_call(self,
                                                      threads_started):
        # two batches of 16 posts of 64 tokens at d_model 128, the
        # benchmark's wide model
        model = lane_model(2, d_model=128, max_seq_len=64)
        split = lane_split([64] * 32, 2)
        space = LabelSpace("binary", ("a", "b"))
        for calls in (1, 2):
            evaluate(model, split, space, 16)
            assert len(threads_started) == calls


class TestRuns:
    """`parallel.runs` cuts a split into contiguous, non-empty runs of
    whole batches: one per process, at most one per batch and one per
    PROCESS_MIN_ROWS rows, and one alone for batches in two lanes or
    where the platform cannot fork."""

    def test_runs_cover_the_split_in_whole_batches(self):
        for n, batch_size, workers in itertools.product(
                [1, 15, 27, 600, 1023, 1024, 5000], [1, 4, 16, 128, 1000],
                [1, 2, 3, 8]):
            runs = parallel.runs(n, batch_size, workers, parallel.one_lane)
            count = min(workers, -(-n // batch_size),
                        n // parallel.PROCESS_MIN_ROWS)
            assert len(runs) == (max(1, count) if parallel.FORK else 1)
            assert runs[0].start == 0 and runs[-1].stop == n
            for run, after in zip(runs, runs[1:]):
                assert run.stop == after.start
            for run in runs:
                assert run.stop > run.start
                assert run.start % batch_size == 0

    def test_one_run_for_two_lanes_or_without_fork(self, monkeypatch):
        assert parallel.runs(5000, 16, 2, parallel.two_lanes) == \
            [slice(0, 5000)]
        monkeypatch.setattr(parallel, "FORK", None)
        assert parallel.runs(5000, 16, 2, parallel.one_lane) == \
            [slice(0, 5000)]


@pytest.fixture
def batches_logged(tmp_path, monkeypatch):
    """A function that returns, sorted, the ids of each batch evaluate's
    batcher has yielded in this process or in any process forked from it
    since the last call."""
    log = tmp_path / "batches"

    def logged(*args, **kwargs):
        for batch in batches(*args, **kwargs):
            with log.open("a", encoding="utf-8") as fh:
                fh.write(" ".join(batch.ids) + "\n")
            yield batch

    def read() -> list[str]:
        lines = sorted(log.read_text(encoding="utf-8").splitlines())
        log.unlink()
        return lines

    monkeypatch.setattr(training, "batches", logged)
    return read


class TestEvaluateProcesses:
    """An evaluation's batches in runs over forked worker processes give
    every bit, and every batch, of the one-process pass; a failure in
    any process reaches the caller, and no child or thread is left."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)

    @staticmethod
    def two_processes() -> EncodedSplit:
        """A split of rows enough for two processes at the floor."""
        return lane_split([3] * 2 * parallel.PROCESS_MIN_ROWS, 2)

    @pytest.mark.parametrize("labels", [2, 3], ids=["binary", "multilabel"])
    def test_workers_give_the_one_process_bits(self, monkeypatch, pools_made,
                                               threads_started,
                                               batches_logged, labels):
        # MIXED's 27 rows in batches of 4: six full and one of 3.  With a
        # process per 4 rows, two processes take runs of 3 and 4 batches
        # and three of 2, 2 and 3, and the last run ends in the partial
        # batch
        monkeypatch.setattr(parallel, "PROCESS_MIN_ROWS", 4)
        scored, predicted = training.evaluate_predictions, []

        def spy(pred, gold, names):
            predicted.append(pred.tobytes())
            return scored(pred, gold, names)

        monkeypatch.setattr(training, "evaluate_predictions", spy)
        split = lane_split(MIXED, labels)
        space = LabelSpace("binary" if labels == 2 else "multilabel",
                           tuple("abc"[:labels]))
        model = lane_model(labels)
        runs = []
        for workers in (1, 2, 3, None):
            bundle = evaluate(model, split, space, 4, workers=workers)
            assert multiprocessing.active_children() == []
            runs.append((json.dumps(bundle.to_dict()), batches_logged()))
        assert runs[1:] == runs[:1] * 3
        assert predicted[1:] == predicted[:1] * 3
        assert len(runs[0][1]) == 7
        assert pools_made == [1, 2, 2]  # beside the calling process's run
        assert threads_started == []

    @pytest.mark.parametrize("rows, made", [(1999, []), (2000, [1])])
    def test_a_process_takes_at_least_1000_rows(self, pools_made, rows,
                                                made):
        evaluate(lane_model(2), lane_split([3] * rows, 2),
                 LabelSpace("binary", ("a", "b")), 16, workers=2)
        assert pools_made == made

    @pytest.mark.parametrize("batch_size, made", [(100, []), (16, [1])])
    def test_no_more_processes_than_batches(self, monkeypatch, pools_made,
                                            batches_logged, batch_size,
                                            made):
        # 27 rows at a process per 4 rows and three CPUs: one batch of
        # 100 stays here, and two of 16 take a process each
        monkeypatch.setattr(parallel, "PROCESS_MIN_ROWS", 4)
        evaluate(lane_model(2), lane_split(MIXED, 2),
                 LabelSpace("binary", ("a", "b")), batch_size, workers=3)
        assert pools_made == made
        assert len(batches_logged()) == len(made) + 1

    def test_without_fork_the_evaluation_runs_here(self, monkeypatch,
                                                   pools_made):
        monkeypatch.setattr(parallel, "FORK", None)
        evaluate(lane_model(2), self.two_processes(),
                 LabelSpace("binary", ("a", "b")), 16, workers=2)
        assert pools_made == []

    def test_lanes_take_the_evaluation_without_children(self, monkeypatch,
                                                        pools_made,
                                                        threads_started):
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)
        evaluate(lane_model(2), self.two_processes(),
                 LabelSpace("binary", ("a", "b")), 16, workers=2)
        assert pools_made == []
        assert len(threads_started) == 1

    def test_batch_size_below_one_rejected_before_the_runs(self, pools_made):
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            evaluate(lane_model(2), self.two_processes(),
                     LabelSpace("binary", ("a", "b")), 0, workers=2)
        assert pools_made == []

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_error_reaches_the_caller(self, monkeypatch, pools_made, where):
        caller, predict = os.getpid(), training.predict

        def fails(*args):
            if (os.getpid() == caller) == (where == "caller"):
                raise DomainError(f"in the {where}")
            return predict(*args)

        monkeypatch.setattr(training, "predict", fails)
        with pytest.raises(DomainError, match=f"in the {where}"):
            evaluate(lane_model(2), self.two_processes(),
                     LabelSpace("binary", ("a", "b")), 16, workers=2)
        assert pools_made == [1]
        assert multiprocessing.active_children() == []


@pytest.fixture
def forwards_logged(tmp_path):
    """A function that spies on a model's forward, in this process and in
    any process forked from it, and one that returns each forward since
    the last call: its batch's rows in the split (from ids "r<row>"), its
    padded width, and its logits' rows."""
    log = tmp_path / "forwards"

    def spy_on(model: EncoderModel) -> None:
        forward = model.forward

        def spy(batch, **kwargs):
            logits, hidden = forward(batch, **kwargs)
            with log.open("a", encoding="utf-8") as fh:
                fh.write(f"{' '.join(batch.ids)}\t{batch.token_ids.shape[1]}"
                         f"\t{logits.data.tobytes().hex()}\n")
            return logits, hidden

        model.forward = spy

    def read() -> list[tuple[list[int], int, list[bytes]]]:
        forwards = []
        for line in log.read_text(encoding="utf-8").splitlines():
            ids, width, logits = line.split("\t")
            rows = [int(i[1:]) for i in ids.split()]
            logits = np.frombuffer(bytes.fromhex(logits)).reshape(
                len(rows), -1)
            forwards.append((rows, int(width),
                             [row.tobytes() for row in logits]))
        log.unlink()
        return sorted(forwards)

    return spy_on, read


def one_batch_at_a_time(model: EncoderModel, split: EncodedSplit,
                        space: LabelSpace, batch_size: int):
    """The reference pass: each batch of `batch_size` through the forward
    alone.  Each row's logits by row, the prediction matrix's bytes and
    the metrics' JSON."""
    logits_of, predicted = {}, []
    for batch in batches(split, batch_size, train=False):
        with ad.no_grad():
            logits, _ = model.forward(batch, train=False, cls_only=True)
        logits_of.update((int(i[1:]), row.tobytes())
                         for i, row in zip(batch.ids, logits.data))
        predicted.append(predict(logits.data, not space.single_label))
    predicted = np.concatenate(predicted)
    gold = np.eye(2, dtype=bool)[split.targets] if space.single_label \
        else split.targets > 0.5
    bundle = evaluate_predictions(predicted, gold, list(space.labels))
    return logits_of, predicted.tobytes(), json.dumps(bundle.to_dict())


# batches of 4: three at width 5, two at 9, one at 5, two at 16, two at
# 5, and a batch of one at 5
BLOCKS = [5, 3, 2, 4] * 3 + [9, 1] * 4 + [5] * 4 + [16, 2] * 4 + \
    [4, 5] * 4 + [5]


class TestMergedForwards:
    """Evaluation in one lane runs consecutive batches of one padded
    width as one forward of up to EXPORT_BATCH_SIZE sequences, never
    with a batch of one, and keeps every bit of the pass that runs each
    batch alone, in one process or several."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("labels", [2, 3], ids=["binary", "multilabel"])
    @pytest.mark.parametrize("lengths, batch_size, spans", [
        (BLOCKS, 4, {1: [(0, 12), (12, 20), (20, 24), (24, 32), (32, 40),
                         (40, 41)]}),
        # 18 batches of 16 and one of 12, all at width 6: the cap, and
        # at two processes, runs of 9 and 10 batches
        ([6, 3] * 150, 16, {1: [(0, 128), (128, 256), (256, 300)],
                            2: [(0, 128), (128, 144), (144, 272),
                                (272, 300)]}),
        (BLOCKS, 1, {1: [(row, row + 1) for row in range(41)]}),
    ], ids=["blocks", "cap", "batches-of-one"])
    def test_merged_forwards_give_the_bits_of_single_batches(
            self, monkeypatch, pools_made, forwards_logged, labels, workers,
            lengths, batch_size, spans):
        monkeypatch.setattr(parallel, "PROCESS_MIN_ROWS", 4)
        scored, predicted = training.evaluate_predictions, []

        def spy(pred, gold, names):
            predicted.append(pred.tobytes())
            return scored(pred, gold, names)

        monkeypatch.setattr(training, "evaluate_predictions", spy)
        spy_on, read = forwards_logged
        split = lane_split(lengths, labels)
        space = LabelSpace("binary" if labels == 2 else "multilabel",
                           tuple("abc"[:labels]))
        model = lane_model(labels)
        logits_of, want_predicted, want_json = one_batch_at_a_time(
            model, split, space, batch_size)
        spy_on(model)
        bundle = evaluate(model, split, space, batch_size, workers=workers)
        assert multiprocessing.active_children() == []
        assert pools_made == [1] * (workers - 1)
        forwards = read()

        assert json.dumps(bundle.to_dict()) == want_json
        assert predicted == [want_predicted]
        assert {row: logits for rows, _, rows_logits in forwards
                for row, logits in zip(rows, rows_logits)} == logits_of
        for rows, width, _ in forwards:
            assert rows == list(range(rows[0], rows[-1] + 1))
            if len(rows) > batch_size:
                assert len(rows) <= EXPORT_BATCH_SIZE
                for start in range(rows[0], rows[-1] + 1, batch_size):
                    alone = split.lengths[start:start + batch_size]
                    assert len(alone) > 1
                    assert max(2, alone.max()) == width
        assert [(rows[0], rows[-1] + 1) for rows, _, _ in forwards] \
            == spans.get(workers, spans[1])

    def test_two_lanes_forward_training_size_batches(self, forwards_logged,
                                                     threads_started):
        # six batches of 16 posts of 64 tokens at d_model 128, the
        # benchmark's wide model: one width, yet never merged
        spy_on, read = forwards_logged
        model = lane_model(2, d_model=128, max_seq_len=64)
        spy_on(model)
        evaluate(model, lane_split([64] * 96, 2),
                 LabelSpace("binary", ("a", "b")), 16, workers=2)
        assert len(threads_started) == 1
        assert [len(rows) for rows, _, _ in read()] == [16] * 6
        assert multiprocessing.active_children() == []
