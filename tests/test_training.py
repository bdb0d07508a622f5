"""Trainer tests: Adam pinned against its closed-form first step, the
early-stopping rule replayed against a brute-force oracle, and bitwise
run determinism across all three modes.
"""

import ctypes
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import selfaug
from selfaug import autodiff as ad
from selfaug import training
from selfaug.config import ExperimentConfig
from selfaug.data import (LabelSpace, SynthSpec, Vocabulary, batches,
                          build_vocab, encode_split, gen_synthetic)
from selfaug.errors import ConfigError, DataError, DomainError
from selfaug.harness import _build_components, prepare_data
from selfaug.model import EncoderModel, ModelConfig
from selfaug.objective import DualStreamConfig, ProjectionNetwork
from selfaug.seeding import rng_for
from selfaug.training import (ADAM_BLOCK, M_MMAP_THRESHOLD,
                              M_TRIM_THRESHOLD, MMAP_THRESHOLD_BYTES,
                              TRIM_THRESHOLD_BYTES, Adam, EarlyStopper,
                              TrainConfig, _keep_freed_memory, _step_losses,
                              evaluate, train)


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
        _keep_freed_memory.cache_clear()
        yield
        _keep_freed_memory.cache_clear()

    def test_unloadable_libc_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", _unloadable)
        _keep_freed_memory()

    def test_libc_without_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        _keep_freed_memory()

    def test_off_glibc_sets_nothing(self, monkeypatch):
        libc = FakeLibc(1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
        _keep_freed_memory()
        assert libc.calls == []

    def test_refused_mmap_threshold_leaves_the_trim_threshold(
            self, monkeypatch):
        libc = FakeLibc(0)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        _keep_freed_memory()
        assert libc.calls == [(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)]

    def test_two_trainings_set_it_once(self, monkeypatch):
        libc = FakeLibc(1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        for _ in range(2):
            train(*small_setup("baseline"),
                  TrainConfig(max_epochs=1, patience=1, batch_size=8,
                              seed=0, mode="baseline"))
        assert libc.calls == [(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
                              (M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="mallopt is glibc's")
    def test_glibc_accepts_both_values(self):
        mallopt = ctypes.CDLL(None).mallopt
        assert mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
        assert mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1


# one dropout-on proposed epoch whose [16, 32, 64] activations (256 KiB)
# glibc would serve from mmap by default, run with the allocator settings
# as shipped or, given a second argument, with the helper a no-op
ALLOCATOR_RUN = """
import sys
from selfaug import harness, training
from selfaug.config import ExperimentConfig
if len(sys.argv) > 2:
    training._keep_freed_memory = lambda: None
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

    def test_empty_split_rejected(self):
        examples, label_space = synth_examples(10)
        vocab = build_vocab(examples)
        with pytest.raises(DataError):
            evaluate(binary_model(vocab, 0, n_layers=1),
                     encode_split([], vocab, label_space, 16), label_space)
