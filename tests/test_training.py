"""Trainer tests: Adam pinned against its closed-form first step, the
early-stopping rule replayed against a brute-force oracle, and bitwise
run determinism across all three modes.
"""

import numpy as np
import pytest

from selfaug import autodiff as ad
from selfaug.data import LabelSpace, SynthSpec, build_vocab, gen_synthetic
from selfaug.errors import ConfigError, DataError, DomainError
from selfaug.model import EncoderModel, ModelConfig
from selfaug.objective import DualStreamConfig, ProjectionNetwork
from selfaug.training import (Adam, EarlyStopper, TrainConfig, evaluate,
                              train)


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


def small_setup(mode: str, seed: int = 0, n_examples: int = 64):
    examples, label_space = synth_examples(n_examples)
    split = int(0.75 * len(examples))
    train_ex, val_ex = examples[:split], examples[split:]
    vocab = build_vocab(train_ex)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                      n_layers=2, d_ff=16, max_seq_len=16,
                      head_kind="binary", n_outputs=2)
    model_f = EncoderModel(cfg, seed=seed)
    model_c = EncoderModel(cfg, seed=seed + 1) if mode != "baseline" \
        else None
    projection = ProjectionNetwork(8, (8, 8, 4), seed=seed + 2) \
        if mode == "proposed" else None
    dual = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.2,
                            projection_dims=(8, 8, 4)) \
        if mode != "baseline" else None
    return model_f, model_c, projection, train_ex, val_ex, vocab, \
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
        model_f, model_c, _, tr, va, vocab, space, dual = \
            small_setup("proposed")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="proposed")
        with pytest.raises(ConfigError):
            train(model_f, model_c, None, tr, va, vocab, space, dual, cfg)

    def test_empty_split_rejected(self):
        model_f, model_c, proj, tr, va, vocab, space, dual = \
            small_setup("baseline")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="baseline")
        with pytest.raises(DataError):
            train(model_f, model_c, proj, tr, [], vocab, space, dual, cfg)

    def test_train_smaller_than_batch_rejected(self):
        model_f, model_c, proj, tr, va, vocab, space, dual = \
            small_setup("baseline")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=256,
                          seed=0, mode="baseline")
        with pytest.raises(DataError):
            train(model_f, model_c, proj, tr, va, vocab, space, dual, cfg)

    def test_max_epochs_one_gives_one_record(self):
        parts = small_setup("baseline")
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=8,
                          seed=0, mode="baseline")
        assert len(train(*parts, cfg).records) == 1


class TestEvaluate:
    def test_perfect_and_constant_predictors(self):
        # constant single-class predictor on a balanced binary split:
        # the predicted class scores F1 = 2/3, the other 0, macro 1/3
        examples, label_space = synth_examples(40)
        vocab = build_vocab(examples)
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                          n_layers=1, d_ff=16, max_seq_len=16,
                          head_kind="binary", n_outputs=2)
        model = EncoderModel(cfg, seed=0)
        # force a constant predictor: zero head weights, biased logits
        model.head_w.data = np.zeros_like(model.head_w.data)
        model.head_b.data = np.array([5.0, 0.0])
        bundle = evaluate(model, examples, vocab, label_space)
        assert bundle.macro.f1 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_deterministic(self):
        examples, label_space = synth_examples(30)
        vocab = build_vocab(examples)
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                          n_layers=1, d_ff=16, max_seq_len=16,
                          head_kind="binary", n_outputs=2)
        model = EncoderModel(cfg, seed=1)
        a = evaluate(model, examples, vocab, label_space)
        b = evaluate(model, examples, vocab, label_space)
        assert a.to_dict() == b.to_dict()

    def test_empty_split_rejected(self):
        examples, label_space = synth_examples(10)
        vocab = build_vocab(examples)
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                          n_layers=1, d_ff=16, max_seq_len=16,
                          head_kind="binary", n_outputs=2)
        with pytest.raises(DataError):
            evaluate(EncoderModel(cfg, seed=0), [], vocab, label_space)
