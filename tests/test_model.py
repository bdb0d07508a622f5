"""Encoder tests: deterministic init, masking, the injection hook, pooling,
prediction rules, the whole-model gradient check, and the checkpoint
container."""

import numpy as np
import pytest

from selfaug import autodiff as ad
from selfaug.data import Batch
from selfaug.errors import ConfigError, ShapeError
from selfaug.model import (EncoderModel, ModelConfig, load_checkpoint, pool,
                           predict, save_checkpoint)

from conftest import fd_grad, rel_err

RNG = np.random.default_rng(90125)


def small_config(**overrides):
    base = dict(vocab_size=11, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                max_seq_len=8, head_kind="multiclass", n_outputs=3)
    base.update(overrides)
    return ModelConfig(**base)


def make_batch(b=2, s=5, vocab=11, seed=0, n_classes=3):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, vocab, (b, s))
    ids[:, 0] = 2  # CLS
    mask = np.ones((b, s))
    # stagger padding: row i loses its last i columns
    for i in range(b):
        if i > 0:
            ids[i, -i:] = 0
            mask[i, -i:] = 0.0
    targets = rng.integers(0, n_classes, b)
    return Batch(token_ids=ids, attention_mask=mask, targets=targets,
                 ids=[f"x{i}" for i in range(b)])


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = EncoderModel(small_config(), seed=3)
        b = EncoderModel(small_config(), seed=3)
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)
        c = EncoderModel(small_config(), seed=4)
        assert any(not np.array_equal(ta.data, tc.data)
                   for (_, ta), (_, tc) in zip(a.parameters(), c.parameters()))

    def test_biases_zero_gains_one(self):
        model = EncoderModel(small_config(), seed=1)
        params = dict(model.parameters())
        np.testing.assert_array_equal(params["layer0.attn_q_b"].data, 0.0)
        np.testing.assert_array_equal(params["layer0.ln1_gain"].data, 1.0)
        np.testing.assert_array_equal(params["head_b"].data, 0.0)

    def test_head_dim_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            small_config(d_model=9, n_heads=2)


class TestForward:
    def test_shapes_and_tap_count(self):
        model = EncoderModel(small_config(n_layers=3), seed=2)
        batch = make_batch()
        logits, hidden = model.forward(batch)
        assert logits.shape == (2, 3)
        assert len(hidden) == 4  # H_0 .. H_3
        assert all(h.shape == (2, 5, 8) for h in hidden)

    def test_zero_injection_is_bitwise_identity(self):
        model = EncoderModel(small_config(n_layers=2), seed=5)
        batch = make_batch()
        plain, _ = model.forward(batch)
        zeros = ad.tensor(np.zeros((2, 5, 8)))
        for j in range(3):
            injected, _ = model.forward(batch, injection=(j, zeros))
            np.testing.assert_array_equal(plain.data, injected.data)

    def test_injection_matches_manual_recompute(self):
        # forward with (j, T) must equal: run plain, replace H_j by H_j + T,
        # push through the remaining layers and head by hand
        config = small_config(n_layers=2)
        model = EncoderModel(config, seed=6)
        batch = make_batch()
        _, hidden = model.forward(batch)
        tap = ad.tensor(RNG.normal(0, 0.1, (2, 5, 8)))
        for j in (0, 1, 2):
            logits_inj, hidden_inj = model.forward(batch, injection=(j, tap))
            h = ad.add(hidden[j], tap)
            np.testing.assert_array_equal(hidden_inj[j].data, h.data)
            for layer in model.layers[j:]:
                h = layer.apply(h, batch.attention_mask, train=False, rng=None)
            manual_logits = ad.linear(pool(h, batch.attention_mask, "cls"),
                                      model.head_w, model.head_b)
            np.testing.assert_array_equal(logits_inj.data, manual_logits.data)

    def test_pad_content_cannot_influence_logits(self):
        model = EncoderModel(small_config(), seed=7)
        batch = make_batch(b=3, s=5)
        plain, _ = model.forward(batch)
        scrambled = Batch(token_ids=batch.token_ids.copy(),
                          attention_mask=batch.attention_mask,
                          targets=batch.targets, ids=batch.ids)
        pad = scrambled.attention_mask == 0.0
        assert pad.any()
        scrambled.token_ids[pad] = RNG.integers(3, 11, int(pad.sum()))
        perturbed, _ = model.forward(scrambled)
        np.testing.assert_array_equal(plain.data, perturbed.data)

    def test_injection_validation(self):
        model = EncoderModel(small_config(), seed=8)
        batch = make_batch()
        with pytest.raises(ConfigError):
            model.forward(batch, injection=(5, ad.tensor(np.zeros((2, 5, 8)))))
        with pytest.raises(ShapeError):
            model.forward(batch, injection=(0, ad.tensor(np.zeros((2, 4, 8)))))

    def test_batch_wider_than_positions_rejected(self):
        model = EncoderModel(small_config(max_seq_len=4), seed=9)
        with pytest.raises(ShapeError):
            model.forward(make_batch(s=5))


class TestPooling:
    def test_cls_takes_position_zero(self):
        h = ad.tensor(RNG.normal(0, 1, (2, 4, 3)))
        mask = np.ones((2, 4))
        np.testing.assert_array_equal(pool(h, mask, "cls").data,
                                      h.data[:, 0, :])

    def test_mean_ignores_padding(self):
        h = ad.tensor(np.arange(24, dtype=float).reshape(2, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        got = pool(h, mask, "mean").data
        np.testing.assert_allclose(got[0], h.data[0, :2].mean(axis=0))
        np.testing.assert_allclose(got[1], h.data[1].mean(axis=0))

    def test_fully_padded_row_rejected(self):
        h = ad.tensor(np.zeros((1, 3, 2)))
        with pytest.raises(ShapeError):
            pool(h, np.zeros((1, 3)), "mean")


class TestPredict:
    def test_argmax_tie_takes_lower_index(self):
        assert predict(np.array([[1.0, 1.0, 0.5]]), "multiclass") == [0]

    def test_multilabel_threshold(self):
        logits = np.array([[2.0, -2.0, 0.1]])
        assert predict(logits, "multilabel", threshold=0.5) == [{0, 2}]

    def test_multilabel_fallback_to_best_class(self):
        logits = np.array([[-1.0, -2.0, -3.0]])
        assert predict(logits, "multilabel", threshold=0.5) == [{0}]


def randomize_parameters(model, rng, scale=0.3):
    # init-scale weights leave attention near-uniform and its q/k gradients
    # at noise level; a random instance needs healthy magnitudes everywhere
    for _, param in model.parameters():
        param.data = rng.normal(0.0, scale, param.shape)


def model_loss(model, batch):
    with ad.no_grad():
        out, _ = model.forward(batch)
    e = out.data - out.data.max(-1, keepdims=True)
    logp = e - np.log(np.exp(e).sum(-1, keepdims=True))
    rows = np.arange(len(batch.targets))
    return float(-logp[rows, batch.targets].mean())


class TestWholeModelGradient:
    def test_one_layer_encoder_against_finite_differences(self):
        model = EncoderModel(small_config(), seed=11)
        randomize_parameters(model, np.random.default_rng(12))
        batch = make_batch()

        logits, _ = model.forward(batch)
        ad.backward(ad.cross_entropy(logits, batch.targets))

        for name, param in model.parameters():
            numeric = fd_grad(lambda x: model_loss(model, batch), param.data)
            err = rel_err(param.grad, numeric)
            assert err < 1e-3, f"{name}: {err}"


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        arrays = {"w": RNG.normal(0, 1, (3, 4)), "b": RNG.normal(0, 1, 4)}
        meta = {"config": small_config().to_dict(), "note": "round trip"}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, meta, arrays)
        meta2, arrays2 = load_checkpoint(p1)
        save_checkpoint(p2, meta2, arrays2)
        assert p1.read_bytes() == p2.read_bytes()
        assert meta2 == meta
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], arrays2[name])

    def test_model_state_round_trip(self, tmp_path):
        model = EncoderModel(small_config(), seed=13)
        p = tmp_path / "model.bin"
        save_checkpoint(p, {"config": model.config.to_dict()}, model.state())
        meta, arrays = load_checkpoint(p)
        restored = EncoderModel(ModelConfig.from_dict(meta["config"]), seed=99)
        restored.load_state(arrays)
        batch = make_batch()
        a, _ = model.forward(batch)
        b, _ = restored.forward(batch)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigError):
            load_checkpoint(p)

    def test_state_mismatch_is_named(self):
        model = EncoderModel(small_config(), seed=14)
        state = model.state()
        del state["head_w"]
        with pytest.raises(ConfigError, match="head_w"):
            model.load_state(state)
