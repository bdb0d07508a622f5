"""Encoder tests: deterministic init, masking, the injection hook, pooling,
prediction rules, the whole-model gradient check, and the checkpoint
container."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfaug import autodiff as ad
from selfaug.data import Batch, RowLayout
from selfaug.errors import ConfigError, ShapeError
from selfaug.model import (EncoderModel, ModelConfig, load_checkpoint, pool,
                           predict, save_checkpoint)

from conftest import fd_grad, rel_err
from reference_encoder import padding_mask, reference

RNG = np.random.default_rng(90125)


def small_config(**overrides):
    base = dict(d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=8)
    base.update(overrides)
    return ModelConfig(**base)


def small_model(seed, **overrides):
    """An encoder over make_batch's 11 token ids and 3 classes."""
    return EncoderModel(small_config(**overrides), 11, 3, seed=seed)


def make_batch(b=2, s=5, vocab=11, seed=0, n_classes=3):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, vocab, (b, s))
    ids[:, 0] = 2  # CLS
    # stagger padding: row i loses its last i columns
    lengths = s - np.arange(b)
    for i in range(b):
        ids[i, lengths[i]:] = 0
    targets = rng.integers(0, n_classes, b)
    return Batch(token_ids=ids, lengths=lengths, targets=targets,
                 ids=[f"x{i}" for i in range(b)])


def pad_positions(batch):
    """True at each padded [batch, seq] position of `batch`."""
    return padding_mask(batch.lengths, batch.token_ids.shape[1]) == 0.0


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = small_model(3)
        b = small_model(3)
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)
        c = small_model(4)
        assert any(not np.array_equal(ta.data, tc.data)
                   for (_, ta), (_, tc) in zip(a.parameters(), c.parameters()))

    def test_biases_zero_gains_one(self):
        model = small_model(1)
        params = dict(model.parameters())
        np.testing.assert_array_equal(params["layer0.attn_q_b"].data, 0.0)
        np.testing.assert_array_equal(params["layer0.ln1_gain"].data, 1.0)
        np.testing.assert_array_equal(params["head_b"].data, 0.0)

    def test_head_dim_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            small_config(d_model=9, n_heads=2)


class TestForward:
    def test_shapes_and_tap_count(self):
        model = small_model(2, n_layers=3)
        batch = make_batch()
        n = int(batch.lengths.sum())  # 5 + 4 real tokens
        logits, hidden = model.forward(batch)
        assert logits.shape == (2, 3)
        assert len(hidden) == 4  # H_0 .. H_3
        assert all(h.shape == (n, 8) for h in hidden)

    def test_zero_injection_is_bitwise_identity(self):
        model = small_model(5, n_layers=2)
        batch = make_batch()
        plain, _ = model.forward(batch)
        zeros = ad.tensor(np.zeros((int(batch.lengths.sum()), 8)))
        for j in range(3):
            injected, _ = model.forward(batch, injection=(j, zeros))
            np.testing.assert_array_equal(plain.data, injected.data)

    def test_injection_matches_manual_recompute(self):
        # forward with (j, T) must equal: run plain, replace H_j by H_j + T,
        # push through the remaining layers and head by hand
        model = small_model(6, n_layers=2)
        batch = make_batch()
        layout = batch.layout
        _, hidden = model.forward(batch)
        tap = ad.tensor(RNG.normal(0, 0.1, (len(layout.slots), 8)))
        for j in (0, 1, 2):
            logits_inj, hidden_inj = model.forward(batch, injection=(j, tap))
            h = ad.add(hidden[j], tap)
            np.testing.assert_array_equal(hidden_inj[j].data, h.data)
            for layer in model.layers[j:]:
                h = layer.apply(h, layout, train=False, rng=None)
            manual_logits = ad.linear(pool(h, layout, "cls"),
                                      model.head_w, model.head_b)
            np.testing.assert_array_equal(logits_inj.data, manual_logits.data)

    def test_pad_content_cannot_influence_logits(self):
        model = small_model(7)
        batch = make_batch(b=3, s=5)
        plain, _ = model.forward(batch)
        scrambled = Batch(token_ids=batch.token_ids.copy(),
                          lengths=batch.lengths,
                          targets=batch.targets, ids=batch.ids)
        pad = pad_positions(scrambled)
        assert pad.any()
        scrambled.token_ids[pad] = RNG.integers(3, 11, int(pad.sum()))
        perturbed, _ = model.forward(scrambled)
        np.testing.assert_array_equal(plain.data, perturbed.data)

    def test_injection_validation(self):
        model = small_model(8)
        batch = make_batch()
        n = int(batch.lengths.sum())
        with pytest.raises(ConfigError):
            model.forward(batch, injection=(5, ad.tensor(np.zeros((n, 8)))))
        with pytest.raises(ShapeError, match="packed"):
            model.forward(batch, injection=(0, ad.tensor(np.zeros((n - 1,
                                                                   8)))))
        with pytest.raises(ShapeError, match="packed"):
            model.forward(batch, injection=(0, ad.tensor(np.zeros((2, 5,
                                                                   8)))))

    def test_batch_wider_than_positions_rejected(self):
        model = small_model(9, max_seq_len=4)
        with pytest.raises(ShapeError):
            model.forward(make_batch(s=5))


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestClsOnly:
    @pytest.mark.parametrize("train", [False, True])
    def test_matches_the_full_forward(self, train):
        # with dropout on, every mask the CLS row sees is the one the full
        # forward draws, and the rng ends in the same state
        model = small_model(5, n_layers=2, dropout_rate=0.2)
        batch = make_batch(b=3)
        starts = batch.layout.starts
        runs = []
        for cls_only in (False, True):
            rng = np.random.default_rng(6)
            logits, hidden = model.forward(batch, train=train, rng=rng,
                                           cls_only=cls_only)
            ad.backward(ad.cross_entropy(logits, batch.targets)
                        if train else ad.sum_all(logits))
            grads = [t.grad.copy() for _, t in model.parameters()]
            for _, t in model.parameters():
                t.grad = None
            runs.append((logits.data, hidden, grads,
                         rng.bit_generator.state))
        (want, full, want_grads, want_rng), (got, cls, got_grads,
                                             got_rng) = runs
        _close(got, want)
        assert cls[-1].shape == (3, 8)
        _close(cls[-1].data, full[-1].data[starts])
        for a, b in zip(cls[:-1], full[:-1]):
            np.testing.assert_array_equal(a.data, b.data)
        for (name, _), g, w in zip(model.parameters(), got_grads,
                                   want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12,
                                       err_msg=name)
        assert got_rng == want_rng

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_injection_matches_the_full_forward(self, j):
        # at j = n_layers only the tap's CLS rows are added, and a tap
        # whose gradient flows gets the full forward's gradient back
        model = small_model(6, n_layers=2)
        batch = make_batch()
        starts = batch.layout.starts
        value = RNG.normal(0, 0.1, (int(batch.lengths.sum()), 8))
        runs = []
        for cls_only in (False, True):
            tap = ad.parameter(value.copy())
            logits, hidden = model.forward(batch, injection=(j, tap),
                                           cls_only=cls_only)
            ad.backward(ad.sum_all(logits))
            runs.append((logits.data, hidden[-1].data, tap.grad))
        (want, full, want_grad), (got, cls, got_grad) = runs
        _close(got, want)
        _close(cls, full[starts])
        _close(got_grad, want_grad)
        if j == 2:
            np.testing.assert_array_equal(
                np.delete(got_grad, starts, axis=0), 0.0)


def _padded_tap(layout, value):
    """A packed [n, d] tap laid out on the padded grid's rows."""
    full = np.zeros((len(layout.lengths) * layout.width, value.shape[1]))
    full[layout.slots] = value
    return full


def _padded_pool(state, layout, kind):
    """The padded encoder's pooling of a [batch * seq, d] state."""
    mask = padding_mask(layout.lengths, layout.width)
    state = state.reshape(*mask.shape, -1)
    if kind == "cls":
        return state[:, 0]
    weights = np.broadcast_to((mask / mask.sum(axis=1, keepdims=True))
                              [:, :, None], state.shape)
    return (state * weights).sum(axis=1)


class TestPacking:
    """The packed encoder against the padded plain-numpy reference in
    reference_encoder.py: every real row, both poolings, the rng and the
    gradients, over dropout, CLS-only top layers and injection depths."""

    @pytest.mark.parametrize("padded", [True, False])
    @pytest.mark.parametrize("j", [None, 0, 1, 2])
    @pytest.mark.parametrize("cls_only", [False, True])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_matches_the_padded_reference(self, rate, cls_only, j, padded):
        # a batch without padding takes attention's reshape path
        model = small_model(13, n_layers=2, dropout_rate=rate)
        randomize_parameters(model, np.random.default_rng(14))
        batch = make_batch(b=3, s=5)
        if not padded:
            ids = np.random.default_rng(1).integers(3, 11, (3, 5))
            ids[:, 0] = 2  # CLS
            batch = Batch(token_ids=ids, lengths=np.full(3, 5),
                          targets=batch.targets, ids=batch.ids)
        layout = batch.layout
        gen = np.random.default_rng(15)
        value = gen.normal(0.0, 0.5, (len(layout.slots), 8))
        dlogits = gen.normal(0.0, 1.0, (3, 3))
        tap = ad.parameter(value.copy())
        rng, ref_rng = np.random.default_rng(16), np.random.default_rng(16)
        logits, hidden = model.forward(
            batch, train=True, rng=rng, cls_only=cls_only,
            injection=None if j is None else (j, tap))
        ad.backward(ad.sum_all(ad.mul(logits, ad.tensor(dlogits))))
        want_logits, want_hidden, want_grads, want_tap = reference(
            model, batch, ref_rng, train=True, cls_only=cls_only,
            injection=None if j is None else (j, _padded_tap(layout,
                                                             value)),
            dlogits=dlogits)

        np.testing.assert_array_equal(logits.data, want_logits)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for depth, (got, want) in enumerate(zip(hidden, want_hidden)):
            if cls_only and depth == 2:
                np.testing.assert_array_equal(got.data, want)
                np.testing.assert_array_equal(pool(got, layout, "cls").data,
                                              want)
                continue
            np.testing.assert_array_equal(got.data, want[layout.slots])
            for kind in ("cls", "mean"):
                np.testing.assert_array_equal(
                    pool(got, layout, kind).data,
                    _padded_pool(want, layout, kind), err_msg=kind)
        for name, param in model.parameters():
            if name.endswith("_w"):  # x.T @ g sums over other rows
                np.testing.assert_allclose(param.grad, want_grads[name],
                                           rtol=0, atol=1e-12,
                                           err_msg=name)
            else:
                np.testing.assert_array_equal(param.grad, want_grads[name],
                                              err_msg=name)
        if j is not None:
            np.testing.assert_array_equal(tap.grad,
                                          want_tap[layout.slots])

    def test_pad_content_cannot_influence_gradients(self):
        model = small_model(7, n_layers=2, dropout_rate=0.2)
        batch = make_batch(b=3, s=5)
        pad = pad_positions(batch)
        runs = []
        for scramble in (False, True):
            ids = batch.token_ids.copy()
            if scramble:
                ids[pad] = RNG.integers(3, 11, int(pad.sum()))
            logits, _ = model.forward(
                Batch(token_ids=ids, lengths=batch.lengths,
                      targets=batch.targets, ids=batch.ids),
                train=True, rng=np.random.default_rng(3))
            ad.backward(ad.cross_entropy(logits, batch.targets))
            runs.append((logits.data, [t.grad for _, t in
                                       model.parameters()]))
            for _, t in model.parameters():
                t.grad = None
        (want, want_grads), (got, got_grads) = runs
        np.testing.assert_array_equal(got, want)
        for (name, _), g, w in zip(model.parameters(), got_grads,
                                   want_grads):
            np.testing.assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("lengths", [[], [[5, 4]], [5, 0], [6, 4]],
                             ids=["empty", "2-D", "zero", "wider"])
    def test_layout_rejects_lengths_outside_the_grid(self, lengths):
        batch = make_batch()
        with pytest.raises(ShapeError, match="lengths"):
            RowLayout.of(np.array(lengths, dtype=np.int64), 5)
        with pytest.raises(ShapeError, match="lengths"):
            small_model(4).forward(Batch(
                token_ids=batch.token_ids,
                lengths=np.array(lengths, dtype=np.int64),
                targets=batch.targets, ids=batch.ids))

    def test_layout_packs_rows_in_row_major_order(self):
        layout = RowLayout.of(np.array([2, 4, 1]), 4)
        np.testing.assert_array_equal(layout.slots, [0, 1, 4, 5, 6, 7, 8])
        np.testing.assert_array_equal(layout.positions,
                                      [0, 1, 0, 1, 2, 3, 0])
        np.testing.assert_array_equal(layout.sequences,
                                      [0, 0, 1, 1, 1, 1, 2])
        np.testing.assert_array_equal(layout.lengths, [2, 4, 1])
        np.testing.assert_array_equal(layout.starts, [0, 2, 6])


    @given(st.data())
    def test_layout_indices_hold_for_any_lengths(self, data):
        # the ops that take a layout trust these without checking them
        width = data.draw(st.integers(1, 12), label="width")
        lengths = np.array(data.draw(st.lists(st.integers(1, width),
                                              min_size=1, max_size=10),
                                     label="lengths"))
        layout = RowLayout.of(lengths, width)
        n = int(lengths.sum())
        np.testing.assert_array_equal(
            layout.slots, layout.sequences * width + layout.positions)
        assert np.all(np.diff(layout.slots) > 0)
        np.testing.assert_array_equal(
            layout.starts[layout.sequences] + layout.positions, np.arange(n))
        assert np.all(layout.positions < lengths[layout.sequences])
        bad = lengths.copy()
        bad[data.draw(st.integers(0, len(bad) - 1), label="at")] = \
            data.draw(st.sampled_from([0, width + 1]), label="bad length")
        with pytest.raises(ShapeError, match="lengths"):
            RowLayout.of(bad, width)


class TestPooling:
    LENGTHS = np.array([2, 4])

    def test_cls_takes_position_zero(self):
        layout = RowLayout.of(self.LENGTHS, 4)
        h = ad.tensor(RNG.normal(0, 1, (6, 3)))
        np.testing.assert_array_equal(pool(h, layout, "cls").data,
                                      h.data[[0, 2]])
        # a state with one row per sequence holds only [CLS] rows
        cls = ad.tensor(h.data[[0, 2]])
        assert pool(cls, layout, "cls") is cls

    def test_mean_ignores_padding(self):
        layout = RowLayout.of(self.LENGTHS, 4)
        h = ad.tensor(np.arange(18, dtype=float).reshape(6, 3))
        got = pool(h, layout, "mean").data
        np.testing.assert_allclose(got[0], h.data[:2].mean(axis=0))
        np.testing.assert_allclose(got[1], h.data[2:].mean(axis=0))
        with pytest.raises(ShapeError, match="packed rows"):
            pool(ad.tensor(h.data[[0, 2]]), layout, "mean")

    def test_fully_padded_row_rejected(self):
        with pytest.raises(ShapeError):
            RowLayout.of(np.zeros(1, dtype=np.int64), 3)


class TestPredict:
    def test_argmax_tie_takes_lower_index(self):
        np.testing.assert_array_equal(
            predict(np.array([[1.0, 1.0, 0.5]]), multilabel=False),
            [[True, False, False]])

    def test_multilabel_threshold(self):
        logits = np.array([[2.0, -2.0, 0.1]])
        np.testing.assert_array_equal(
            predict(logits, multilabel=True, threshold=0.5),
            [[True, False, True]])

    def test_multilabel_fallback_to_best_class(self):
        logits = np.array([[-1.0, -2.0, -3.0]])
        np.testing.assert_array_equal(
            predict(logits, multilabel=True, threshold=0.5),
            [[True, False, False]])

    def test_multilabel_fallback_reads_the_probabilities(self):
        # both sigmoids underflow to 0.0, so the probabilities tie and the
        # lower index wins, where the logits' argmax would take column 1
        logits = np.array([[-900.0, -800.0], [3.0, -1.0]])
        with np.errstate(over="ignore"):
            chosen = predict(logits, multilabel=True, threshold=0.5)
        np.testing.assert_array_equal(chosen, [[True, False],
                                               [True, False]])
        assert chosen.dtype == bool


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
        model = small_model(11)
        randomize_parameters(model, np.random.default_rng(12))
        batch = make_batch()

        logits, _ = model.forward(batch)
        ad.backward(ad.cross_entropy(logits, batch.targets))

        for name, param in model.parameters():
            numeric = fd_grad(lambda x: model_loss(model, batch), param.data)
            err = rel_err(param.grad, numeric)
            assert err < 1e-3, f"{name}: {err}"


class TestTrainingGraph:
    def test_nodes_hold_arrays_not_tensors(self):
        # a backward closure that held a Tensor would keep op outputs
        # alive that no backward reads, and their gradients with them
        model = small_model(5, n_layers=2, dropout_rate=0.2)
        batch = make_batch()
        logits, _ = model.forward(batch, train=True,
                                  rng=np.random.default_rng(6))
        loss = ad.cross_entropy(logits, batch.targets)
        nodes = ad._postorder(loss)
        ops = {node.op for node in nodes}
        assert {"dropout", "self_attention", "feed_forward", "layer_norm",
                "linear"} <= ops
        assert "gelu" not in ops
        for node in nodes:
            for cell in node.apply.__closure__ or ():
                assert not isinstance(cell.cell_contents, ad.Tensor), node.op
        ad.backward(loss)
        assert all(node.grad is None for node in nodes)
        assert all(param.grad is not None for _, param in model.parameters())


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
        model = small_model(13)
        p = tmp_path / "model.bin"
        save_checkpoint(p, {"config": model.config.to_dict()}, model.state())
        meta, arrays = load_checkpoint(p)
        restored = EncoderModel(ModelConfig.from_dict(meta["config"]), 11, 3,
                                seed=99)
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
        model = small_model(14)
        state = model.state()
        del state["head_w"]
        with pytest.raises(ConfigError, match="head_w"):
            model.load_state(state)
