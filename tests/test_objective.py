"""Dual-stream objective tests.

The contrastive loss has a hand-computed 2x2 oracle and a Monte Carlo
limit; the composite formula is pinned bitwise against its float
expression; gradient routing under the stop/flow policies is probed by
running backward from each loss term separately.
"""

import sys
import threading

import numpy as np
import pytest

from selfaug import autodiff as ad
from selfaug import parallel
from selfaug.data import Batch
from selfaug.errors import ConfigError, ShapeError
from selfaug.model import EncoderModel, ModelConfig, pool
from selfaug.objective import (CONTRASTIVE_EPS, DualStreamConfig,
                               ProjectionNetwork, composite_loss,
                               contrastive_loss, dual_forward, project)

from selfaug.training import _step_losses

from conftest import fd_grad, rel_err


def tiny_batch(batch: int = 2, seq: int = 4, vocab: int = 12,
               seed: int = 0) -> Batch:
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, vocab, (batch, seq)).astype(np.int64)
    ids[:, 0] = 2
    lengths = np.full(batch, seq)
    lengths[-1] -= 1
    ids[-1, -1] = 0
    targets = rng.integers(0, 2, batch).astype(np.int64)
    return Batch(token_ids=ids, lengths=lengths, targets=targets,
                 ids=[f"x{i}" for i in range(batch)])


def tiny_model(seed: int, n_layers: int = 2) -> EncoderModel:
    """An encoder over 12 token ids with 2 outputs."""
    return EncoderModel(ModelConfig(d_model=8, n_heads=2, n_layers=n_layers,
                                    d_ff=16, max_seq_len=8), 12, 2, seed=seed)


class TestDualStreamConfig:
    def test_roundtrip(self):
        cfg = DualStreamConfig(tap_layer=1, inject_layer=2, alpha=0.3,
                               projection_dims=(8, 8, 4))
        assert DualStreamConfig.from_dict(cfg.to_dict()) == cfg

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            DualStreamConfig(tap_layer=0, inject_layer=0, alpha=1.5)
        with pytest.raises(ConfigError):
            DualStreamConfig(tap_layer=0, inject_layer=0, alpha=-0.1)

    def test_policy_and_pooling_validated(self):
        with pytest.raises(ConfigError):
            DualStreamConfig(tap_layer=0, inject_layer=0, alpha=0.5,
                             augment_gradient="maybe")
        with pytest.raises(ConfigError):
            DualStreamConfig(tap_layer=0, inject_layer=0, alpha=0.5,
                             pooling="max")

    def test_depth_check(self):
        cfg = DualStreamConfig(tap_layer=3, inject_layer=0, alpha=0.5)
        cfg.validate_for(3)
        with pytest.raises(ConfigError):
            cfg.validate_for(2)

    def test_negative_layer(self):
        with pytest.raises(ConfigError):
            DualStreamConfig(tap_layer=-1, inject_layer=0, alpha=0.5)


class TestProjection:
    def test_default_width_is_300(self):
        net = ProjectionNetwork(8, (1024, 1024, 300), seed=0)
        out = project(net, ad.tensor(np.random.default_rng(0)
                                     .normal(size=(4, 8))))
        assert out.shape == (4, 300)

    def test_seed_determinism(self):
        a = ProjectionNetwork(6, (5, 4, 3), seed=11)
        b = ProjectionNetwork(6, (5, 4, 3), seed=11)
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_final_layer_has_zero_feature_means(self):
        # last stage is batch norm with no activation
        net = ProjectionNetwork(6, (5, 4, 3), seed=3)
        x = ad.tensor(np.random.default_rng(4).normal(size=(10, 6)))
        out = project(net, x).data
        assert np.abs(out.mean(axis=0)).max() < 1e-9

    def test_shared_parameters_accumulate_both_streams(self):
        net = ProjectionNetwork(4, (4, 4, 2), seed=5)
        rng = np.random.default_rng(6)
        xa = ad.tensor(rng.normal(size=(3, 4)))
        xb = ad.tensor(rng.normal(size=(3, 4)))

        ad.backward(ad.sum_all(project(net, xa)))
        ga = {n: t.grad.copy() for n, t in net.parameters()}
        for _, t in net.parameters():
            t.grad = None
        ad.backward(ad.sum_all(project(net, xb)))
        gb = {n: t.grad.copy() for n, t in net.parameters()}
        for _, t in net.parameters():
            t.grad = None

        ad.backward(ad.add(ad.sum_all(project(net, xa)),
                           ad.sum_all(project(net, xb))))
        for name, t in net.parameters():
            assert np.allclose(t.grad, ga[name] + gb[name], atol=1e-12)

    def test_wrong_width_rejected(self):
        net = ProjectionNetwork(4, (4, 4, 2), seed=0)
        with pytest.raises(ShapeError):
            project(net, ad.tensor(np.zeros((3, 5))))

    def test_train_needs_batch_of_two(self):
        net = ProjectionNetwork(4, (4, 4, 2), seed=0)
        with pytest.raises(ConfigError):
            project(net, ad.tensor(np.zeros((1, 4))))

    def test_gradients_match_finite_differences(self):
        net = ProjectionNetwork(6, (5, 4, 3), seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        weights = rng.normal(size=(4, 3))

        def loss_value() -> float:
            out = project(net, ad.tensor(x))
            return ad.sum_all(ad.mul(out, ad.tensor(weights))).item()

        xt = ad.parameter(x)
        out = project(net, xt)
        ad.backward(ad.sum_all(ad.mul(out, ad.tensor(weights))))

        num_x = fd_grad(lambda a: _probe(net, a, weights), x)
        assert rel_err(xt.grad, num_x) < 1e-4
        for name, t in net.parameters():
            num = fd_grad(lambda a, t=t: _swap_and_eval(t, a, loss_value),
                          t.data.copy())
            assert rel_err(t.grad, num) < 1e-4, name
            t.grad = None


def _probe(net: ProjectionNetwork, x: np.ndarray,
           weights: np.ndarray) -> float:
    out = project(net, ad.tensor(x))
    return ad.sum_all(ad.mul(out, ad.tensor(weights))).item()


def _swap_and_eval(param: ad.Tensor, value: np.ndarray, f) -> float:
    saved = param.data
    param.data = value
    try:
        return f()
    finally:
        param.data = saved


def _contrastive_chain(za, zb, lambda_offdiag):
    """The cross-correlation loss as twelve generic ops over whole masks:
    the reference that cross_correlation_loss must reproduce bit for
    bit."""
    batch, width = za.shape
    corr = ad.scale(ad.matmul(ad.swap_axes(za, 0, 1), zb), 1.0 / batch)
    eye = np.eye(width)
    diff = ad.sub(ad.tensor(eye), corr)
    invariance = ad.sum_all(ad.mul(ad.mul(diff, diff), ad.tensor(eye)))
    off = ad.sum_all(ad.mul(ad.mul(corr, corr), ad.tensor(1.0 - eye)))
    return ad.add(invariance, ad.scale(off, lambda_offdiag)), corr


class TestContrastiveLoss:
    @pytest.mark.parametrize("lambda_offdiag", [0, 0.005, 1])
    @pytest.mark.parametrize("batch,width", [(16, 64), (7, 3), (2, 1)])
    def test_node_is_bitwise_the_chain(self, batch, width, lambda_offdiag):
        # through the batch norms and composite_loss, as a training step
        # runs it: a non-unit upstream gradient, and a's gradient read by
        # a batch norm whose column sums round by its memory layout
        rng = np.random.default_rng(batch * width)
        a = rng.normal(size=(batch, width))
        b = 0.5 * a + rng.normal(size=(batch, width))
        results = []
        for node in (_contrastive_chain, ad.cross_correlation_loss):
            z_a, z_b = ad.parameter(a.copy()), ad.parameter(b.copy())
            ce = ad.parameter(np.array(0.7))
            loss, corr = node(
                ad.batch_norm_features(z_a, eps=CONTRASTIVE_EPS),
                ad.batch_norm_features(z_b, eps=CONTRASTIVE_EPS),
                lambda_offdiag)
            ad.backward(composite_loss(ce, ce, loss, 0.2).total)
            results.append([loss.data, corr.data, z_a.grad, z_b.grad,
                            ce.grad])
        for chain, node in zip(*results):
            assert chain.tobytes() == node.tobytes()

    def test_loss_graph_is_the_two_norms_and_one_node(self):
        rng = np.random.default_rng(5)
        loss, corr = contrastive_loss(ad.parameter(rng.normal(size=(16, 64))),
                                      ad.parameter(rng.normal(size=(16, 64))))
        assert [node.op for node in ad._postorder(loss)] == [
            "batch_norm_features", "batch_norm_features",
            "cross_correlation_loss"]
        assert corr.node is None and not corr.requires_grad

    def test_two_by_two_oracle(self):
        # columns normalize to [+1,-1] / [-1,+1]; cross-correlation is
        # [[1,-1],[-1,1]], so the loss is 0 + 0.005 * (1 + 1) = 0.01
        z_a = ad.tensor(np.array([[5.0, 0.0], [1.0, 2.0]]))
        z_b = ad.tensor(np.array([[2.0, -3.0], [0.0, 7.0]]))
        loss, corr = contrastive_loss(z_a, z_b, lambda_offdiag=0.005)
        expected_corr = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.abs(corr.data - expected_corr).max() < 1e-12
        assert abs(loss.item() - 0.01) < 1e-12

    def test_identical_inputs_zero_invariance_term(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = ad.tensor(rng.normal(size=(16, 8)))
            loss, _ = contrastive_loss(z, z, lambda_offdiag=0.0)
            assert loss.item() < 1e-12

    def test_independent_inputs_approach_feature_count(self):
        # with independent streams every correlation entry tends to zero,
        # so the loss tends to the number of features
        rng = np.random.default_rng(1)
        width = 16
        z_a = ad.tensor(rng.normal(size=(4096, width)))
        z_b = ad.tensor(rng.normal(size=(4096, width)))
        loss, _ = contrastive_loss(z_a, z_b, lambda_offdiag=0.005)
        assert abs(loss.item() / width - 1.0) < 0.05

    def test_correlation_entries_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z_a = ad.tensor(rng.normal(size=(8, 5)))
            z_b = ad.tensor(rng.normal(size=(8, 5)))
            _, corr = contrastive_loss(z_a, z_b)
            assert np.abs(corr.data).max() <= 1.0 + 1e-9

    def test_per_feature_affine_invariance(self):
        # normalization removes per-column shift and positive scale
        rng = np.random.default_rng(3)
        base_a = rng.normal(size=(12, 6))
        base_b = rng.normal(size=(12, 6))
        ref, _ = contrastive_loss(ad.tensor(base_a), ad.tensor(base_b))
        scale = rng.uniform(0.5, 3.0, 6)
        shift = rng.normal(size=6)
        warped, _ = contrastive_loss(ad.tensor(base_a * scale + shift),
                                     ad.tensor(base_b))
        assert abs(ref.item() - warped.item()) < 1e-9

    def test_batch_of_one_rejected(self):
        with pytest.raises(ConfigError):
            contrastive_loss(ad.tensor(np.zeros((1, 4))),
                             ad.tensor(np.zeros((1, 4))))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            contrastive_loss(ad.tensor(np.zeros((4, 4))),
                             ad.tensor(np.zeros((4, 5))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))

        z_a = ad.parameter(a)
        z_b = ad.parameter(b)
        loss, _ = contrastive_loss(z_a, z_b, lambda_offdiag=0.005)
        ad.backward(loss)

        def f_a(x):
            val, _ = contrastive_loss(ad.tensor(x), ad.tensor(b),
                                      lambda_offdiag=0.005)
            return val.item()

        def f_b(x):
            val, _ = contrastive_loss(ad.tensor(a), ad.tensor(x),
                                      lambda_offdiag=0.005)
            return val.item()

        assert rel_err(z_a.grad, fd_grad(f_a, a)) < 1e-4
        assert rel_err(z_b.grad, fd_grad(f_b, b)) < 1e-4


class TestCompositeLoss:
    def test_matches_float_expression_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            cf, cc, lc = rng.uniform(0.0, 5.0, 3)
            alpha = rng.uniform(0.0, 1.0)
            losses = composite_loss(ad.tensor(cf), ad.tensor(cc),
                                    ad.tensor(lc), alpha)
            expected = (1.0 - alpha) / 2.0 * (cf + cc) + alpha * lc
            assert losses.total.item() == expected

    def test_alpha_boundaries(self):
        cf, cc, lc = ad.tensor(1.25), ad.tensor(0.75), ad.tensor(3.5)
        assert composite_loss(cf, cc, lc, 0.0).total.item() == 1.0
        assert composite_loss(cf, cc, lc, 1.0).total.item() == 3.5

    def test_gradient_weights(self):
        for alpha in (0.0, 0.3, 1.0):
            cf = ad.parameter(1.0)
            cc = ad.parameter(2.0)
            lc = ad.parameter(3.0)
            ad.backward(composite_loss(cf, cc, lc, alpha).total)
            w = (1.0 - alpha) / 2.0
            assert cf.grad.item() == pytest.approx(w, abs=1e-15)
            assert cc.grad.item() == pytest.approx(w, abs=1e-15)
            assert lc.grad.item() == pytest.approx(alpha, abs=1e-15)

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            composite_loss(ad.tensor(1.0), ad.tensor(1.0), ad.tensor(1.0),
                           1.01)

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            composite_loss(ad.tensor(np.zeros(2)), ad.tensor(1.0),
                           ad.tensor(1.0), 0.5)

    def test_as_floats(self):
        losses = composite_loss(ad.tensor(1.0), ad.tensor(2.0),
                                ad.tensor(3.0), 0.5)
        assert losses.as_floats() == (1.0, 2.0, 3.0, 2.25)


class TestDualForward:
    def test_tied_copies_double_the_embedding_tap(self):
        # tap = inject = 0 with identical models: the copy's layer-0 state
        # becomes exactly twice the embedding output, and cls pooling is
        # linear, so the pooled pair differs by an exact factor of two
        model_f = tiny_model(0)
        model_c = tiny_model(0)
        cfg = DualStreamConfig(tap_layer=0, inject_layer=0, alpha=0.5,
                               projection_dims=(8, 8, 4))
        _, _, pooled_i, pooled_j = dual_forward(model_f, model_c,
                                                tiny_batch(), cfg)
        assert np.array_equal(pooled_j.data, 2.0 * pooled_i.data)

    def test_stop_policy_blocks_classification_gradient(self):
        model_f = tiny_model(0)
        model_c = tiny_model(1)
        batch = tiny_batch()
        cfg = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.5,
                               augment_gradient="stop",
                               projection_dims=(8, 8, 4))
        _, logits_c, _, _ = dual_forward(model_f, model_c, batch, cfg,
                                         train=True)
        ad.backward(ad.cross_entropy(logits_c, batch.targets))
        for name, t in model_f.parameters():
            assert t.grad is None or not np.any(t.grad), name
        grads_c = [t for _, t in model_c.parameters()
                   if t.grad is not None and np.any(t.grad)]
        assert grads_c

    def test_flow_policy_reaches_first_stream(self):
        model_f = tiny_model(0)
        model_c = tiny_model(1)
        batch = tiny_batch()
        cfg = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.5,
                               augment_gradient="flow",
                               projection_dims=(8, 8, 4))
        _, logits_c, _, _ = dual_forward(model_f, model_c, batch, cfg,
                                         train=True)
        ad.backward(ad.cross_entropy(logits_c, batch.targets))
        emb = dict(model_f.parameters())["token_embedding"]
        assert emb.grad is not None and np.any(emb.grad)

    def test_contrastive_path_reaches_both_streams_under_stop(self):
        model_f = tiny_model(0)
        model_c = tiny_model(1)
        batch = tiny_batch(batch=4)
        cfg = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.5,
                               augment_gradient="stop",
                               projection_dims=(8, 8, 4))
        net = ProjectionNetwork(8, cfg.projection_dims, seed=2)
        _, _, pooled_i, pooled_j = dual_forward(model_f, model_c, batch,
                                                cfg, train=True)
        loss, _ = contrastive_loss(project(net, pooled_i),
                                   project(net, pooled_j),
                                   cfg.lambda_offdiag)
        ad.backward(loss)
        emb_f = dict(model_f.parameters())["token_embedding"]
        emb_c = dict(model_c.parameters())["token_embedding"]
        assert emb_f.grad is not None and np.any(emb_f.grad)
        assert emb_c.grad is not None and np.any(emb_c.grad)

    def test_pooled_tap_matches_direct_forward(self):
        model_f = tiny_model(0)
        model_c = tiny_model(1)
        batch = tiny_batch()
        cfg = DualStreamConfig(tap_layer=2, inject_layer=0, alpha=0.5,
                               projection_dims=(8, 8, 4))
        _, _, pooled_i, _ = dual_forward(model_f, model_c, batch, cfg)
        _, hidden = model_f.forward(batch)
        starts = batch.layout.starts
        assert np.array_equal(pooled_i.data, hidden[2].data[starts])

    @pytest.mark.parametrize("tap,inject,pooling,full_f,full_c", [
        (1, 2, "cls", False, False),
        (2, 0, "cls", True, False),
        (2, 1, "mean", True, False),
        (1, 2, "mean", False, True),
        (2, 2, "mean", True, True),
    ])
    def test_streams_run_full_width_only_when_read(self, monkeypatch, tap,
                                                   inject, pooling, full_f,
                                                   full_c):
        # a top state that is tapped whole, or mean-pooled for the
        # contrastive view, comes from a full-width forward; otherwise the
        # top layer runs for the CLS row alone.  Either way the four
        # outputs match full forwards
        model_f = tiny_model(0)
        model_c = tiny_model(1)
        batch = tiny_batch(batch=3)
        cfg = DualStreamConfig(tap_layer=tap, inject_layer=inject,
                               alpha=0.5, pooling=pooling,
                               projection_dims=(8, 8, 4))
        rows = []
        forward = EncoderModel.forward

        def spy(model, *args, **kwargs):
            logits, hidden = forward(model, *args, **kwargs)
            rows.append(hidden[-1].shape[0])
            return logits, hidden

        monkeypatch.setattr(EncoderModel, "forward", spy)
        got = dual_forward(model_f, model_c, batch, cfg)
        n, b = int(batch.lengths.sum()), len(batch)  # packed, [CLS] rows
        assert rows == [n if full_f else b, n if full_c else b]
        monkeypatch.undo()
        logits_f, hidden_f = model_f.forward(batch)
        logits_c, hidden_c = model_c.forward(
            batch, injection=(inject, hidden_f[tap]))
        want = (logits_f, logits_c,
                pool(hidden_f[tap], batch.layout, pooling),
                pool(hidden_c[inject], batch.layout, pooling))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g.data, w.data, rtol=0, atol=1e-12)

    def test_depth_mismatch_rejected(self):
        model_f = tiny_model(0, n_layers=2)
        model_c = tiny_model(0, n_layers=3)
        cfg = DualStreamConfig(tap_layer=0, inject_layer=0, alpha=0.5)
        with pytest.raises(ConfigError):
            dual_forward(model_f, model_c, tiny_batch(), cfg)

    def test_layer_out_of_range_rejected(self):
        model_f = tiny_model(0)
        model_c = tiny_model(1)
        cfg = DualStreamConfig(tap_layer=3, inject_layer=0, alpha=0.5)
        with pytest.raises(ConfigError):
            dual_forward(model_f, model_c, tiny_batch(), cfg)


class Boom(Exception):
    pass


class TestSideBySide:
    """A dual step whose two streams run on two threads (the cut-off
    patched to 0) against the same step on one thread, bit for bit."""

    def step(self, mode, policy, pooling, tap, inject):
        config = ModelConfig(d_model=8, n_heads=2, n_layers=2, d_ff=16,
                             max_seq_len=8, dropout_rate=0.1)
        model_f, model_c = (EncoderModel(config, 12, 2, seed=s)
                            for s in (0, 1))
        net = ProjectionNetwork(8, (8, 8, 4), seed=2)
        cfg = DualStreamConfig(tap_layer=tap, inject_layer=inject,
                               alpha=0.5, augment_gradient=policy,
                               pooling=pooling, projection_dims=(8, 8, 4))
        rng_f, rng_c = np.random.default_rng(3), np.random.default_rng(4)
        losses = _step_losses(mode, model_f, model_c, net,
                              tiny_batch(batch=4, seq=5), cfg, rng_f, rng_c,
                              multilabel=False)
        ad.backward(losses.total)
        grads = {f"{owner}.{name}": None if t.grad is None
                 else t.grad.tobytes()
                 for owner, part in (("f", model_f), ("c", model_c),
                                     ("proj", net))
                 for name, t in part.parameters()}
        return (grads, losses.as_floats(), rng_f.bit_generator.state,
                rng_c.bit_generator.state)

    @pytest.mark.parametrize("mode,policy,pooling,tap,inject", [
        ("proposed", policy, pooling, tap, 2)
        for policy in ("stop", "flow") for pooling in ("cls", "mean")
        for tap in (1, 2)] + [("sa_only", "stop", "cls", 1, 2),
                              ("sa_only", "flow", "mean", 2, 2)])
    def test_two_threads_match_one(self, monkeypatch, threads_started,
                                   mode, policy, pooling, tap, inject):
        serial = self.step(mode, policy, pooling, tap, inject)
        assert threads_started == []
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)
        side_by_side = self.step(mode, policy, pooling, tap, inject)
        assert side_by_side[0] == serial[0]
        assert side_by_side[1:] == serial[1:]
        # the forward always; the backward too unless "flow" joins the
        # streams
        assert len(threads_started) == (2 if policy == "stop" else 1)

    def test_two_threads_match_one_under_rapid_switching(self,
                                                          monkeypatch):
        # a switch every microsecond interleaves the two streams' ops as
        # finely as the interpreter can; every step must still match
        serial = self.step("proposed", "stop", "mean", 1, 2)
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert self.step("proposed", "stop", "mean", 1, 2) == serial
        finally:
            sys.setswitchinterval(interval)


    @pytest.mark.parametrize("failing", ["f", "c"])
    def test_error_in_a_stream_reaches_the_caller(self, monkeypatch,
                                                  failing):
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)
        models = {"f": tiny_model(0), "c": tiny_model(1)}

        def boom(*args, **kwargs):
            raise Boom

        monkeypatch.setattr(models[failing].layers[0], "apply", boom)
        cfg = DualStreamConfig(tap_layer=1, inject_layer=2, alpha=0.5,
                               projection_dims=(8, 8, 4))
        before = threading.active_count()
        with pytest.raises(Boom):
            dual_forward(models["f"], models["c"], tiny_batch(), cfg)
        assert threading.active_count() == before

    def test_bad_injection_shape_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(parallel, "SIDE_BY_SIDE_MIN", 0)
        wider = EncoderModel(ModelConfig(d_model=16, n_heads=2, n_layers=2,
                                         d_ff=16, max_seq_len=8), 12, 2,
                             seed=1)
        cfg = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.5,
                               projection_dims=(8, 8, 4))
        before = threading.active_count()
        with pytest.raises(ShapeError, match="injection"):
            dual_forward(tiny_model(0), wider, tiny_batch(), cfg)
        assert threading.active_count() == before
