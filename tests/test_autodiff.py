"""Tensor-core tests: values against hand/stdlib oracles, every gradient
against the central finite-difference oracle in conftest."""

import itertools
import math
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfaug import autodiff as ad
from selfaug import parallel
from selfaug.data import RowLayout
from selfaug.errors import ConfigError, DomainError, ShapeError

from conftest import fd_grad, lanes_meet, on_lane_zero, rel_err

RNG = np.random.default_rng(20240817)


def check_grad(build, *arrays, tol=1e-4, h=1e-5):
    """Backward() on sum-reduced build(*tensors) vs finite differences for
    each input array."""
    tensors = [ad.parameter(a.copy()) for a in arrays]
    out = build(*tensors)
    loss = out if out.size == 1 else ad.sum_all(out)
    ad.backward(loss)
    for i, t in enumerate(tensors):
        def f(x, i=i):
            probe = [ad.tensor(a.copy()) for a in arrays]
            probe[i] = ad.tensor(x)
            r = build(*probe)
            return float(r.data if r.size == 1 else r.data.sum())
        numeric = fd_grad(f, arrays[i].copy(), h=h)
        assert t.grad is not None
        err = rel_err(t.grad, numeric)
        assert err < tol, f"input {i}: relative error {err}"


class TestElementwise:
    def test_add_sub_mul_values(self):
        a = ad.tensor([[1.0, -2.0], [3.0, 0.5]])
        b = ad.tensor([[4.0, 1.5], [-1.0, 2.0]])
        np.testing.assert_array_equal(ad.add(a, b).data, [[5.0, -0.5], [2.0, 2.5]])
        np.testing.assert_array_equal(ad.sub(a, b).data, [[-3.0, -3.5], [4.0, -1.5]])
        np.testing.assert_array_equal(ad.mul(a, b).data, [[4.0, -3.0], [-3.0, 1.0]])

    def test_gradients(self):
        a = RNG.uniform(-2, 2, (3, 4))
        b = RNG.uniform(-2, 2, (3, 4))
        check_grad(ad.add, a, b)
        check_grad(ad.sub, a, b)
        check_grad(ad.mul, a, b)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 2))))


class TestUnary:
    def test_relu_gradient_pins(self):
        # gradient 1 at x=2, 0 at x=-1
        x = ad.parameter([2.0, -1.0])
        ad.backward(ad.sum_all(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])

    def test_gelu_matches_tanh_formula(self):
        xs = RNG.uniform(-3, 3, 64)
        got = ad.gelu(ad.tensor(xs)).data
        c = math.sqrt(2.0 / math.pi)
        want = [0.5 * x * (1 + math.tanh(c * (x + 0.044715 * x**3))) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_gelu_cube_by_products_matches_pow(self):
        # the forward cubes by x * x * x; numpy's x ** 3 goes through pow
        # and is ~40x slower, and the two agree to rounding
        xs = np.linspace(-12, 12, 2001)
        got = ad.gelu(ad.tensor(xs)).data
        c = math.sqrt(2.0 / math.pi)
        want = 0.5 * xs * (1.0 + np.tanh(c * (xs + 0.044715 * xs ** 3)))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_unary_gradients(self):
        x = RNG.uniform(-2, 2, (5, 3))
        for op in (ad.relu, ad.gelu):
            check_grad(op, x)

    def test_scale(self):
        check_grad(lambda t: ad.scale(t, -1.7), RNG.uniform(-2, 2, (4,)))


class TestMatmul:
    def test_identity(self):
        a = RNG.uniform(-2, 2, (3, 3))
        np.testing.assert_array_equal(
            ad.matmul(ad.tensor(a), ad.tensor(np.eye(3))).data, a)

    def test_all_ones_gradient(self):
        # d(sum(A @ B))/dA = d(sum(A @ B))/dB = [[2, 2], [2, 2]] for 2x2 ones
        a = ad.parameter(np.ones((2, 2)))
        b = ad.parameter(np.ones((2, 2)))
        ad.backward(ad.sum_all(ad.matmul(a, b)))
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 2), 2.0))

    def test_gradients_2d_and_batched(self):
        check_grad(ad.matmul, RNG.uniform(-2, 2, (3, 4)), RNG.uniform(-2, 2, (4, 2)))
        # batch dims broadcast: [2,3,4] @ [4,2] and [2,1,3,4] @ [2,5,4,2]
        check_grad(ad.matmul, RNG.uniform(-2, 2, (2, 3, 4)), RNG.uniform(-2, 2, (4, 2)))
        check_grad(ad.matmul,
                   RNG.uniform(-1, 1, (2, 1, 3, 4)),
                   RNG.uniform(-1, 1, (2, 5, 4, 2)))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 2))))

    def test_linear_matches_matmul_plus_bias(self):
        x = RNG.uniform(-2, 2, (4, 3, 5))
        w = RNG.uniform(-2, 2, (5, 7))
        b = RNG.uniform(-2, 2, 7)
        got = ad.linear(ad.tensor(x), ad.tensor(w), ad.tensor(b)).data
        np.testing.assert_allclose(got, x @ w + b, rtol=1e-15)
        check_grad(ad.linear, x, w, b)


class TestSoftmax:
    def test_uniform_rows(self):
        np.testing.assert_array_equal(
            ad.softmax_rows(ad.tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])
        # max-subtraction keeps huge logits finite
        out = ad.softmax_rows(ad.tensor([[1000.0, 1000.0]])).data
        np.testing.assert_allclose(out, [[0.5, 0.5]], rtol=1e-15)

    def test_frozen_reference(self):
        # scalar-math oracle for softmax([1, 2, 3]), frozen
        got = ad.softmax_rows(ad.tensor([[1.0, 2.0, 3.0]])).data[0]
        want = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = ad.softmax_rows(ad.tensor([row])).data
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_shift_invariance(self):
        x = RNG.uniform(-5, 5, (4, 6))
        a = ad.softmax_rows(ad.tensor(x)).data
        b = ad.softmax_rows(ad.tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        weights = ad.tensor(RNG.uniform(-1, 1, (3, 5)))
        check_grad(lambda t: ad.mul(ad.softmax_rows(t), weights),
                   RNG.uniform(-2, 2, (3, 5)))


def _take_rows(a, index):
    """Rows `index` of `a`, the gradient scattered back to them: the row
    gather of the unfused chain, which no encoder op needs."""
    shape = a.shape

    def apply(g, ta):
        full = np.zeros(shape)
        full[index] = g
        ad._accum(ta, full)

    return ad._attach(ad.Tensor(a.data[index]), "take_rows", (a,), apply)


def _lengths(b, s, rng, padded=True):
    """Sequence lengths in [1, s]: at least one padded row, or none."""
    if not padded:
        return np.full(b, s)
    lengths = rng.integers(1, s + 1, b)
    lengths[0] = s - 1
    return lengths


def _attention_chain(q, k, v, wo, bo, lengths, n_heads, rate, rng):
    """The encoder's attention as unfused ops over padded inputs, then the
    context rows of the real queries and the output linear: the reference
    that self_attention must reproduce bit for bit.  k and v are
    [b, s, d]; q is [b, sq, d], every position (sq = s) or the [CLS]
    position alone (sq = 1)."""
    b, s, d = k.shape
    sq = q.shape[1]
    dh = d // n_heads

    def split(x, width):
        return ad.swap_axes(ad.reshape(x, (b, width, n_heads, dh)), 1, 2)

    qh, kh, vh = split(q, sq), split(k, s), split(v, s)
    scores = ad.scale(ad.matmul(qh, ad.swap_axes(kh, 2, 3)),
                      1.0 / math.sqrt(dh))
    bias = np.where(np.arange(s) < lengths[:, None], 0.0, -1e9)
    probs = ad.softmax_rows(ad.add(scores, ad.tensor(np.broadcast_to(
        bias[:, None, None, :], scores.shape))))
    if rate > 0.0:
        # the whole [b, heads, s, s] score matrix's mask, cut to the
        # query rows
        keep = rng.random((b, n_heads, s, s))[:, :, :sq] >= rate
        probs = ad.mul(probs, ad.tensor(keep / (1.0 - rate)))
    ctx = ad.reshape(ad.swap_axes(ad.matmul(probs, vh), 1, 2), (b * sq, d))
    queries = RowLayout.of(np.minimum(lengths, sq), sq)
    return ad.linear(_take_rows(ctx, queries.slots), wo, bo)


def _attend(q, k, v, wo, bo, layout, n_heads, rate, rng):
    return ad.self_attention(q, k, v, wo, bo, layout, n_heads,
                             1.0 / math.sqrt(q.shape[1] // n_heads), rate,
                             rng)


def _assert_same_results(results, names):
    """Forward outputs and every gradient bitwise equal, with the
    reference's strides: the next backward (g @ W.T) rounds by layout,
    so a gradient must arrive laid out as the chain's does."""
    (want, want_grads), (got, got_grads) = results
    np.testing.assert_array_equal(got, want)
    for name, g, w in zip(names, got_grads, want_grads):
        np.testing.assert_array_equal(g, w, err_msg=name)
        assert g.strides == w.strides, name


class TestSelfAttention:
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("b,s,d,n_heads", [(16, 8, 32, 4), (4, 16, 64, 4)])
    def test_bitwise_equal_to_the_unfused_chain(self, b, s, d, n_heads, rate):
        # every query row or the [CLS] rows alone, over padded and
        # unpadded batches.  Pad rows hold values in the chain and are
        # absent from the node: both meet a probability of exactly 0, so
        # every real row agrees.  The node's q, k and v gradients leave
        # as gathered rows, contiguous, so only their values are compared
        for cls, padded in itertools.product((False, True), repeat=2):
            layout = RowLayout.of(_lengths(b, s, RNG, padded), s)
            rows = layout.sequences, layout.positions
            q_rows = (np.arange(b), 0) if cls else rows
            arrays = [RNG.normal(0.0, 1.0, (b, 1 if cls else s, d))]
            arrays += [RNG.normal(0.0, 1.0, (b, s, d)) for _ in range(2)]
            arrays += [RNG.normal(0.0, 0.1, (d, d)), RNG.normal(0.0, 0.1, d)]
            weights = ad.tensor(RNG.normal(0.0, 1.0, (len(q_rows[0]), d)))
            packed = [arrays[0][q_rows], arrays[1][rows], arrays[2][rows],
                      *arrays[3:]]
            results = []
            for op, inputs in ((_attention_chain, arrays), (_attend, packed)):
                params = [ad.parameter(a.copy()) for a in inputs]
                rng = np.random.default_rng(7)
                out = op(*params, layout.lengths if op is _attention_chain
                         else layout, n_heads, rate, rng)
                ad.backward(ad.sum_all(ad.mul(out, weights)))
                results.append((out.data, [t.grad for t in params],
                                rng.bit_generator.state))
            (want, want_grads, want_rng), (got, got_grads, got_rng) = results
            np.testing.assert_array_equal(got, want)
            want_grads[:3] = [want_grads[0][q_rows], want_grads[1][rows],
                              want_grads[2][rows]]
            for name, g, w in zip(("q", "k", "v", "wo", "bo"), got_grads,
                                  want_grads):
                np.testing.assert_array_equal(g, w, err_msg=name)
            assert got_rng == want_rng

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_gradients(self, rate):
        layout = RowLayout.of(np.array([3, 4]), 4)
        weights = ad.tensor(RNG.uniform(-1, 1, (7, 6)))
        check_grad(lambda q, k, v, wo, bo: ad.mul(
            _attend(q, k, v, wo, bo, layout, 2, rate,
                    np.random.default_rng(3)), weights),
            *(RNG.uniform(-1, 1, (7, 6)) for _ in range(3)),
            RNG.uniform(-1, 1, (6, 6)), RNG.uniform(-1, 1, 6))

    # the [CLS] position is the one query subset a layout describes
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("sq", [1])
    def test_fewer_query_rows_match_the_full_call(self, sq, rate):
        # q holding each sequence's [CLS] row gives the full call's rows
        # there, the gradients a loss on those rows alone sends back, and
        # leaves the rng where the full call leaves it
        b, s, d, n_heads = 4, 8, 16, 4
        layout = RowLayout.of(_lengths(b, s, RNG), s)
        n = len(layout.slots)
        few = layout.positions < sq
        arrays = [RNG.normal(0.0, 1.0, (n, d)) for _ in range(3)]
        arrays += [RNG.normal(0.0, 0.1, (d, d)), RNG.normal(0.0, 0.1, d)]
        weights = np.zeros((n, d))
        weights[few] = RNG.normal(0.0, 1.0, (b, d))
        results = []
        for cut in (False, True):
            params = [ad.parameter(a.copy()) for a in arrays]
            if cut:
                params[0] = ad.parameter(arrays[0][few].copy())
            rng = np.random.default_rng(7)
            out = _attend(*params, layout, n_heads, rate, rng)
            w = weights[few] if cut else weights
            ad.backward(ad.sum_all(ad.mul(out, ad.tensor(w))))
            keep = slice(None) if cut else few
            results.append((out.data[keep], params[0].grad[keep],
                            [t.grad for t in params[1:]],
                            rng.bit_generator.state))
        (want, want_q, want_grads, want_rng), (got, got_q, got_grads,
                                               got_rng) = results
        assert got.shape == (b, d)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_q, want_q, rtol=0, atol=1e-12)
        for name, g, w in zip(("k", "v", "wo", "bo"), got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12,
                                       err_msg=name)
        assert got_rng == want_rng

    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_gradients_with_fewer_query_rows(self, rate):
        layout = RowLayout.of(np.array([3, 4]), 4)
        weights = ad.tensor(RNG.uniform(-1, 1, (2, 6)))
        check_grad(lambda q, k, v, wo, bo: ad.mul(
            _attend(q, k, v, wo, bo, layout, 2, rate,
                    np.random.default_rng(3)), weights),
            RNG.uniform(-1, 1, (2, 6)),
            *(RNG.uniform(-1, 1, (7, 6)) for _ in range(2)),
            RNG.uniform(-1, 1, (6, 6)), RNG.uniform(-1, 1, 6))

    def test_rejects_bad_shapes(self):
        layout = RowLayout.of(np.array([2, 3]), 3)
        x = ad.tensor(np.zeros((5, 4)))
        wo, bo = ad.tensor(np.zeros((4, 4))), ad.tensor(np.zeros(4))

        def call(q=x, k=x, v=x, wo=wo, bo=bo, heads=2):
            ad.self_attention(q, k, v, wo, bo, layout, heads, 1.0)

        for bad in (dict(v=ad.tensor(np.zeros((5, 2)))),
                    dict(k=ad.tensor(np.zeros((4, 4)))),
                    dict(k=ad.tensor(np.zeros((4, 4))),
                         v=ad.tensor(np.zeros((4, 4)))),
                    dict(q=ad.tensor(np.zeros((5, 2)))),
                    dict(q=ad.tensor(np.zeros((3, 4)))),
                    dict(q=ad.tensor(np.zeros((2, 5, 4)))),
                    dict(q=ad.tensor(np.zeros((0, 4))))):
            with pytest.raises(ShapeError, match="packed rows"):
                call(**bad)
        with pytest.raises(ShapeError, match="divisible"):
            call(heads=3)
        with pytest.raises(ShapeError, match="weight shape"):
            call(wo=ad.tensor(np.zeros((3, 4))))
        with pytest.raises(ShapeError, match="bias shape"):
            call(bo=ad.tensor(np.zeros(3)))


def _feed_forward_chain(h, w1, b1, w2, b2):
    """The encoder's feed-forward block as unfused ops: the reference that
    feed_forward must reproduce bit for bit."""
    return ad.linear(ad.gelu(ad.linear(h, w1, b1)), w2, b2)


class TestFeedForward:
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    @pytest.mark.parametrize("b,s,d", [(16, 8, 32), (4, 16, 64)])
    def test_bitwise_equal_to_the_unfused_chain(self, b, s, d, rate):
        f = 2 * d
        arrays = [RNG.normal(0.0, 1.0, (b, s, d)),
                  RNG.normal(0.0, 0.2, (d, f)), RNG.normal(0.0, 0.2, f),
                  RNG.normal(0.0, 0.2, (f, d)), RNG.normal(0.0, 0.2, d)]
        weights = ad.tensor(RNG.normal(0.0, 1.0, (b, s, d)))
        results = []
        for op in (_feed_forward_chain, ad.feed_forward):
            params = [ad.parameter(a.copy()) for a in arrays]
            # the encoder drops out the block's output, so the gradient
            # arrives through dropout's backward at rate > 0
            out = ad.dropout(op(*params), rate, np.random.default_rng(7))
            ad.backward(ad.sum_all(ad.mul(out, weights)))
            results.append((out.data, [t.grad for t in params]))
        _assert_same_results(results, ("h", "w1", "b1", "w2", "b2"))

    def test_gradients(self):
        weights = ad.tensor(RNG.uniform(-1, 1, (2, 3, 4)))
        check_grad(lambda *params: ad.mul(ad.feed_forward(*params), weights),
                   RNG.uniform(-1, 1, (2, 3, 4)), RNG.uniform(-1, 1, (4, 5)),
                   RNG.uniform(-1, 1, 5), RNG.uniform(-1, 1, (5, 4)),
                   RNG.uniform(-1, 1, 4))

    def test_rejects_bad_shapes(self):
        h = ad.tensor(np.zeros((2, 3, 4)))
        w1, b1 = ad.tensor(np.zeros((4, 6))), ad.tensor(np.zeros(6))
        w2, b2 = ad.tensor(np.zeros((6, 4))), ad.tensor(np.zeros(4))
        with pytest.raises(ShapeError, match="weight shape"):
            ad.feed_forward(h, w2, b1, w2, b2)
        with pytest.raises(ShapeError, match="bias shape"):
            ad.feed_forward(h, w1, b2, w2, b2)
        with pytest.raises(ShapeError, match=r"\(2, 3, 6\)"):
            ad.feed_forward(h, w1, b1, w1, b2)
        with pytest.raises(ShapeError, match="2-D"):
            ad.feed_forward(h, w1, b1, b2, b2)


class TestNormalizations:
    def test_layer_norm_constant_row_is_bias(self):
        # zero variance handled by eps; gain 1 / bias 0 gives exact zeros
        g, b = ad.tensor(np.ones(4)), ad.tensor(np.zeros(4))
        out = ad.layer_norm(ad.tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_layer_norm_mean_is_bias(self):
        x = RNG.uniform(-2, 2, (6, 8))
        bias = ad.tensor(np.full(8, 0.25))
        out = ad.layer_norm(ad.tensor(x), ad.tensor(np.ones(8)), bias)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.25, atol=1e-9)

    def test_layer_norm_gradients(self):
        check_grad(ad.layer_norm,
                   RNG.uniform(-2, 2, (4, 6)),
                   RNG.uniform(0.5, 1.5, 6),
                   RNG.uniform(-0.5, 0.5, 6))

    def test_batch_norm_two_point_column(self):
        out = ad.batch_norm_features(ad.tensor([[1.0], [3.0]]), eps=0.0)
        np.testing.assert_array_equal(out.data, [[-1.0], [1.0]])

    def test_batch_norm_idempotent(self):
        x = RNG.normal(0, 1, (64, 5))
        once = ad.batch_norm_features(ad.tensor(x), eps=1e-12).data
        twice = ad.batch_norm_features(ad.tensor(once), eps=1e-12).data
        np.testing.assert_allclose(twice, once, atol=1e-6)

    def test_batch_norm_rejects_single_row_in_training(self):
        with pytest.raises(ConfigError):
            ad.batch_norm_features(ad.tensor(np.ones((1, 4))))

    @pytest.mark.parametrize("shape", [(16, 12, 32), (16, 64, 128)])
    def test_sums_bitwise_equal_numpy_mean_and_var(self, shape):
        # the sum-and-divide forms skip numpy's Python-level mean and var
        # wrappers; each forward value and gradient must keep their bits
        x = RNG.normal(0.5, 2.0, shape)
        d = shape[-1]
        gain, bias = RNG.uniform(0.5, 1.5, d), RNG.uniform(-0.5, 0.5, d)
        g = RNG.normal(0.0, 1.0, shape)

        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (x - mu) * inv
        gx = g * gain
        want = [xhat * gain + bias,
                inv * (gx - gx.mean(axis=-1, keepdims=True)
                       - xhat * (gx * xhat).mean(axis=-1, keepdims=True)),
                (g * xhat).reshape(-1, d).sum(axis=0),
                g.reshape(-1, d).sum(axis=0)]
        params = [ad.parameter(a.copy()) for a in (x, gain, bias)]
        out = ad.layer_norm(*params)
        ad.backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
        for name, got, w in zip(("out", "x", "gain", "bias"),
                                [out.data] + [t.grad for t in params], want):
            np.testing.assert_array_equal(got, w, err_msg=name)

        x2, g2 = x.reshape(-1, d), g.reshape(-1, d)
        n = x2.shape[0]
        inv = 1.0 / np.sqrt(x2.var(axis=0) + 1e-5)
        xhat = (x2 - x2.mean(axis=0)) * inv
        want = [xhat, inv * (g2 - g2.mean(axis=0)
                             - xhat * (g2 * xhat).sum(axis=0) / n)]
        t = ad.parameter(x2.copy())
        out = ad.batch_norm_features(t)
        ad.backward(ad.sum_all(ad.mul(out, ad.tensor(g2))))
        np.testing.assert_array_equal(out.data, want[0])
        np.testing.assert_array_equal(t.grad, want[1])

    def test_batch_norm_gradient(self):
        # weight the output: the raw column sums are identically zero, which
        # would make the probe function constant
        weights = ad.tensor(RNG.uniform(-1, 1, (6, 4)))
        check_grad(lambda t: ad.mul(ad.batch_norm_features(t, eps=1e-5), weights),
                   RNG.uniform(-2, 2, (6, 4)))


class TestLosses:
    def test_cross_entropy_uniform_is_log2(self):
        loss = ad.cross_entropy(ad.tensor([[0.0, 0.0]]), np.array([0]))
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        x = RNG.uniform(-2, 2, (5, 4))
        t = RNG.integers(0, 4, 5)
        logits = ad.parameter(x.copy())
        ad.backward(ad.cross_entropy(logits, t))
        p = np.exp(x - x.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        p[np.arange(5), t] -= 1.0
        np.testing.assert_allclose(logits.grad, p / 5.0, rtol=1e-12)
        check_grad(lambda l: ad.cross_entropy(l, t), x)

    def test_cross_entropy_rejects_bad_target(self):
        with pytest.raises(DomainError, match="7"):
            ad.cross_entropy(ad.tensor(np.zeros((2, 3))), np.array([0, 7]))

    def test_bce_zero_logit_is_log2(self):
        loss = ad.binary_cross_entropy_with_logits(
            ad.tensor(np.zeros((1, 1))), np.ones((1, 1)))
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_bce_stable_for_large_logits(self):
        loss = ad.binary_cross_entropy_with_logits(
            ad.tensor([[1000.0, -1000.0]]), np.array([[1.0, 0.0]]))
        assert np.isfinite(loss.item()) and loss.item() < 1e-9

    def test_bce_gradient(self):
        x = RNG.uniform(-2, 2, (4, 8))
        t = RNG.integers(0, 2, (4, 8)).astype(float)
        check_grad(lambda l: ad.binary_cross_entropy_with_logits(l, t), x)

    def test_bce_rejects_non_binary_targets(self):
        with pytest.raises(DomainError):
            ad.binary_cross_entropy_with_logits(
                ad.tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))


class TestStructuralOps:
    def test_gradients(self):
        x = RNG.uniform(-2, 2, (3, 4))
        check_grad(lambda t: ad.reshape(t, (4, 3)), x)
        check_grad(lambda t: ad.swap_axes(t, 0, 1), x)
        check_grad(lambda t: ad.broadcast_to(t, (5, 3, 4)), x)
        check_grad(lambda t: ad.slice_front(t, 2), x)
        check_grad(lambda t: ad.take_index(t, 0, axis=1), x)
        layout = RowLayout.of(np.array([2, 1]), 3)
        check_grad(lambda t: ad.gather_rows(t, layout), x)
        check_grad(lambda t: ad.segment_mean(t, layout), x)
        check_grad(lambda t: ad.dropout(t, 0.4, np.random.default_rng(5),
                                        layout), x)

    def test_gather_rows_scatters_back_and_checks_its_index(self):
        # the [CLS] rows of sequences of lengths 1 and 3
        x = ad.parameter(RNG.uniform(-1, 1, (4, 3)))
        out = ad.gather_rows(x, RowLayout.of(np.array([1, 3]), 3))
        np.testing.assert_array_equal(out.data, x.data[[0, 1]])
        g = RNG.uniform(-1, 1, (2, 3))
        ad.backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
        np.testing.assert_array_equal(x.grad, [g[0], g[1], np.zeros(3),
                                               np.zeros(3)])
        for bad in ([1, 2], [2, 3], [5]):
            with pytest.raises(ShapeError, match="gather_rows"):
                ad.gather_rows(x, RowLayout.of(np.array(bad), 5))

    def test_segment_mean_weights_each_row_then_sums_in_order(self):
        x = ad.parameter(RNG.uniform(-1, 1, (5, 3)))
        out = ad.segment_mean(x, RowLayout.of(np.array([3, 2]), 3))
        w = x.data * np.array([1 / 3] * 3 + [1 / 2] * 2)[:, None]
        np.testing.assert_array_equal(out.data, [w[0] + w[1] + w[2],
                                                 w[3] + w[4]])
        g = RNG.uniform(-1, 1, (2, 3))
        ad.backward(ad.sum_all(ad.mul(out, ad.tensor(g))))
        np.testing.assert_array_equal(x.grad[:3], g[[0, 0, 0]] * (1 / 3))
        np.testing.assert_array_equal(x.grad[3:], g[[1, 1]] * (1 / 2))
        for bad in ([3, 3], [4], [1, 1, 1, 1, 2]):
            with pytest.raises(ShapeError, match="segment_mean"):
                ad.segment_mean(x, RowLayout.of(np.array(bad), 5))

    def test_embedding_lookup_accumulates_repeated_ids(self):
        table = ad.parameter(RNG.uniform(-1, 1, (5, 3)))
        ids = np.array([[0, 2, 0]])
        ad.backward(ad.sum_all(ad.embedding_lookup(table, ids)))
        want = np.zeros((5, 3))
        want[0] = 2.0  # row 0 used twice
        want[2] = 1.0
        np.testing.assert_array_equal(table.grad, want)

    def test_embedding_lookup_gradient_adds_rows_in_order(self):
        # repeated ids sum their rows in order onto zero, bit for bit as
        # np.add.at does, over magnitudes where the order shows
        table = ad.parameter(np.zeros((7, 5)))
        ids = RNG.integers(0, 7, (6, 9))
        g = RNG.normal(0.0, 1.0, (6, 9, 5)) * 10.0 ** RNG.uniform(-8, 8,
                                                                 (6, 9, 1))
        ad.backward(ad.sum_all(ad.mul(ad.embedding_lookup(table, ids),
                                      ad.tensor(g))))
        want = np.zeros((7, 5))
        np.add.at(want, ids.reshape(-1), g.reshape(-1, 5))
        np.testing.assert_array_equal(table.grad, want)

    def test_embedding_lookup_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ad.embedding_lookup(ad.tensor(np.zeros((3, 2))), np.array([[3]]))

    def test_dropout(self):
        x = ad.parameter(RNG.uniform(-1, 1, (50, 4)))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x
        a = ad.dropout(x, 0.5, np.random.default_rng(9)).data
        b = ad.dropout(x, 0.5, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)
        kept = a != 0.0
        np.testing.assert_allclose(a[kept], 2.0 * x.data[kept], rtol=1e-15)

    def test_dropout_draw_shape_cuts_the_whole_tensors_mask(self):
        # with a layout, the mask is drawn for the padded [4 * 5, 6] grid
        # and cut to the packed rows, or to the [CLS] rows
        x = ad.parameter(RNG.uniform(-1, 1, (20, 6)))
        layout = RowLayout.of(np.array([1, 3, 5, 2]), 5)
        cls_slots = layout.slots[layout.starts]
        for slots in (layout.slots, cls_slots):
            rng_full, rng_rows = (np.random.default_rng(2) for _ in range(2))
            full = ad.dropout(x, 0.3, rng_full)
            cut = ad.dropout(ad.tensor(x.data[slots]), 0.3, rng_rows, layout)
            np.testing.assert_array_equal(cut.data, full.data[slots])
            assert rng_rows.bit_generator.state == \
                rng_full.bit_generator.state
        for rows in (3, 10, 20):
            with pytest.raises(ShapeError, match="dropout"):
                ad.dropout(ad.tensor(np.zeros((rows, 6))), 0.3, rng_full,
                           layout)

    def test_dropout_backward_rescales_the_boolean_mask_bitwise(self):
        x = ad.parameter(RNG.uniform(-1, 1, (50, 4)))
        g = RNG.uniform(-1, 1, (50, 4))
        y = ad.dropout(x, 0.3, np.random.default_rng(4))
        saved = [c.cell_contents for c in y.node.apply.__closure__
                 if isinstance(c.cell_contents, np.ndarray)]
        assert [a.dtype for a in saved] == [np.dtype(bool)]
        ad.backward(ad.sum_all(ad.mul(y, ad.tensor(g))))
        mask = (np.random.default_rng(4).random((50, 4)) >= 0.3) \
            .astype(np.float64)
        np.testing.assert_array_equal(x.grad, g * (mask / (1.0 - 0.3)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.parameter(RNG.uniform(-1, 1, (3, 2)))
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_two_uses_accumulate(self):
        # d(x*x + x*x)/dx = 4x, shared node visited exactly once
        xv = RNG.uniform(-2, 2, 5)
        x = ad.parameter(xv.copy())
        sq = ad.mul(x, x)
        ad.backward(ad.sum_all(ad.add(sq, sq)))
        np.testing.assert_allclose(x.grad, 4.0 * xv, rtol=1e-14)

    def test_shared_subexpression_equals_expanded_graph(self):
        xv = RNG.uniform(-2, 2, (4, 4))
        x1 = ad.parameter(xv.copy())
        shared = ad.mul(x1, x1)
        ad.backward(ad.sum_all(ad.add(shared, shared)))
        x2 = ad.parameter(xv.copy())
        ad.backward(ad.sum_all(ad.add(ad.mul(x2, x2), ad.mul(x2, x2))))
        np.testing.assert_array_equal(x1.grad, x2.grad)

    def test_accumulates_across_backward_calls(self):
        x = ad.parameter(np.array([1.5, -0.5]))
        ad.backward(ad.sum_all(x))
        ad.backward(ad.sum_all(x))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_second_loss_through_shared_intermediate(self):
        # h feeds two losses; the second sweep must not send h the
        # gradient the first one left behind
        xv = np.array([1.0, 2.0])
        w = ad.parameter(np.array([0.5, -1.5]))
        h = ad.mul(ad.tensor(xv), w)
        ad.backward(ad.sum_all(h))
        ad.backward(ad.sum_all(ad.scale(h, 2.0)))
        np.testing.assert_array_equal(w.grad, 3.0 * xv)

    def test_same_loss_twice_counts_twice(self):
        w = ad.parameter(np.array([0.5, -1.5]))
        loss = ad.sum_all(ad.scale(w, 3.0))
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, [6.0, 6.0])
        np.testing.assert_array_equal(loss.grad, 2.0)

    def test_unreachable_tensor_untouched(self):
        x = ad.parameter(np.ones(3))
        bystander = ad.parameter(np.ones(3))
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert bystander.grad is None

    def test_detach_blocks_gradient(self):
        x = ad.parameter(np.array([2.0]))
        y = ad.mul(x, x)
        ad.backward(ad.sum_all(ad.mul(y.detach(), x)))
        np.testing.assert_array_equal(x.grad, [4.0])  # only the direct factor

    def test_rejects_non_scalar_loss(self):
        with pytest.raises(ShapeError):
            ad.backward(ad.parameter(np.ones(3)))

    def test_no_grad_suppresses_graph(self):
        x = ad.parameter(np.ones((2, 2)))
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y.node is None

    def test_no_grad_holds_for_its_own_thread_alone(self):
        x = ad.parameter(np.ones(2))
        entered, leave = threading.Event(), threading.Event()
        nodes = {}

        def other() -> None:
            with ad.no_grad():
                nodes["inside"] = ad.mul(x, x).node
                entered.set()
                leave.wait(timeout=10)
            nodes["after"] = ad.mul(x, x).node

        thread = threading.Thread(target=other)
        thread.start()
        assert entered.wait(timeout=10)
        # the other thread is inside no_grad: this one still records
        recorded = ad.mul(x, x)
        with ad.no_grad():
            leave.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            # the other thread has left no_grad: this one still does not
            unrecorded = ad.mul(x, x)
        assert recorded.node is not None
        assert unrecorded.node is None
        assert nodes["inside"] is None
        assert nodes["after"] is not None  # recorded under our no_grad


class TestGraphRetention:
    def test_output_no_backward_reads_is_freed_after_forward(self):
        q = ad.parameter(RNG.uniform(-1, 1, (3, 4)))
        k = ad.parameter(RNG.uniform(-1, 1, (4, 3)))
        scores = ad.matmul(q, k)
        raw = weakref.ref(scores.data)
        loss = ad.sum_all(ad.scale(scores, 0.5))
        del scores
        assert raw() is None  # scale's backward reads only its factor
        ad.backward(loss)
        np.testing.assert_allclose(q.grad, 0.5 * np.ones((3, 3)) @ k.data.T,
                                   rtol=1e-15)

    def test_sweep_leaves_gradients_on_leaves_and_loss_only(self):
        x = ad.parameter(RNG.uniform(-1, 1, (4, 3)))
        w = ad.parameter(RNG.uniform(-1, 1, (3, 5)))
        b = ad.parameter(RNG.uniform(-1, 1, 5))
        hidden = [ad.linear(x, w, b)]
        hidden.append(ad.gelu(hidden[-1]))
        hidden.append(ad.softmax_rows(hidden[-1]))
        hidden.append(ad.mul(hidden[-1], hidden[1]))
        hidden.append(ad.add(hidden[-1], hidden[0]))
        loss = ad.sum_all(hidden[-1])
        ad.backward(loss)
        nodes = ad._postorder(loss)
        assert len(nodes) == 6
        assert all(node.grad is None for node in nodes)
        assert all(t.grad is None for t in hidden)
        np.testing.assert_array_equal(loss.grad, 1.0)
        assert all(p.grad is not None for p in (x, w, b))

    def _saved_arrays(self, out):
        return [c.cell_contents for c in out.node.apply.__closure__
                if isinstance(c.cell_contents, np.ndarray)]

    def test_attention_keeps_one_probability_array_and_the_mask(self):
        b, s, d, heads = 3, 5, 8, 2
        layout = RowLayout.of(np.array([3, 5, 5]), s)
        n = len(layout.slots)
        params = [ad.parameter(RNG.normal(0.0, 1.0, shape))
                  for shape in ((n, d),) * 3 + ((d, d), (d,))]
        out = _attend(*params, layout, heads, 0.2, np.random.default_rng(0))
        saved = self._saved_arrays(out)
        square = [a for a in saved
                  if a.dtype == np.float64 and a.shape == (b, heads, s, s)]
        assert len(square) == 1  # the dropped-out copy is recomputed
        assert [a.shape for a in saved if a.dtype == bool] \
            == [(b, heads, s, s)]
        # the projection keeps its weight, not its input: no context
        # array, only q, k and v laid out on the padded grid
        assert any(a is params[3].data for a in saved)
        assert not any(a is params[4].data for a in saved)
        wide = [np.swapaxes(a, 1, 2).reshape(-1, d)[layout.slots]
                for a in saved if a.size == b * s * d]
        assert len(wide) == 3
        assert all(any(np.array_equal(a, t.data) for t in params[:3])
                   for a in wide)

    def test_feed_forward_keeps_its_input_and_pre_activation(self):
        b, s, d, f = 3, 5, 4, 6
        params = [ad.parameter(RNG.normal(0.0, 1.0, shape))
                  for shape in ((b, s, d), (d, f), (f,), (f, d), (d,))]
        out = ad.feed_forward(*params)
        saved = self._saved_arrays(out)
        activations = [a for a in saved if a.shape == (b, s, f)]
        assert len(activations) == 1  # x; gelu(x) is rebuilt in backward
        pre = params[0].data @ params[1].data + params[2].data
        np.testing.assert_array_equal(activations[0], pre)
        assert [a.shape for a in saved if a.ndim == 3] == [(b, s, d),
                                                          (b, s, f)]
        assert any(a is params[0].data for a in saved)

    def test_gelu_keeps_only_its_input(self):
        x = ad.parameter(RNG.uniform(-2, 2, (4, 3)))
        saved = self._saved_arrays(ad.gelu(x))
        assert len(saved) == 1 and saved[0] is x.data

    def test_parameters_accumulate_across_two_losses(self):
        xv = np.array([1.0, -2.0])
        w = ad.parameter(np.array([0.5, 3.0]))
        ad.backward(ad.sum_all(ad.mul(ad.tensor(xv), w)))
        x = ad.tensor(xv)
        ad.backward(ad.sum_all(ad.mul(ad.mul(x, w), x)))
        np.testing.assert_array_equal(w.grad, xv + xv * xv)

    def test_freeing_sweep_drops_saved_arrays(self):
        w = ad.parameter(np.array([0.5, -1.5]))
        x = np.array([1.0, 2.0])
        saved = weakref.ref(x)
        loss = ad.sum_all(ad.mul(w, ad.tensor(x)))
        del x
        assert saved() is not None  # mul keeps x for w's gradient
        ad.backward(loss, free=True)
        assert saved() is None
        np.testing.assert_array_equal(w.grad, [1.0, 2.0])
        with pytest.raises(ValueError, match="freed"):
            ad.backward(loss)

    def test_single_use_block_frees_and_default_keeps(self):
        w = ad.parameter(np.array([0.5, -1.5]))
        x = np.array([1.0, 2.0])
        saved = weakref.ref(x)
        kept = ad.sum_all(ad.mul(w, ad.tensor(x)))
        freed = ad.sum_all(ad.mul(w, ad.tensor(x)))
        del x
        ad.backward(kept)
        with ad.single_use_graphs():
            ad.backward(freed)
        assert saved() is not None  # `kept` still holds its graph
        ad.backward(kept)
        del kept
        assert saved() is None
        np.testing.assert_array_equal(w.grad, [3.0, 6.0])


class TestStreams:
    """A graph recorded as two streams and a head sweeps the streams side
    by side only when that keeps every gradient's order of summation."""

    def build(self, shared: bool):
        rng = np.random.default_rng(7)
        w1, w2, w3 = (ad.parameter(rng.uniform(-1, 1, (4, 4)))
                      for _ in range(3))
        x = ad.tensor(rng.uniform(-1, 1, (4, 4)))
        with ad.stream(1):
            a = ad.gelu(ad.matmul(ad.gelu(ad.matmul(x, w1)), w2))
        with ad.stream(2):
            b = ad.gelu(ad.matmul(ad.gelu(ad.matmul(x, w3)),
                                  w2 if shared else w3))
        loss = ad.sum_all(ad.add(ad.mul(a, b), ad.scale(a, 0.3)))
        return loss, (w1, w2, w3)

    def sweep(self, shared: bool, untag: bool) -> list[bytes]:
        loss, params = self.build(shared)
        if untag:
            for node in ad._postorder(loss):
                node.stream = 0
        ad.backward(loss)
        return [p.grad.tobytes() for p in params]

    @pytest.mark.parametrize("shared", [False, True])
    def test_split_only_when_streams_are_disjoint(self, threads_started,
                                                  shared):
        serial = self.sweep(shared, untag=True)
        assert threads_started == []
        assert self.sweep(shared, untag=False) == serial
        # a leaf both streams read would take gradients from two threads
        assert len(threads_started) == (0 if shared else 1)

    def test_stream_reading_the_other_sweeps_serially(self,
                                                      threads_started):
        w = ad.parameter(np.array([0.5, -1.5]))
        with ad.stream(1):
            a = ad.mul(w, w)
        with ad.stream(2):
            b = ad.scale(a, 2.0)
        ad.backward(ad.sum_all(ad.add(a, b)))
        assert threads_started == []
        np.testing.assert_array_equal(w.grad, 6.0 * w.data)

    def test_error_in_a_stream_reaches_the_caller(self):
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError):
            with parallel.beside(lambda: 1 / 0) as done:
                done()
        with pytest.raises(KeyError):
            with parallel.beside(lambda: None):
                raise KeyError("main")
        assert threading.active_count() == before


class TestLanes:
    """`two_lanes` runs every item once, on two threads, and leaves no
    thread behind."""

    def test_every_item_runs_once_in_one_of_two_lanes(self,
                                                      threads_started):
        meet, done = lanes_meet(), []

        def fn(item: int, lane: int) -> None:
            meet()
            done.append((item, lane, on_lane_zero()))

        before = threading.active_count()
        parallel.two_lanes(range(25), fn)
        assert threading.active_count() == before
        assert len(threads_started) == 1
        assert sorted(item for item, _, _ in done) == list(range(25))
        # lane 0 is the caller's thread, lane 1 the other one
        assert {(lane, main) for _, lane, main in done} == \
            {(0, True), (1, False)}

    def test_one_lane_runs_in_order_on_this_thread(self, threads_started):
        done = []
        parallel.one_lane(range(5),
                          lambda item, lane: done.append((item, lane)))
        assert done == [(i, 0) for i in range(5)]
        assert threads_started == []

    def test_no_items_and_a_failing_iterator(self):
        before = threading.active_count()
        parallel.two_lanes([], lambda item, lane: 1 / 0)

        def items():
            yield 1
            raise KeyError("iterator")

        with pytest.raises(KeyError, match="iterator"):
            parallel.two_lanes(items(), lambda item, lane: None)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_in_either_lane_reaches_the_caller(self, failing):
        meet, done = lanes_meet(), []

        def fn(item: int, lane: int) -> None:
            meet()
            if lane == failing:
                raise KeyError(f"lane {lane}")
            time.sleep(0.001)  # lets the failing lane in
            done.append(item)

        before = threading.active_count()
        with pytest.raises(KeyError, match=f"lane {failing}"):
            parallel.two_lanes(range(1000), fn)
        assert threading.active_count() == before
        # neither lane takes an item once one has raised
        assert len(done) < 500


class TestNumericGuards:
    def test_no_nan_inf_for_bounded_inputs(self):
        # |x| <= 1e3 must never produce NaN/Inf on any op's forward
        x = RNG.uniform(-1e3, 1e3, (8, 8))
        outs = [
            ad.matmul(ad.tensor(x), ad.tensor(x)).data,
            ad.add(ad.tensor(x), ad.tensor(x)).data,
            ad.mul(ad.tensor(x), ad.tensor(x)).data,
            ad.relu(ad.tensor(x)).data,
            ad.gelu(ad.tensor(x)).data,
            ad.softmax_rows(ad.tensor(x)).data,
            ad.layer_norm(ad.tensor(x), ad.tensor(np.ones(8)),
                          ad.tensor(np.zeros(8))).data,
            ad.batch_norm_features(ad.tensor(x)).data,
            ad.cross_entropy(ad.tensor(x), np.zeros(8, dtype=int)).data,
            ad.binary_cross_entropy_with_logits(
                ad.tensor(x), (x > 0).astype(float)).data,
        ]
        for out in outs:
            assert np.all(np.isfinite(out))
