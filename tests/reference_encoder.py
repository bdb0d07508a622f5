"""A padded plain-numpy reference of the encoder, forward and backward.

It computes what the encoder computed before it packed its rows: every
hidden state is [batch * seq, d] over the padded grid, pad positions
included, and each product, sum and gradient accumulation happens in the
order the autodiff engine performs it (at a tensor read by several ops,
the gradients arrive in reverse graph order: the residual first, then
the value, key and query projections).  Real rows of the packed encoder
must match it bit for bit.  Weight gradients are the exception: x.T @ g
sums over every grid row here and over the real rows alone there, so
BLAS groups the terms differently.
"""

from __future__ import annotations

import math

import numpy as np

from selfaug.autodiff import MASK_OFFSET
from selfaug.model import LN_EPS

GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715


def _swap(x):
    return np.swapaxes(x, -1, -2)


def _linear_back(g, x, w):
    """(gradient at x, at w, at the bias) of x @ w + b."""
    k, n = w.shape
    return g @ w.T, x.reshape(-1, k).T @ g.reshape(-1, n), \
        g.reshape(-1, n).sum(axis=0)


def _layer_norm(x, gain, bias):
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d
                        + LN_EPS)
    xhat *= inv
    return xhat * gain + bias, (xhat, inv)


def _layer_norm_back(g, gain, cache):
    xhat, inv = cache
    d = g.shape[-1]
    gx = g * gain
    dx = inv * (gx - gx.sum(axis=-1, keepdims=True) / d
                - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d))
    return dx, (g * xhat).reshape(-1, d).sum(axis=0), \
        g.reshape(-1, d).sum(axis=0)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _dropout_scale(rng, shape, rate, cut):
    """The scaled keep-mask drawn at `shape` = (batch, seq, d), cut to the
    first `cut` positions and flattened to rows; 1.0 at rate 0."""
    if rate == 0.0:
        return 1.0
    keep = rng.random(shape)[:, :cut] >= rate
    return keep.reshape(-1, shape[-1]) / (1.0 - rate)


class _Layer:
    """One encoder layer over the padded grid; `cls_only` keeps the first
    position of each sequence as the only query rows."""

    def __init__(self, params, prefix, n_heads):
        self.p = {name[len(prefix):]: arr for name, arr in params.items()
                  if name.startswith(prefix)}
        self.prefix = prefix
        self.n_heads = n_heads

    def forward(self, x, grid, key_bias, rate, rng, cls_only):
        p, heads = self.p, self.n_heads
        b, s = grid
        d = x.shape[1]
        sq = 1 if cls_only else s
        scale = 1.0 / math.sqrt(d // heads)

        def split(a, width):
            return np.swapaxes(a.reshape(b, width, heads, d // heads), 1, 2)

        rows = x.reshape(b, s, d)[:, 0] if cls_only else x
        q = rows @ p["attn_q_w"] + p["attn_q_b"]
        k = x @ p["attn_k_w"]
        v = x @ p["attn_v_w"] + p["attn_v_b"]
        qh, kh, vh = split(q, sq), split(k, s), split(v, s)
        y = _softmax(np.matmul(qh, _swap(kh)) * scale
                     + key_bias[:, None, None, :])
        drop = 1.0 if rate == 0.0 else \
            (rng.random((b, heads, s, s))[:, :, :sq] >= rate) / (1.0 - rate)
        probs = y * drop
        ctx = np.swapaxes(np.matmul(probs, vh), 1, 2).reshape(-1, d)
        attn = ctx @ p["attn_out_w"] + p["attn_out_b"]
        drop1 = _dropout_scale(rng, (b, s, d), rate, sq)
        h1, ln1 = _layer_norm(rows + attn * drop1, p["ln1_gain"],
                              p["ln1_bias"])
        pre = h1 @ p["ffn_in_w"] + p["ffn_in_b"]
        t = np.tanh(GELU_C * (pre + GELU_K * (pre * pre * pre)))
        act = 0.5 * pre * (1.0 + t)
        ffn = act @ p["ffn_out_w"] + p["ffn_out_b"]
        drop2 = _dropout_scale(rng, (b, s, d), rate, sq)
        out, ln2 = _layer_norm(h1 + ffn * drop2, p["ln2_gain"],
                               p["ln2_bias"])
        self.saved = (x, rows, qh, kh, vh, y, drop, probs, ctx, drop1, h1,
                      ln1, pre, t, act, drop2, ln2, grid, sq, scale)
        return out

    def backward(self, g, grads):
        """The gradient at the layer input; parameter gradients go into
        `grads` under their model names."""
        p, heads = self.p, self.n_heads
        (x, rows, qh, kh, vh, y, drop, probs, ctx, drop1, h1, ln1, pre, t,
         act, drop2, ln2, (b, s), sq, scale) = self.saved
        d = x.shape[1]

        def split(a, width):
            return np.swapaxes(a.reshape(b, width, heads, d // heads), 1, 2)

        def merge(a):
            return np.swapaxes(a, 1, 2).reshape(-1, d)

        def put(name, value):
            grads[self.prefix + name] = value

        g_a2, dgain, dbias = _layer_norm_back(g, p["ln2_gain"], ln2)
        put("ln2_gain", dgain)
        put("ln2_bias", dbias)
        g_act, dw, db = _linear_back(g_a2 * drop2, act, p["ffn_out_w"])
        put("ffn_out_w", dw)
        put("ffn_out_b", db)
        dt = (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_K * pre * pre)
        g_pre = g_act * (0.5 * (1.0 + t) + 0.5 * pre * dt)
        g_h1, dw, db = _linear_back(g_pre, h1, p["ffn_in_w"])
        put("ffn_in_w", dw)
        put("ffn_in_b", db)
        g_h1 = g_a2 + g_h1
        g_a1, dgain, dbias = _layer_norm_back(g_h1, p["ln1_gain"], ln1)
        put("ln1_gain", dgain)
        put("ln1_bias", dbias)
        g_ctx, dw, db = _linear_back(g_a1 * drop1, ctx, p["attn_out_w"])
        put("attn_out_w", dw)
        put("attn_out_b", db)
        gh = split(g_ctx, sq)
        dv = merge(np.matmul(_swap(probs), gh))
        g_probs = np.matmul(gh, _swap(vh)) * drop
        gs = y * (g_probs - (g_probs * y).sum(axis=-1, keepdims=True)) \
            * scale
        dq = merge(np.matmul(gs, kh))
        dk = merge(_swap(np.matmul(_swap(qh), gs)))
        g_xv, dw, db = _linear_back(dv, x, p["attn_v_w"])
        put("attn_v_w", dw)
        put("attn_v_b", db)
        g_xk, dw, _ = _linear_back(dk, x, p["attn_k_w"])
        put("attn_k_w", dw)
        g_rows, dw, db = _linear_back(dq, rows, p["attn_q_w"])
        put("attn_q_w", dw)
        put("attn_q_b", db)
        if sq == s:
            return ((g_a1 + g_xv) + g_xk) + g_rows
        return (g_xv + g_xk) + _cls_scatter(g_a1 + g_rows, b, s)


def _cls_scatter(g, b, s):
    """[batch, d] -> [batch * seq, d], zero except at position 0."""
    full = np.zeros((b, s, g.shape[1]))
    full[:, 0] = g
    return full.reshape(-1, g.shape[1])


def padding_mask(lengths, width):
    """The float [batch, width] mask of rows of `lengths` real tokens:
    1 over each row's first `lengths[b]` positions, 0 over its padding."""
    return (np.arange(width) < lengths[:, None]).astype(np.float64)


def reference(model, batch, rng=None, train=False, cls_only=False,
              injection=None, dlogits=None):
    """The padded encoder on `batch`, with the model's parameters.

    `injection` is (j, T) with T padded [batch * seq, d].  Returns
    (logits, hidden, grads, tap_grad): the hidden states are
    [batch * seq, d], or [batch, d] for a CLS-only top layer; grads maps
    parameter names to the gradient of sum(logits * dlogits), and
    tap_grad is T's gradient.  Without `dlogits`, grads is empty and
    tap_grad None.
    """
    params = {name: t.data for name, t in model.parameters()}
    cfg = model.config
    ids = batch.token_ids
    b, s = ids.shape
    mask = padding_mask(batch.lengths, s)
    d, n_layers = cfg.d_model, cfg.n_layers
    rate = cfg.dropout_rate if train else 0.0
    key_bias = (mask - 1.0) * MASK_OFFSET
    flat_ids = ids.reshape(-1)
    x = params["token_embedding"][flat_ids] + np.tile(
        params["position_embedding"][:s], (b, 1))
    drop0 = _dropout_scale(rng, (b, s, d), rate, s)
    x = x * drop0
    j, tap = injection if injection is not None else (None, None)

    def inject(h, depth, top):
        if depth != j:
            return h
        return h + (tap.reshape(b, s, d)[:, 0] if top else tap)

    x = inject(x, 0, False)
    hidden = [x]
    layers = [_Layer(params, f"layer{i}.", cfg.n_heads)
              for i in range(n_layers)]
    for depth, layer in enumerate(layers, start=1):
        top = cls_only and depth == n_layers
        x = inject(layer.forward(x, (b, s), key_bias, rate, rng, top),
                   depth, top)
        hidden.append(x)
    pooled = x if cls_only else x.reshape(b, s, d)[:, 0]
    logits = pooled @ params["head_w"] + params["head_b"]
    if dlogits is None:
        return logits, hidden, {}, None

    grads = {}
    g_pooled, grads["head_w"], grads["head_b"] = _linear_back(
        dlogits, pooled, params["head_w"])
    g = g_pooled if cls_only else _cls_scatter(g_pooled, b, s)
    tap_grad = None
    for depth in range(n_layers, 0, -1):
        if depth == j:
            tap_grad = _cls_scatter(g, b, s) \
                if cls_only and depth == n_layers else g
        g = layers[depth - 1].backward(g, grads)
    if j == 0:
        tap_grad = g
    g = g * drop0
    grads["token_embedding"] = np.zeros_like(params["token_embedding"])
    np.add.at(grads["token_embedding"], flat_ids, g)
    grads["position_embedding"] = np.zeros_like(
        params["position_embedding"])
    grads["position_embedding"][:s] = g.reshape(b, s, d).sum(axis=0)
    return logits, hidden, grads, tap_grad
