"""Acceptance gate: ten repository-level criteria, one test each.

Each test is self-contained and pins its tolerances inline; the terminal
summary (see conftest) prints one PASS/FAIL line per criterion.  Tests are
numbered so the verdict table reads in order.
"""

from __future__ import annotations

import json
import time
from importlib import resources
from pathlib import Path

import numpy as np

import selfaug.autodiff as ad
from selfaug.config import ExperimentConfig
from selfaug.data import SynthSpec, batches, build_vocab, gen_synthetic, \
    make_splits
from selfaug.harness import prepare_data, run_grid, run_training
from selfaug.metrics import evaluate_predictions
from selfaug.model import EncoderModel, ModelConfig, predict
from selfaug.objective import DualStreamConfig, composite_loss, \
    contrastive_loss, dual_forward
from selfaug.training import EarlyStopper, TrainConfig, train

from conftest import fd_grad, rel_err
from test_metrics import oracle_bundle, random_task
from test_model import make_batch, model_loss, randomize_parameters, \
    small_config


# ---------------------------------------------------------------------------
# criterion 1: every differentiable operation, and the whole one-layer
# model, agree with central finite differences


def _away_from_zero(x: np.ndarray, margin: float = 1e-2) -> np.ndarray:
    """Shift entries off the relu kink so h=1e-5 probes stay one-sided."""
    sign = np.where(x >= 0.0, 1.0, -1.0)
    return np.where(np.abs(x) < margin, x + sign * margin, x)


def _wsum(t, w: np.ndarray):
    return ad.sum_all(ad.mul(t, ad.tensor(w)))


def _op_cases(rng: np.random.Generator) -> list:
    """One (name, params, make_loss) case per differentiable operation.

    Each make_loss rebuilds the graph from the parameters' current data, so
    the finite-difference probe sees live perturbations.  Weights that turn
    op outputs into a scalar are hoisted constants: they must not change
    between probe evaluations.
    """
    n = rng.normal
    cases = []

    def elementwise(name, op, draw):
        a = ad.parameter(draw())
        w = n(0.0, 1.0, a.shape)
        cases.append((name, [("a", a)], lambda op=op, a=a, w=w:
                      _wsum(op(a), w)))

    elementwise("relu", ad.relu,
                lambda: _away_from_zero(n(0.0, 1.0, (2, 3))))
    elementwise("gelu", ad.gelu, lambda: n(0.0, 1.0, (2, 3)))
    elementwise("softmax_rows", ad.softmax_rows, lambda: n(0.0, 1.0, (3, 5)))

    factor = float(rng.uniform(-2.0, 2.0))
    a = ad.parameter(n(0.0, 1.0, (2, 3)))
    w = n(0.0, 1.0, (2, 3))
    cases.append(("scale", [("a", a)],
                  lambda a=a, w=w, factor=factor:
                  _wsum(ad.scale(a, factor), w)))

    for name, op in (("add", ad.add), ("sub", ad.sub), ("mul", ad.mul)):
        a = ad.parameter(n(0.0, 1.0, (2, 3)))
        b = ad.parameter(n(0.0, 1.0, (2, 3)))
        w = n(0.0, 1.0, (2, 3))
        cases.append((name, [("a", a), ("b", b)],
                      lambda op=op, a=a, b=b, w=w: _wsum(op(a, b), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 4)))
    b = ad.parameter(n(0.0, 1.0, (4, 3)))
    w = n(0.0, 1.0, (2, 3))
    cases.append(("matmul", [("a", a), ("b", b)],
                  lambda a=a, b=b, w=w: _wsum(ad.matmul(a, b), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 3, 4)))
    b = ad.parameter(n(0.0, 1.0, (2, 4, 2)))
    w = n(0.0, 1.0, (2, 3, 2))
    cases.append(("matmul_batched", [("a", a), ("b", b)],
                  lambda a=a, b=b, w=w: _wsum(ad.matmul(a, b), w)))

    x = ad.parameter(n(0.0, 1.0, (3, 4)))
    wgt = ad.parameter(n(0.0, 1.0, (4, 5)))
    bias = ad.parameter(n(0.0, 1.0, 5))
    w = n(0.0, 1.0, (3, 5))
    cases.append(("linear", [("x", x), ("w", wgt), ("b", bias)],
                  lambda x=x, wgt=wgt, bias=bias, w=w:
                  _wsum(ad.linear(x, wgt, bias), w)))
    x2 = ad.parameter(n(0.0, 1.0, (3, 4)))
    wgt2 = ad.parameter(n(0.0, 1.0, (4, 5)))
    cases.append(("linear_no_bias", [("x", x2), ("w", wgt2)],
                  lambda x2=x2, wgt2=wgt2, w=w:
                  _wsum(ad.linear(x2, wgt2), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 6)))
    w = n(0.0, 1.0, (3, 4))
    cases.append(("reshape", [("a", a)],
                  lambda a=a, w=w: _wsum(ad.reshape(a, (3, 4)), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 3, 4)))
    w = n(0.0, 1.0, (4, 3, 2))
    cases.append(("swap_axes", [("a", a)],
                  lambda a=a, w=w: _wsum(ad.swap_axes(a, 0, 2), w)))

    a = ad.parameter(n(0.0, 1.0, (1, 3)))
    w = n(0.0, 1.0, (4, 3))
    cases.append(("broadcast_to", [("a", a)],
                  lambda a=a, w=w: _wsum(ad.broadcast_to(a, (4, 3)), w)))

    a = ad.parameter(n(0.0, 1.0, (5, 3)))
    w = n(0.0, 1.0, (3, 3))
    cases.append(("slice_front", [("a", a)],
                  lambda a=a, w=w: _wsum(ad.slice_front(a, 3), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 4, 3)))
    idx = int(rng.integers(0, 4))
    w = n(0.0, 1.0, (2, 3))
    cases.append(("take_index", [("a", a)],
                  lambda a=a, idx=idx, w=w:
                  _wsum(ad.take_index(a, idx, axis=1), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 3, 4)))
    axis = int(rng.integers(0, 3))
    w_shape = tuple(s for i, s in enumerate((2, 3, 4)) if i != axis)
    w = n(0.0, 1.0, w_shape)
    cases.append(("sum_axis", [("a", a)],
                  lambda a=a, axis=axis, w=w:
                  _wsum(ad.sum_axis(a, axis), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 3)))
    cases.append(("sum_all", [("a", a)],
                  lambda a=a, factor=factor:
                  ad.scale(ad.sum_all(a), factor)))

    table = ad.parameter(n(0.0, 1.0, (7, 4)))
    ids = rng.integers(0, 7, (2, 3))
    ids[0, 1] = ids[0, 0]  # repeat forces gradient accumulation on one row
    w = n(0.0, 1.0, (2, 3, 4))
    cases.append(("embedding_lookup", [("table", table)],
                  lambda table=table, ids=ids, w=w:
                  _wsum(ad.embedding_lookup(table, ids), w)))

    a = ad.parameter(n(0.0, 1.0, (4, 6)))
    w = n(0.0, 1.0, (4, 6))
    mask_seed = int(rng.integers(0, 2 ** 31))
    cases.append(("dropout", [("a", a)],
                  lambda a=a, w=w, mask_seed=mask_seed:
                  _wsum(ad.dropout(a, 0.5,
                                   np.random.default_rng(mask_seed)), w)))

    a = ad.parameter(n(0.0, 1.0, (2, 4, 6)))
    gain = ad.parameter(rng.uniform(0.5, 1.5, 6))
    bias = ad.parameter(n(0.0, 0.5, 6))
    w = n(0.0, 1.0, (2, 4, 6))
    cases.append(("layer_norm", [("a", a), ("gain", gain), ("bias", bias)],
                  lambda a=a, gain=gain, bias=bias, w=w:
                  _wsum(ad.layer_norm(a, gain, bias), w)))

    a = ad.parameter(n(0.0, 1.0, (6, 4)))
    w = n(0.0, 1.0, (6, 4))
    cases.append(("batch_norm_features", [("a", a)],
                  lambda a=a, w=w:
                  _wsum(ad.batch_norm_features(a, train=True), w)))

    logits = ad.parameter(n(0.0, 1.5, (4, 5)))
    targets = rng.integers(0, 5, 4)
    cases.append(("cross_entropy", [("logits", logits)],
                  lambda logits=logits, targets=targets:
                  ad.scale(ad.cross_entropy(logits, targets), 1.7)))

    logits = ad.parameter(n(0.0, 1.5, (3, 4)))
    onehot = rng.integers(0, 2, (3, 4)).astype(float)
    cases.append(("binary_cross_entropy_with_logits",
                  [("logits", logits)],
                  lambda logits=logits, onehot=onehot:
                  ad.scale(ad.binary_cross_entropy_with_logits(
                      logits, onehot), 1.7)))
    return cases


def test_01_gradients_match_finite_differences():
    started = time.perf_counter()
    instances = 25

    for i in range(instances):
        rng = np.random.default_rng(1000 + i)
        for name, params, make_loss in _op_cases(rng):
            loss = make_loss()
            ad.backward(loss)

            def probe(_):
                with ad.no_grad():
                    return make_loss().item()

            for pname, p in params:
                numeric = fd_grad(probe, p.data)
                err = rel_err(p.grad, numeric)
                assert err < 1e-4, f"{name}/{pname} instance {i}: {err}"

    for i in range(instances):
        model = EncoderModel(small_config(), seed=100 + i)
        randomize_parameters(model, np.random.default_rng(200 + i))
        batch = make_batch(seed=300 + i)
        logits, _ = model.forward(batch)
        ad.backward(ad.cross_entropy(logits, batch.targets))
        for name, param in model.parameters():
            numeric = fd_grad(lambda _: model_loss(model, batch), param.data)
            err = rel_err(param.grad, numeric)
            assert err < 1e-3, f"model/{name} instance {i}: {err}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: the composite objective equals its closed form bitwise


def test_02_composite_objective_matches_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        alpha = float(rng.uniform(0.0, 1.0))
        cf, cc, lc = (float(v) for v in rng.uniform(0.0, 5.0, 3))
        losses = composite_loss(ad.tensor(cf), ad.tensor(cc),
                                ad.tensor(lc), alpha)
        assert losses.total.item() == (1.0 - alpha) / 2.0 * (cf + cc) \
            + alpha * lc

    rng = np.random.default_rng(22)
    for _ in range(50):
        cf, cc, lc = (float(v) for v in rng.uniform(0.1, 5.0, 3))
        at_zero = composite_loss(ad.tensor(cf), ad.tensor(cc),
                                 ad.tensor(lc), 0.0)
        assert at_zero.total.item() == (cf + cc) / 2.0
        at_one = composite_loss(ad.tensor(cf), ad.tensor(cc),
                                ad.tensor(lc), 1.0)
        assert at_one.total.item() == lc

    # worked substitution: weight 0.4 over (1.0, 0.6, 2.0) -> 0.3*1.6 + 0.8
    worked = composite_loss(ad.tensor(1.0), ad.tensor(0.6),
                            ad.tensor(2.0), 0.4)
    assert abs(worked.total.item() - 1.28) < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: injection identities and the gradient-stop policy


def _tiny_batch(b=2, s=5, vocab=11, seed=0, n_classes=3):
    return make_batch(b=b, s=s, vocab=vocab, seed=seed, n_classes=n_classes)


def test_03_injection_identities_and_gradient_stop():
    cfg = small_config(n_layers=2)
    batch = _tiny_batch()
    b, s, d = batch.token_ids.shape[0], batch.token_ids.shape[1], cfg.d_model

    # zero injection at every depth leaves the forward pass bitwise intact
    model = EncoderModel(cfg, seed=31)
    randomize_parameters(model, np.random.default_rng(32))
    base_logits, base_hidden = model.forward(batch)
    for j in range(cfg.n_layers + 1):
        zeros = ad.tensor(np.zeros((b, s, d)))
        logits, hidden = model.forward(batch, injection=(j, zeros))
        assert logits.data.tobytes() == base_logits.data.tobytes(), j
        for k, (got, want) in enumerate(zip(hidden, base_hidden)):
            assert got.data.tobytes() == want.data.tobytes(), (j, k)

    # tied copies, tap and inject both at the embedding layer: the injected
    # stream sees exactly x + x = 2x
    model_f = EncoderModel(cfg, seed=33)
    randomize_parameters(model_f, np.random.default_rng(34))
    model_c = EncoderModel(cfg, seed=33)
    randomize_parameters(model_c, np.random.default_rng(34))
    dual = DualStreamConfig(tap_layer=0, inject_layer=0, alpha=0.2,
                            projection_dims=(8, 8, 4))
    _, _, pooled_tap, pooled_injected = dual_forward(
        model_f, model_c, batch, dual)
    assert np.array_equal(pooled_injected.data, 2.0 * pooled_tap.data)

    # stop policy: the copy's loss sends no gradient into the tapped stream
    stop = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.2,
                            augment_gradient="stop",
                            projection_dims=(8, 8, 4))
    model_f = EncoderModel(cfg, seed=35)
    randomize_parameters(model_f, np.random.default_rng(36))
    model_c = EncoderModel(cfg, seed=37)
    randomize_parameters(model_c, np.random.default_rng(38))
    _, logits_c, _, _ = dual_forward(model_f, model_c, batch, stop)
    ad.backward(ad.cross_entropy(logits_c, batch.targets))
    for name, p in model_f.parameters():
        assert p.grad is None or not np.any(p.grad), name

    # finite-difference restatement: with the captured injection held
    # fixed (which is what "stop" means), the copy's loss is flat in any
    # tapped-stream parameter
    _, hidden_f = model_f.forward(batch)
    captured = hidden_f[stop.tap_layer].data.copy()

    def copy_loss() -> float:
        with ad.no_grad():
            logits, _ = model_c.forward(
                batch, injection=(stop.inject_layer, ad.tensor(captured)))
            return ad.cross_entropy(logits, batch.targets).item()

    h = 1e-5
    probe = model_f.token_embedding
    orig = probe.data[3, 2]
    probe.data[3, 2] = orig + h
    hi = copy_loss()
    probe.data[3, 2] = orig - h
    lo = copy_loss()
    probe.data[3, 2] = orig
    assert abs(hi - lo) / (2.0 * h) < 1e-10

    # contrast: under flow the same loss does reach the tapped stream
    flow = DualStreamConfig(tap_layer=1, inject_layer=1, alpha=0.2,
                            augment_gradient="flow",
                            projection_dims=(8, 8, 4))
    model_f = EncoderModel(cfg, seed=35)
    randomize_parameters(model_f, np.random.default_rng(36))
    model_c = EncoderModel(cfg, seed=37)
    randomize_parameters(model_c, np.random.default_rng(38))
    _, logits_c, _, _ = dual_forward(model_f, model_c, batch, flow)
    ad.backward(ad.cross_entropy(logits_c, batch.targets))
    grad = model_f.token_embedding.grad
    assert grad is not None and np.abs(grad).max() > 0.0


# ---------------------------------------------------------------------------
# criterion 4: redundancy-reduction loss against hand-computed and
# statistical oracles


def test_04_contrastive_loss_oracle_and_limits():
    # hand-worked 2x2 batch: correlation matrix [[1,-1],[-1,1]], so the
    # invariance term vanishes and the off-diagonal term is 2 * 0.005
    z_a = ad.tensor(np.array([[5.0, 0.0], [1.0, 2.0]]))
    z_b = ad.tensor(np.array([[2.0, -3.0], [0.0, 7.0]]))
    loss, corr = contrastive_loss(z_a, z_b, lambda_offdiag=0.005)
    assert abs(loss.item() - 0.01) < 1e-12
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(corr.data - expected).max() < 1e-9

    # identical inputs: the invariance term is zero on any batch
    rng = np.random.default_rng(4)
    for _ in range(100):
        b = int(rng.integers(2, 9))
        d = int(rng.integers(1, 7))
        z = ad.tensor(rng.normal(0.0, rng.uniform(0.5, 3.0), (b, d)))
        loss, _ = contrastive_loss(z, z, lambda_offdiag=0.0)
        assert loss.item() < 1e-12

    # independent inputs: each on-diagonal entry is ~N(0, 1/batch), so the
    # loss approaches one per feature as the batch grows
    rng = np.random.default_rng(44)
    width = 16
    z_a = ad.tensor(rng.normal(0.0, 1.0, (4096, width)))
    z_b = ad.tensor(rng.normal(0.0, 1.0, (4096, width)))
    loss, _ = contrastive_loss(z_a, z_b, lambda_offdiag=0.005)
    assert abs(loss.item() / width - 1.0) < 0.05


# ---------------------------------------------------------------------------
# criterion 5: baseline mode against an independent single-stream trainer


def _anchor_spec() -> SynthSpec:
    return SynthSpec.from_dict({
        "task_kind": "binary",
        "classes": ["ailment", "banter"],
        "keywords": {"ailment": ["fever", "nausea", "fatigue"],
                     "banter": ["meme", "prank", "trivia"]},
        "literal_templates": ["the {kw} kept me up",
                              "dealing with {kw} since monday"],
        "figurative_templates": ["pure {kw} energy"],
        "ambiguity": 0.0,
        "count": 80,
    })


def _reference_single_stream(model, train_ex, val_ex, vocab, space, cfg):
    """Plain one-model trainer written against the public ops only: its own
    Adam arithmetic, batch loop, and validation recount."""
    params = model.parameters()
    m = {n: np.zeros_like(p.data) for n, p in params}
    v = {n: np.zeros_like(p.data) for n, p in params}
    step = 0
    rows = []
    for epoch in range(1, cfg.max_epochs + 1):
        total = 0.0
        n_batches = 0
        for batch in batches(train_ex, vocab, space, cfg.batch_size,
                             model.config.max_seq_len, train=True,
                             seed=cfg.seed + epoch):
            for _, p in params:
                p.grad = None
            logits, _ = model.forward(batch, train=True)
            loss = ad.cross_entropy(logits, batch.targets)
            ad.backward(loss)
            step += 1
            bias1 = 1.0 - 0.9 ** step
            bias2 = 1.0 - 0.999 ** step
            for n, p in params:
                g = p.grad if p.grad is not None else 0.0
                m[n] = 0.9 * m[n] + (1.0 - 0.9) * g
                v[n] = 0.999 * v[n] + (1.0 - 0.999) * np.square(g)
                p.data = p.data - cfg.learning_rate * (m[n] / bias1) / \
                    (np.sqrt(v[n] / bias2) + 1e-8)
            total += loss.item()
            n_batches += 1

        preds: list[int] = []
        golds: list[int] = []
        for batch in batches(val_ex, vocab, space, cfg.batch_size,
                             model.config.max_seq_len, train=False):
            with ad.no_grad():
                logits, _ = model.forward(batch)
            preds.extend(predict(logits.data, model.config.head_kind, 0.5))
            golds.extend(int(t) for t in batch.targets)
        bundle = evaluate_predictions(preds, golds, list(space.labels))
        rows.append((total / n_batches, bundle.macro.precision,
                     bundle.macro.recall, bundle.macro.f1))
    return rows


def test_05_baseline_mode_matches_reference_trainer():
    spec = _anchor_spec()
    examples = gen_synthetic(spec, seed=5)
    splits = make_splits(examples, (0.75, 0.25, 0.0), seed=5)
    vocab = build_vocab(splits.train)
    space = spec.label_space()
    model_cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2,
                            n_layers=2, d_ff=16, max_seq_len=16,
                            head_kind="binary", n_outputs=2)
    train_cfg = TrainConfig(learning_rate=1e-3, max_epochs=5, patience=5,
                            batch_size=8, seed=3, mode="baseline")

    result = train(EncoderModel(model_cfg, seed=7), None, None,
                   splits.train, splits.val, vocab, space, None, train_cfg)
    reference = _reference_single_stream(
        EncoderModel(model_cfg, seed=7), splits.train, splits.val,
        vocab, space, train_cfg)

    assert len(result.records) == len(reference) == 5
    for rec, (ce, prec, recall, f1) in zip(result.records, reference):
        assert rec.ce_f == ce
        assert rec.total == ce
        assert rec.ce_c == 0.0 and rec.contrastive == 0.0
        assert rec.val_precision == prec
        assert rec.val_recall == recall
        assert rec.val_f1 == f1


# ---------------------------------------------------------------------------
# criterion 6: the bundled desk-scale preset learns in every mode


def _desk_preset_path() -> Path:
    return Path(str(resources.files("selfaug") / "presets"
                    / "desk_binary.json"))


def test_06_desk_scale_preset_learns_in_all_modes(tmp_path):
    config = ExperimentConfig.from_file(_desk_preset_path())
    assert config.model.d_model == 32 and config.model.n_layers == 2
    spec = config.data.synth_spec
    assert len(spec.classes) == 2 and spec.ambiguity == 0.0
    prepared = prepare_data(config)
    assert (len(prepared.train), len(prepared.val), len(prepared.test)) \
        == (400, 100, 100)

    for mode in ("baseline", "sa_only", "proposed"):
        run = config.with_overrides(out_dir=str(tmp_path / mode), mode=mode)
        started = time.perf_counter()
        summary = run_training(run)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"{mode}: {elapsed:.1f}s"
        assert summary["epochs_run"] <= 20, mode
        assert summary["best_val_f1"] >= 0.95, \
            f"{mode}: best val F1 {summary['best_val_f1']}"


# ---------------------------------------------------------------------------
# criterion 7: metrics against a brute-force recount


def test_07_metrics_match_brute_force_recount():
    rng = np.random.default_rng(71)
    for _ in range(1000):
        kind, k, preds, golds = random_task(rng)
        labels = [f"c{i}" for i in range(k)]
        got = evaluate_predictions(preds, golds, labels)
        per, macro, micro, acc = oracle_bundle(preds, golds, k)
        for c, label in enumerate(labels):
            s = got.per_class[label]
            assert abs(s.precision - per[c][0]) < 1e-12
            assert abs(s.recall - per[c][1]) < 1e-12
            assert abs(s.f1 - per[c][2]) < 1e-12
        assert abs(got.macro.precision - macro[0]) < 1e-12
        assert abs(got.macro.recall - macro[1]) < 1e-12
        assert abs(got.macro.f1 - macro[2]) < 1e-12
        assert abs(got.micro.f1 - micro[2]) < 1e-12
        assert abs(got.accuracy - acc) < 1e-12
        if kind != "multilabel":
            assert abs(got.micro.f1 - got.accuracy) < 1e-12


# ---------------------------------------------------------------------------
# criterion 8: the early-stopping rule on synthetic score traces


def _stop_oracle(trace: list[float], patience: int):
    """Direct restatement: stop after `patience` consecutive epochs without
    strict improvement; the earliest best epoch wins ties."""
    best = float("-inf")
    best_epoch = 0
    stale = 0
    for epoch, score in enumerate(trace, start=1):
        if score > best:
            best, best_epoch, stale = score, epoch, 0
        else:
            stale += 1
        if stale >= patience:
            return epoch, best_epoch
    return None, best_epoch


def test_08_early_stopping_replays_patience_rule():
    # worked trace: improvement at epochs 1 and 2, then five flat epochs
    trace = [0.6, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]
    stopper = EarlyStopper(patience=5)
    verdicts = [stopper.update(e, s) for e, s in enumerate(trace, start=1)]
    assert verdicts == [False] * 6 + [True]
    assert stopper.best_epoch == 2
    assert stopper.best_score == 0.7

    rng = np.random.default_rng(8)
    grid = np.round(np.linspace(0.0, 1.0, 9), 3)  # coarse values force ties
    for _ in range(300):
        n = int(rng.integers(1, 21))
        trace = [float(rng.choice(grid)) for _ in range(n)]
        want_stop, want_best = _stop_oracle(trace, patience=5)
        stopper = EarlyStopper(patience=5)
        got_stop = None
        for epoch, score in enumerate(trace, start=1):
            if stopper.update(epoch, score):
                got_stop = epoch
                break
        assert got_stop == want_stop, trace
        assert stopper.best_epoch == want_best, trace


# ---------------------------------------------------------------------------
# criterion 9: rerun determinism of the primary artifacts


def _rerun_config(out_dir: str, max_epochs: int = 2,
                  with_grid: bool = False) -> ExperimentConfig:
    payload = {
        "data": {
            "synth_spec": _anchor_spec().to_dict() | {"count": 100},
            "ratios": [0.7, 0.15, 0.15],
        },
        "model": {"d_model": 8, "n_heads": 2, "n_layers": 2, "d_ff": 16,
                  "max_seq_len": 16, "dropout_rate": 0.0},
        "dual": {"tap_layer": 1, "inject_layer": 1, "alpha": 0.2,
                 "projection_dims": [8, 8, 4]},
        "train": {"learning_rate": 0.001, "max_epochs": max_epochs,
                  "patience": max_epochs, "batch_size": 8, "seed": 0,
                  "mode": "proposed"},
        "threshold": 0.5,
        "out_dir": out_dir,
    }
    if with_grid:
        payload["grid"] = {"alpha": [0.0, 0.2]}
    return ExperimentConfig.from_dict(payload)


def test_09_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "run"
    run_training(_rerun_config(str(out)))
    first = (out / "metrics.json").read_bytes()
    run_training(_rerun_config(str(out)))
    assert (out / "metrics.json").read_bytes() == first

    grid_a, grid_b = tmp_path / "grid_a", tmp_path / "grid_b"
    run_grid(_rerun_config(str(grid_a), with_grid=True))
    run_grid(_rerun_config(str(grid_b), with_grid=True))
    csv_a = (grid_a / "grid.csv").read_bytes()
    csv_b = (grid_b / "grid.csv").read_bytes()
    assert csv_a == csv_b
    assert csv_a.count(b"\n") == 3  # header + one row per cell


# ---------------------------------------------------------------------------
# criterion 10: shipped presets carry the tuned settings verbatim


def test_10_presets_pin_tuned_hyperparameters():
    expected = {
        "dreaddit_bert": (0.1, 18, 21),
        "dreaddit_roberta": (0.1, 18, 3),
        "depressionemo_bert": (0.2, 18, 0),
        "depressionemo_roberta": (0.5, 21, 9),
        "rhmd_bert": (0.4, 9, 21),
        "rhmd_roberta": (0.4, 0, 15),
    }
    presets = resources.files("selfaug") / "presets"
    for name, (alpha, tap, inject) in expected.items():
        raw = json.loads((presets / f"{name}.json").read_text("utf-8"))
        config = ExperimentConfig.from_dict(raw)  # schema must validate
        assert config.dual is not None, name
        assert config.dual.alpha == alpha, name
        assert config.dual.tap_layer == tap, name
        assert config.dual.inject_layer == inject, name
