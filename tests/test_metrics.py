"""Metrics against an independent brute-force recount and hand-worked values."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfaug.errors import ShapeError
from selfaug.metrics import evaluate_predictions, prf

RNG = np.random.default_rng(7311)


# --- brute-force oracle: explicit loops, no shared code with the package ---

def oracle_bundle(preds, golds, k):
    def as_set(v):
        return set(v) if isinstance(v, (set, frozenset)) else {v}
    per = []
    zero_div = 0
    for c in range(k):
        tp = fp = fn = 0
        for p, g in zip(preds, golds):
            ps, gs = as_set(p), as_set(g)
            if c in ps and c in gs:
                tp += 1
            elif c in ps and c not in gs:
                fp += 1
            elif c not in ps and c in gs:
                fn += 1
        if tp + fp > 0:
            prec = tp / (tp + fp)
        else:
            prec = 0.0
            zero_div += 1
        if tp + fn > 0:
            rec = tp / (tp + fn)
        else:
            rec = 0.0
            zero_div += 1
        if prec + rec > 0:
            f1 = 2 * prec * rec / (prec + rec)
        else:
            f1 = 0.0
            zero_div += 1
        per.append((prec, rec, f1, tp, fp, fn))
    macro = tuple(sum(row[i] for row in per) / k for i in range(3))
    tp = sum(row[3] for row in per)
    fp = sum(row[4] for row in per)
    fn = sum(row[5] for row in per)
    mp = tp / (tp + fp) if tp + fp else 0.0
    mr = tp / (tp + fn) if tp + fn else 0.0
    mf = 2 * mp * mr / (mp + mr) if mp + mr else 0.0
    acc = sum(as_set(p) == as_set(g) for p, g in zip(preds, golds)) / len(preds)
    return per, macro, (mp, mr, mf), acc


def indicator(decisions, k):
    """The boolean [n, k] matrix of class indices or sets of them."""
    out = np.zeros((len(decisions), k), dtype=bool)
    for row, decision in enumerate(decisions):
        classes = decision if isinstance(decision, (set, frozenset)) \
            else {decision}
        for c in classes:
            out[row, c] = True
    return out


def random_task(rng):
    kind = rng.choice(["binary", "multiclass", "multilabel"])
    n = int(rng.integers(1, 40))
    if kind == "binary":
        k = 2
        preds = [int(v) for v in rng.integers(0, 2, n)]
        golds = [int(v) for v in rng.integers(0, 2, n)]
    elif kind == "multiclass":
        k = int(rng.integers(3, 6))
        preds = [int(v) for v in rng.integers(0, k, n)]
        golds = [int(v) for v in rng.integers(0, k, n)]
    else:
        k = int(rng.integers(2, 6))
        preds = [set(int(c) for c in rng.choice(k, size=rng.integers(0, k + 1),
                                                replace=False))
                 for _ in range(n)]
        golds = [set(int(c) for c in rng.choice(k, size=rng.integers(1, k + 1),
                                                replace=False))
                 for _ in range(n)]
    return kind, k, preds, golds


class TestAgainstBruteForce:
    def test_thousand_random_instances_exact(self):
        for _ in range(1000):
            kind, k, preds, golds = random_task(RNG)
            labels = [f"c{i}" for i in range(k)]
            got = evaluate_predictions(indicator(preds, k),
                                       indicator(golds, k), labels)
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


class TestHandWorked:
    def test_prf_pinned_counts(self):
        # TP=8, FP=2, FN=4
        p, r, f1, zd = prf(8, 2, 4)
        assert p == 0.8
        assert abs(r - 0.6667) < 5e-5
        assert abs(f1 - 0.7273) < 5e-5
        assert zd == 0

    def test_zero_division_scores_zero_and_counts(self):
        p, r, f1, zd = prf(0, 0, 0)
        assert (p, r, f1) == (0.0, 0.0, 0.0)
        assert zd == 3

    def test_perfect_predictions(self):
        decisions = indicator([0, 1, 2] * 4, 3)
        bundle = evaluate_predictions(decisions, decisions, ["a", "b", "c"])
        assert bundle.macro.f1 == 1.0
        assert bundle.micro.f1 == 1.0
        assert bundle.accuracy == 1.0
        assert bundle.zero_division_count == 0

    def test_constant_predictor_on_balanced_binary(self):
        # always class 0 on a 50/50 split: class 0 F1 = 2/3, class 1 F1 = 0
        preds = [0] * 10
        golds = [0] * 5 + [1] * 5
        bundle = evaluate_predictions(indicator(preds, 2),
                                      indicator(golds, 2), ["neg", "pos"])
        assert abs(bundle.macro.f1 - 1.0 / 3.0) < 1e-12

    def test_single_class_never_predicted_flagged(self):
        bundle = evaluate_predictions(indicator([0, 0], 2),
                                      indicator([0, 1], 2), ["a", "b"])
        assert bundle.zero_division_count > 0
        assert bundle.per_class["b"].f1 == 0.0


class TestInvariants:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    def test_example_order_invariance(self, pairs, rnd):
        labels = ["w", "x", "y", "z"]
        preds = indicator([p for p, _ in pairs], 4)
        golds = indicator([g for _, g in pairs], 4)
        base = evaluate_predictions(preds, golds, labels).to_dict(ndigits=12)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        shuffled = evaluate_predictions(preds[order], golds[order],
                                        labels).to_dict(ndigits=12)
        assert base == shuffled

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            evaluate_predictions(indicator([0, 1], 2), indicator([0], 2),
                                 ["a", "b"])

    def test_width_other_than_label_count_raises(self):
        with pytest.raises(ShapeError):
            evaluate_predictions(indicator([0, 1], 3), indicator([0, 1], 3),
                                 ["a", "b"])
