"""Precision/recall/F1 from boolean decision matrices.

Predictions and gold labels are both boolean [n, k] indicator matrices
whose column c is labels[c]: a single-label row holds one True, a
multilabel row one or more.  Every (example, class) cell is one decision,
so both task kinds share one counting rule, and the per-class counts are
column sums.  Zero-denominator cases score 0 and are tallied so reports
can flag classes that never appeared.  Macro is the headline average (it
drives early stopping and the report tables); micro and per-class values
are always emitted alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class Scores:
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsBundle:
    per_class: dict[str, Scores]
    macro: Scores
    micro: Scores
    accuracy: float
    n_examples: int
    zero_division_count: int = 0

    def to_dict(self, ndigits: int = 6) -> dict:
        def s(sc: Scores) -> dict:
            return {"precision": round(sc.precision, ndigits),
                    "recall": round(sc.recall, ndigits),
                    "f1": round(sc.f1, ndigits)}
        return {
            "per_class": {k: s(v) for k, v in self.per_class.items()},
            "macro": s(self.macro),
            "micro": s(self.micro),
            "accuracy": round(self.accuracy, ndigits),
            "n_examples": self.n_examples,
            "zero_division_count": self.zero_division_count,
        }


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float, int]:
    """P = TP/(TP+FP), R = TP/(TP+FN), F1 = 2PR/(P+R); zero denominators
    score 0.  Returns (p, r, f1, zero_division_events)."""
    zero_div = 0
    if tp + fp > 0:
        p = tp / (tp + fp)
    else:
        p, zero_div = 0.0, zero_div + 1
    if tp + fn > 0:
        r = tp / (tp + fn)
    else:
        r, zero_div = 0.0, zero_div + 1
    if p + r > 0:
        f1 = 2.0 * p * r / (p + r)
    else:
        f1, zero_div = 0.0, zero_div + 1
    return p, r, f1, zero_div


def evaluate_predictions(predicted: np.ndarray, gold: np.ndarray,
                         labels: list[str]) -> MetricsBundle:
    """Per-class, macro (unweighted mean) and micro (pooled counts) scores
    of `predicted` against `gold`, both boolean [n, len(labels)].

    Accuracy is the exact-match rate: fraction correct for single-label,
    subset accuracy for multilabel.  For single-label tasks the pooled FP
    and FN counts coincide, which makes micro P = R = F1 = accuracy.
    """
    if predicted.ndim != 2 or predicted.shape != gold.shape or \
            predicted.shape[1] != len(labels):
        raise ShapeError(f"predictions {predicted.shape} and gold "
                         f"{gold.shape} must both be [n, {len(labels)}]")
    n = len(predicted)
    # counts as Python ints, so that the scores are Python floats; the
    # macro sums add them one class at a time, in class order
    tps = (predicted & gold).sum(axis=0).tolist()
    fps = (predicted & ~gold).sum(axis=0).tolist()
    fns = (~predicted & gold).sum(axis=0).tolist()
    per_class: dict[str, Scores] = {}
    zero_divisions = 0
    macro_p = macro_r = macro_f1 = 0.0
    for label, tp, fp, fn in zip(labels, tps, fps, fns):
        p, r, f1, zd = prf(tp, fp, fn)
        per_class[label] = Scores(p, r, f1)
        zero_divisions += zd
        macro_p += p
        macro_r += r
        macro_f1 += f1
    k = len(labels)
    macro = Scores(macro_p / k, macro_r / k, macro_f1 / k)
    mp, mr, mf1, zd = prf(sum(tps), sum(fps), sum(fns))
    zero_divisions += zd
    micro = Scores(mp, mr, mf1)
    exact = int((predicted == gold).all(axis=1).sum())
    accuracy = exact / n if n else 0.0
    return MetricsBundle(per_class=per_class, macro=macro, micro=micro,
                         accuracy=accuracy, n_examples=n,
                         zero_division_count=zero_divisions)
