"""Unit tests for the benchmark's own checkers, on small hand-made cases.

    python3 -m pytest bench/tests -q

They run no workload and need only numpy.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402


def S(*labels: str) -> frozenset:
    return frozenset(labels)


# -- F1 recount --------------------------------------------------------------


def test_macro_f1_single_label_by_hand():
    golds = [S("a"), S("a"), S("b"), S("b")]
    preds = [S("a"), S("b"), S("b"), S("b")]
    # a: tp 1 fp 0 fn 1 -> P 1, R 1/2, F1 2/3
    # b: tp 2 fp 1 fn 0 -> P 2/3, R 1, F1 4/5
    assert checks.macro_f1(golds, preds, ["a", "b"]) == \
        pytest.approx((2 / 3 + 4 / 5) / 2)


def test_macro_f1_multilabel_and_absent_class():
    golds = [S("a", "b"), S("b")]
    preds = [S("a"), S("b", "c")]
    # a: P 1 R 1 -> 1; b: tp 1 fn 1 -> P 1 R 1/2 -> 2/3; c: fp only -> 0
    assert checks.macro_f1(golds, preds, ["a", "b", "c"]) == \
        pytest.approx((1 + 2 / 3 + 0) / 3)


def test_macro_f1_rejects_length_mismatch():
    with pytest.raises(ValueError):
        checks.macro_f1([S("a")], [], ["a"])


# -- constant-predictor floor ------------------------------------------------


def _brute_floor(golds, labels, single_label):
    if single_label:
        candidates = [S(label) for label in labels]
    else:
        candidates = [frozenset(c) for r in range(1, len(labels) + 1)
                      for c in itertools.combinations(labels, r)]
    return max(checks.macro_f1(golds, [c] * len(golds), labels)
               for c in candidates)


@pytest.mark.parametrize("single_label,golds", [
    (True, [S("a")] * 5 + [S("b")] * 2 + [S("c")]),
    (True, [S("a"), S("b")]),
    (False, [S("a", "b"), S("b"), S("c"), S("a", "b", "c"), S("b")]),
    (False, [S("a")] * 3),  # class c never occurs
])
def test_constant_floor_matches_brute_force(single_label, golds):
    labels = ["a", "b", "c"]
    assert checks.constant_floor(golds, labels, single_label) == \
        pytest.approx(_brute_floor(golds, labels, single_label))


def test_beats_floor_flags_a_constant_score():
    golds = [S("a")] * 3 + [S("b")]
    floor = checks.constant_floor(golds, ["a", "b"], True)
    assert checks.check_beats_floor(floor + 0.01, golds, ["a", "b"], True,
                                    "run") == []
    assert checks.check_beats_floor(floor, golds, ["a", "b"], True, "run")


# -- patience replay ---------------------------------------------------------


@pytest.mark.parametrize("scores,patience,max_epochs,expected", [
    # ties never improve: best stays at epoch 2, stop after 2 stale epochs
    ([0.5, 0.6, 0.6, 0.6, 0.9], 2, 10, (2, 4, True)),
    ([0.1, 0.2, 0.3], 3, 3, (3, 3, False)),  # runs out of epochs
    ([0.4, 0.3, 0.2], 1, 5, (1, 2, True)),
    ([0.7, 0.7, 0.7, 0.7], 4, 4, (1, 4, False)),  # patience == max_epochs
])
def test_replay_patience(scores, patience, max_epochs, expected):
    assert checks.replay_patience(scores, patience, max_epochs) == expected


def _write_run(run_dir: Path, scores, metrics):
    run_dir.mkdir()
    with (run_dir / "epochs.jsonl").open("w") as fh:
        for epoch, score in enumerate(scores, start=1):
            fh.write(json.dumps({"epoch": epoch, "val_f1": score}) + "\n")
    (run_dir / "metrics.json").write_text(json.dumps(metrics))


def test_check_patience_accepts_a_consistent_run(tmp_path):
    _write_run(tmp_path / "ok", [0.5, 0.8, 0.7, 0.8],
               {"best_epoch": 2, "epochs_run": 4, "stopped_early": True,
                "best_val_f1": 0.8})
    assert checks.check_patience(tmp_path / "ok", 2, 10) == []


def test_check_patience_flags_a_run_that_stopped_too_soon(tmp_path):
    _write_run(tmp_path / "early", [0.5, 0.8, 0.7],
               {"best_epoch": 2, "epochs_run": 3, "stopped_early": True,
                "best_val_f1": 0.8})
    problems = checks.check_patience(tmp_path / "early", 2, 10)
    assert any("replay" in p for p in problems)


def test_check_patience_flags_a_wrong_best_epoch(tmp_path):
    _write_run(tmp_path / "best", [0.5, 0.8, 0.8, 0.6],
               {"best_epoch": 3, "epochs_run": 4, "stopped_early": True,
                "best_val_f1": 0.8})
    assert checks.check_patience(tmp_path / "best", 2, 10)


# -- loss identity -----------------------------------------------------------


def test_loss_identity_per_mode():
    ce_f, ce_c, lc, alpha = 0.7, 0.9, 3.0, 0.2
    proposed = {"ce_f": ce_f, "ce_c": ce_c, "contrastive": lc,
                "total": round((1 - alpha) / 2 * (ce_f + ce_c)
                               + alpha * lc, 6)}
    sa_only = {"ce_f": ce_f, "ce_c": ce_c, "contrastive": 0.0,
               "total": 0.5 * (ce_f + ce_c)}
    baseline = {"ce_f": ce_f, "ce_c": 0.0, "contrastive": 0.0,
                "total": ce_f}
    assert checks.loss_identity_error(proposed, "proposed", alpha) < 1e-6
    assert checks.loss_identity_error(sa_only, "sa_only", alpha) < 1e-12
    assert checks.loss_identity_error(baseline, "baseline", alpha) < 1e-12
    # a contrastive term in sa_only, or a copy loss in baseline, is wrong
    assert checks.loss_identity_error(dict(sa_only, contrastive=0.1),
                                      "sa_only", alpha) > 0.05
    assert checks.loss_identity_error(dict(baseline, ce_c=0.1),
                                      "baseline", alpha) > 0.05
    assert checks.loss_identity_error(dict(proposed, total=1.0),
                                      "proposed", alpha) > 0.05


# -- PCA coordinates --------------------------------------------------------


def test_pca_mean_error_flags_uncentred_coordinates():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 5)) + 2.0
    pcs = (x - x.mean(axis=0))[:, :2]
    assert checks.pca_mean_error(pcs) < 1e-12
    assert checks.pca_mean_error(pcs + 1.0) > 0.1


# -- byte identity and the CSV reader ----------------------------------------


def test_check_identical_names_the_differing_file():
    same = {"metrics.json": "aa", "checkpoint.bin": "bb"}
    assert checks.check_identical([same, dict(same)], "x") == []
    problems = checks.check_identical(
        [same, dict(same, **{"checkpoint.bin": "cc"})], "x")
    assert len(problems) == 1 and "checkpoint.bin" in problems[0]


def test_read_embeddings_round_trip(tmp_path):
    path = tmp_path / "embeddings.csv"
    path.write_text("id,gold,predicted,e0,e1,pc1,pc2\n"
                    "x1,a|b,a,0.5,1.0,0.25,-0.25\n"
                    "x2,c,c,-0.5,-1.0,-0.25,0.25\n")
    ids, golds, preds, pcs = checks.read_embeddings(path)
    assert ids == ["x1", "x2"]
    assert golds == [S("a", "b"), S("c")] and preds == [S("a"), S("c")]
    assert pcs.tolist() == [[0.25, -0.25], [-0.25, 0.25]]


# -- the metric lists agree with BENCHMARK.json ------------------------------


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "examples_per_s", "peak_rss_mb",
                     "artifact_mb", "test_macro_f1"]
