"""Under the "stop" gradient policy, `sa_only` trains stream one as
`baseline` does with Adam's epsilon doubled, bit for bit.

Stream one's only loss in `sa_only` is (1 - 0)/2 * ce_f: the tap reaches
the copy detached and the contrastive weight is 0.  Halving a gradient
is exact in binary floating point, and Adam's m_hat / (sqrt(v_hat) + eps)
is scale-invariant except through eps, so halving every gradient is
doubling eps.  The ablation's +SA row therefore moves the kept model only
through Adam's epsilon.  Under "flow" the copy's loss reaches stream one
through the injected tap, and the identity breaks.
"""

import json

import numpy as np
import pytest

from selfaug import training
from selfaug.config import ExperimentConfig
from selfaug.harness import run_training
from selfaug.model import load_checkpoint

from byte_identity import desk, multilabel, wide


def mean_pooled_multilabel(out):
    """`multilabel` with mean pooling and dropout: at the default workers,
    its test evaluation takes two processes."""
    payload = multilabel(out)
    payload["model"]["dropout_rate"] = 0.1
    payload["dual"]["pooling"] = "mean"
    payload["train"].update(max_epochs=2, patience=2)
    return payload


CASES = {
    "desk": lambda out: desk(out, model={"dropout_rate": 0.1}),
    "multilabel-mean": mean_pooled_multilabel,
    "side-by-side": wide,
}


def sa_only_and_baseline(tmp_path, monkeypatch, payload_of, workers):
    """(sa_only's, then baseline's at twice ADAM_EPS) checkpoint arrays
    and metrics.json, each run from the payload `payload_of` makes."""
    found = []
    for mode, eps in (("sa_only", training.ADAM_EPS),
                      ("baseline", 2 * training.ADAM_EPS)):
        monkeypatch.setattr(training, "ADAM_EPS", eps)
        out = tmp_path / mode
        payload = payload_of(out)
        payload["train"]["mode"] = mode
        run_training(ExperimentConfig.from_dict(payload), workers)
        _, arrays = load_checkpoint(out / "checkpoint.bin")
        found.append((arrays, json.loads((out / "metrics.json").read_text(
            encoding="utf-8"))))
    return found


@pytest.mark.parametrize("workers", [1, None], ids=["workers1", "default"])
@pytest.mark.parametrize("case", CASES)
def test_sa_only_is_baseline_at_twice_eps(tmp_path, monkeypatch, case,
                                          workers):
    (sa_arrays, sa_metrics), (base_arrays, base_metrics) = \
        sa_only_and_baseline(tmp_path, monkeypatch, CASES[case], workers)
    assert sa_arrays.keys() == base_arrays.keys()
    unequal = [name for name in sa_arrays
               if sa_arrays[name].tobytes() != base_arrays[name].tobytes()]
    assert unequal == []
    assert (sa_metrics.pop("mode"), base_metrics.pop("mode")) == \
        ("sa_only", "baseline")
    assert sa_metrics == base_metrics


def test_flow_breaks_the_identity(tmp_path, monkeypatch):
    def flowing(out):
        return desk(out, model={"dropout_rate": 0.1},
                    dual={"augment_gradient": "flow"})

    (sa_arrays, _), (base_arrays, _) = sa_only_and_baseline(
        tmp_path, monkeypatch, flowing, 1)
    assert not any(np.array_equal(sa_arrays[name], base_arrays[name])
                   for name in sa_arrays)
