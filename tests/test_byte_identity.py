"""The artifacts of the byte-identity runs match the committed manifest
(see byte_identity.py, which also rewrites it)."""

import json

import pytest

from byte_identity import MANIFEST, generate
from selfaug import harness


def test_artifacts_match_the_manifest(tmp_path, monkeypatch,
                                      threads_started, pools_made):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    export, exports = harness.export_embeddings, {}

    def counted(checkpoint, split, layer, out_csv, workers=None):
        before = len(threads_started)
        export(checkpoint, split, layer, out_csv, workers)
        exports[out_csv.parent.name] = len(threads_started) - before

    monkeypatch.setattr(harness, "export_embeddings", counted)
    got = generate(tmp_path)
    # the runs reach what they are there to cover: the ablation's pool of
    # two, a forked worker for the multilabel test evaluation and for the
    # two-worker export, the wide runs' second threads, and one for each
    # export of the wide export run
    assert pools_made == [2, 1, 1]
    assert threads_started
    assert exports == {"export-workers1": 0, "export-workers2": 0,
                       "export-pooled_final-workers1": 1,
                       "export-pooled_final-workers2": 1,
                       "export-pooled_final-workersNone": 1,
                       "export-tapped-workersNone": 1}
    env = {key: (want["environment"].get(key), value)
           for key, value in got["environment"].items()
           if want["environment"].get(key) != value}
    if env:
        pytest.fail("the manifest was made in another environment, so its "
                    "digests cannot be compared (manifest, here): "
                    + "; ".join(f"{key} {pair}" for key, pair in env.items()))
    differ = sorted(name for name in want["digests"].keys()
                    | got["digests"].keys()
                    if want["digests"].get(name) != got["digests"].get(name))
    assert differ == [], f"not as in {MANIFEST.name}: {differ}"
    assert got["digests"]["export-workers1/embeddings.csv"] == \
        got["digests"]["export-workers2/embeddings.csv"]
    assert len({got["digests"][f"export-pooled_final-workers{workers}/"
                               "embeddings.csv"]
                for workers in (1, 2, None)}) == 1
