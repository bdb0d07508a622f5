"""The artifacts of the byte-identity runs match the committed manifest
(see byte_identity.py, which also rewrites it)."""

import json

import pytest

from byte_identity import MANIFEST, generate


def test_artifacts_match_the_manifest(tmp_path, threads_started,
                                      pools_made):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = generate(tmp_path)
    # the runs reach what they are there to cover: the ablation's pool of
    # two, a forked worker for the multilabel test evaluation and for the
    # two-worker export, and the wide run's second threads
    assert pools_made == [2, 1, 1]
    assert threads_started
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
