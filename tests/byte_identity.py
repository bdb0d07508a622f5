"""The byte-identity manifest: sha256 digests of the deterministic
artifacts of a fixed set of small runs, and the environment that made them.

The runs cover each path whose bytes a refactor could move: a desk
ablation, a two-cell grid, a three-fold k-fold, a multilabel run whose
2,040-row test split is evaluated in merged forwards over two processes
and exported at its tap layer at one and two workers, a mean-pooled
`flow` run with dropout, a run wide enough that a dual step's streams
run side by side and its evaluation batches on two threads, and a run
of that width whose 512-row test split is exported on two threads, at
both layers and, at `pooled_final`, at one, two and the default workers.

`epochs.jsonl` is hashed without its wall-clock `seconds` and
`config.json` without `out_dir`, the two fields that may differ between
reruns.  The last bits of a GEMM depend on numpy's OpenBLAS, the kernel
its DYNAMIC_ARCH build picks for the CPU, and its thread count, so the
manifest records those too.

After a change that moves bytes on purpose, rewrite the manifest from the
root of a source checkout with

    PYTHONPATH=src python tests/byte_identity.py

and say which digests moved and why.  `test_byte_identity.py` makes the
same runs and compares.
"""

from __future__ import annotations

import copy
import ctypes
import hashlib
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from selfaug import harness
from selfaug.config import ExperimentConfig

MANIFEST = Path(__file__).with_name("byte_identity.json")

DESK = json.loads((resources.files("selfaug") / "presets" /
                   "desk_binary.json").read_text(encoding="utf-8"))

# a post of 41 words: in batches of 32 such posts at d_model 64, a dual
# step and an evaluation batch are worth two threads (see
# parallel.SIDE_BY_SIDE_MIN)
LONG_POST = " ".join(["{kw}"] + ["still", "feeling", "it", "today"] * 10)


def desk(out: Path, *, count: int = 240, epochs: int = 2,
         **sections) -> dict:
    """The desk preset with `count` posts, `epochs` epochs (patience as
    many), and each of `sections` updated into its section."""
    payload = copy.deepcopy(DESK)
    payload["data"]["synth_spec"]["count"] = count
    payload["train"].update(max_epochs=epochs, patience=epochs)
    for name, values in sections.items():
        payload[name].update(values)
    payload["out_dir"] = str(out)
    return payload


def multilabel(out: Path) -> dict:
    """Three-label posts, with a test split of 2,040: two processes'
    worth (see parallel.PROCESS_MIN_ROWS)."""
    payload = desk(out, count=2400, epochs=1,
                   model={"d_model": 16, "n_heads": 2, "d_ff": 32,
                          "max_seq_len": 16})
    payload["data"]["synth_spec"].update(
        task_kind="multilabel", classes=["ailment", "banter", "errand"],
        keywords={"ailment": ["fever", "nausea"],
                  "banter": ["meme", "prank"],
                  "errand": ["laundry", "grocery"]})
    payload["data"]["ratios"] = [0.1, 0.05, 0.85]
    payload["dual"].update(projection_dims=[16, 16, 8])
    return payload


def wide(out: Path) -> dict:
    """Posts of 42 tokens in batches of 32 at d_model 64, with dropout."""
    payload = desk(out, count=192,
                   model={"d_model": 64, "n_heads": 2, "d_ff": 64,
                          "max_seq_len": 64, "dropout_rate": 0.1},
                   train={"batch_size": 32})
    payload["data"]["synth_spec"].update(
        literal_templates=[LONG_POST], figurative_templates=[LONG_POST])
    payload["data"]["ratios"] = [1 / 3, 1 / 3, 1 / 3]
    payload["dual"].update(projection_dims=[32, 32, 16])
    return payload


def wide_export(out: Path) -> dict:
    """`wide` with 640 posts, 512 of them in the test split: four export
    batches of 128 that are worth two threads."""
    payload = wide(out)
    payload["data"]["synth_spec"]["count"] = 640
    payload["data"]["ratios"] = [0.1, 0.1, 0.8]
    payload["train"].update(max_epochs=1, patience=1)
    return payload


def make_runs(root: Path) -> None:
    """Every run of the manifest, each into its own directory of `root`."""
    def config(payload: dict) -> ExperimentConfig:
        return ExperimentConfig.from_dict(payload)

    harness.run_ablation(config(desk(root / "ablate")), workers=2)
    grid = desk(root / "grid")
    grid["grid"] = {"alpha": [0.1, 0.3]}
    harness.run_grid(config(grid), workers=1)
    harness.run_kfold(config(desk(root / "kfold", count=180, epochs=1)), 3,
                      workers=1)
    harness.run_training(config(multilabel(root / "multilabel")), workers=2)
    for workers in (1, 2):
        harness.export_embeddings(
            root / "multilabel" / "checkpoint.bin", "test", "tapped",
            root / f"export-workers{workers}" / "embeddings.csv", workers)
    harness.run_training(config(desk(
        root / "flow", epochs=3, model={"dropout_rate": 0.1},
        dual={"pooling": "mean", "augment_gradient": "flow"})), workers=1)
    harness.run_training(config(wide(root / "wide")), workers=1)
    harness.run_training(config(wide_export(root / "wide-export")))
    for layer, workers in (("pooled_final", 1), ("pooled_final", 2),
                           ("pooled_final", None), ("tapped", None)):
        harness.export_embeddings(
            root / "wide-export" / "checkpoint.bin", "test", layer,
            root / f"export-{layer}-workers{workers}" / "embeddings.csv",
            workers)


def _hashed_bytes(path: Path) -> bytes:
    """A file's bytes, less `seconds` in epochs.jsonl and `out_dir` in
    config.json."""
    data = path.read_bytes()
    if path.name == "epochs.jsonl":
        lines = [{key: value for key, value in json.loads(line).items()
                  if key != "seconds"} for line in data.splitlines()]
        return "".join(json.dumps(line, sort_keys=True) + "\n"
                       for line in lines).encode()
    if path.name == "config.json":
        return b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b'  "out_dir": '))
    return data


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file below `root`, by its path relative to it."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(_hashed_bytes(path)).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def environment() -> dict:
    """numpy's version, and its OpenBLAS's build string, kernel core and
    thread count (None each where numpy bundles no OpenBLAS)."""
    found = {"numpy": np.__version__, "openblas": None,
             "openblas_core": None, "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        for key, name, kind in (
                ("openblas", "scipy_openblas_get_config64_", ctypes.c_char_p),
                ("openblas_core", "scipy_openblas_get_corename64_",
                 ctypes.c_char_p),
                ("blas_threads", "scipy_openblas_get_num_threads64_",
                 ctypes.c_int)):
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], kind
            value = getter()
            found[key] = value.decode() if isinstance(value, bytes) else value
        break
    return found


def generate(root: Path) -> dict:
    """The manifest of runs made into `root`."""
    make_runs(root)
    return {"environment": environment(), "digests": digests(root)}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(manifest['digests'])} digests",
          file=sys.stderr)


if __name__ == "__main__":
    main()
