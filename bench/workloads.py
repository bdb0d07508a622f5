"""The benchmark's workloads: inputs made from the seed, the timed phase,
and the checks each one runs on what the phase wrote.

Each workload goes through selfaug's public entry points only
(`ExperimentConfig`, `harness.prepare_data`, `harness.run_ablation`,
`harness.run_training`, `harness.export_embeddings`), always looked up on
the module at call time so that a Tracer's wrappers take effect.

desk    the paper's ablation (baseline, +SA, +Proposed) on the bundled
        desk preset under its early stopping: tiny tensors, so Python
        dispatch, the Adam loop and re-tokenization dominate.
wide    one proposed-mode run of a d_model 128, 4-layer, dropout-on model
        on long multilabel posts that fill max_seq_len 64: matmul,
        softmax, layer norm and activation memory dominate.
screen  bulk embedding export of ~20,000 held-out posts from a checkpoint
        trained during set-up: forward-only, so backward, Adam and the
        objective are bypassed.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from selfaug import harness
from selfaug.config import ExperimentConfig

import checks

ROOT = Path(__file__).resolve().parent.parent
DESK_PRESET = ROOT / "src" / "selfaug" / "presets" / "desk_binary.json"
RUN_FILES = ("metrics.json", "config.json", "checkpoint.bin")
ABLATION_MODES = ("baseline", "sa_only", "proposed")

# Social-media filler and symptom words the generated corpora draw from;
# the seed picks the class keywords and the template wording.
FILLER = (
    "today", "again", "really", "so", "tired", "work", "this", "week",
    "my", "the", "and", "still", "cannot", "sleep", "honestly", "why",
    "does", "it", "always", "happen", "before", "weekend", "lol", "ugh",
    "morning", "night", "after", "lunch", "feel", "like", "just",
    "every", "time", "coffee", "meeting", "boss", "home", "late", "bus",
    "phone", "scrolling", "friends", "said", "maybe", "should", "rest",
    "doctor", "tomorrow", "anyone", "else", "same", "thing", "pls", "help",
    "worst", "day", "ever", "kind", "of", "over", "now",
)
SYMPTOMS = (
    "fever", "chills", "cough", "migraine", "aura", "throbbing", "pollen",
    "hives", "sneezing", "wheezing", "inhaler", "tightness", "insomnia",
    "restless", "awake", "nausea", "cramps", "bloating", "rash", "itching",
    "swelling", "dizzy", "vertigo", "fainting",
)
CHATTER = ("meme", "prank", "gossip", "trivia", "playlist", "spoiler")


@dataclass
class Repeat:
    """What one timed repeat produced, as the benchmark recounts it."""

    seconds: float
    examples: int            # training examples stepped, or rows exported
    artifact_bytes: int
    test_macro_f1: float
    epochs_past_best: int
    digests: dict[str, str]
    problems: list[str]


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _digests(run_dir: Path, prefix: str = "") -> dict[str, str]:
    return {prefix + name: checks.file_digest(run_dir / name)
            for name in RUN_FILES}


def _templates(rng: np.random.Generator, count: int, length: int,
               keyword_slots: list[int]) -> list[str]:
    out = []
    for _ in range(count):
        words = [str(w) for w in rng.choice(FILLER, size=length)]
        for slot in keyword_slots:
            words[slot] = "{kw}"
        out.append(" ".join(words))
    return out


def _spec(rng: np.random.Generator, task_kind: str, classes: list[str],
          keywords_per_class: int, count: int, ambiguity: float,
          length: int, keyword_slots: list[int]) -> dict:
    pool = [str(w) for w in rng.permutation(SYMPTOMS)]
    keywords = {c: pool[i * keywords_per_class:(i + 1) * keywords_per_class]
                for i, c in enumerate(classes)}
    if "chatter" in keywords:
        keywords["chatter"] = [str(w) for w in rng.choice(
            CHATTER, size=keywords_per_class, replace=False)]
    return {"task_kind": task_kind, "classes": classes,
            "keywords": keywords,
            "literal_templates": _templates(rng, 4, length, keyword_slots),
            "figurative_templates": _templates(rng, 2, length,
                                               keyword_slots),
            "ambiguity": ambiguity, "count": count}


class Workload:
    name = ""
    jobs = 1  # operations in one timed repeat

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.out = work / self.name
        self.config: ExperimentConfig | None = None
        self.prepared = None

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def setup(self) -> None:
        """Build the config and prepare the data (the timed set-up)."""
        self.config = self.make_config()
        self.prepared = harness.prepare_data(self.config)

    def setup_digests(self) -> dict[str, str]:
        return {}

    def make_config(self) -> ExperimentConfig:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def inspect(self, seconds: float) -> Repeat:
        raise NotImplementedError

    # -- shared checks for training run directories -----------------------

    def _test_golds(self) -> tuple[list[frozenset], list[str], bool]:
        space = self.prepared.label_space
        return ([frozenset(ex.labels) for ex in self.prepared.test],
                list(space.labels), space.single_label)

    def _check_run(self, run_dir: Path, mode: str) -> tuple[list[str], dict]:
        train = self.config.train
        alpha = self.config.dual.alpha if self.config.dual else 0.0
        metrics = json.loads((run_dir / "metrics.json").read_text())
        problems = checks.check_patience(run_dir, train.patience,
                                         train.max_epochs)
        problems += checks.check_loss_identity(run_dir, mode, alpha)
        golds, labels, single = self._test_golds()
        if metrics["test"]["n_examples"] != len(golds):
            problems.append(f"{run_dir.name}: test n_examples "
                            f"{metrics['test']['n_examples']} != "
                            f"{len(golds)}")
        problems += checks.check_beats_floor(
            metrics["test"]["macro"]["f1"], golds, labels, single,
            run_dir.name)
        return problems, metrics

    def _stepped(self, metrics: dict) -> int:
        batch = self.config.train.batch_size
        return metrics["epochs_run"] * (len(self.prepared.train) // batch) \
            * batch


class Desk(Workload):
    name = "desk"
    jobs = len(ABLATION_MODES)

    def make_config(self) -> ExperimentConfig:
        return ExperimentConfig.from_file(DESK_PRESET).with_overrides(
            seed=self.seed, out_dir=str(self.out))

    def run(self) -> None:
        harness.run_ablation(self.config)

    def inspect(self, seconds: float) -> Repeat:
        problems, digests = [], {}
        examples = past_best = 0
        f1 = 0.0
        for mode in ABLATION_MODES:
            run_dir = self.out / mode
            found, metrics = self._check_run(run_dir, mode)
            problems += found
            digests.update(_digests(run_dir, f"{mode}/"))
            examples += self._stepped(metrics)
            past_best += metrics["epochs_run"] - metrics["best_epoch"]
            if mode == "proposed":
                f1 = metrics["test"]["macro"]["f1"]
        return Repeat(seconds=seconds, examples=examples,
                      artifact_bytes=_tree_bytes(self.out),
                      test_macro_f1=f1, epochs_past_best=past_best,
                      digests=digests, problems=problems)


class Wide(Workload):
    name = "wide"
    TRAIN, VAL, TEST = 128, 64, 192

    def make_config(self) -> ExperimentConfig:
        rng = np.random.default_rng([self.seed, 2])
        count = self.TRAIN + self.VAL + self.TEST
        # 22-word sentences with a keyword in every other one of the first
        # 16 words: a three-label post runs past 64 tokens, so batches fill
        # max_seq_len, and truncation keeps every label's keywords.  Dense
        # keywords let two epochs reach a steady test F1.
        spec = _spec(rng, "multilabel",
                     ["flu", "migraine", "allergy", "asthma"], 1, count,
                     0.0, 22, list(range(0, 16, 2)))
        return ExperimentConfig.from_dict({
            "data": {"synth_spec": spec,
                     "ratios": [self.TRAIN / count, self.VAL / count,
                                self.TEST / count]},
            "model": {"d_model": 128, "n_heads": 4, "n_layers": 4,
                      "d_ff": 256, "max_seq_len": 64, "dropout_rate": 0.1},
            "dual": {"tap_layer": 2, "inject_layer": 3, "alpha": 0.2,
                     "projection_dims": [128, 128, 64]},
            "train": {"learning_rate": 3e-3, "max_epochs": 2, "patience": 2,
                      "batch_size": 16, "seed": self.seed,
                      "mode": "proposed"},
            "out_dir": str(self.out)})

    def run(self) -> None:
        harness.run_training(self.config)

    def inspect(self, seconds: float) -> Repeat:
        problems, metrics = self._check_run(self.out, "proposed")
        return Repeat(seconds=seconds, examples=self._stepped(metrics),
                      artifact_bytes=_tree_bytes(self.out),
                      test_macro_f1=metrics["test"]["macro"]["f1"],
                      epochs_past_best=metrics["epochs_run"]
                      - metrics["best_epoch"],
                      digests=_digests(self.out), problems=problems)


class Screen(Workload):
    name = "screen"
    TRAIN, VAL, TEST = 320, 160, 20000

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.model_dir = work / "screen-model"
        self.csv = self.out / "embeddings.csv"

    def make_config(self) -> ExperimentConfig:
        rng = np.random.default_rng([self.seed, 3])
        count = self.TRAIN + self.VAL + self.TEST
        spec = _spec(rng, "multiclass",
                     ["flu", "migraine", "allergy", "chatter"], 3, count,
                     0.2, 8, [int(rng.integers(8))])
        preset = json.loads(DESK_PRESET.read_text(encoding="utf-8"))
        return ExperimentConfig.from_dict({
            "data": {"synth_spec": spec,
                     "ratios": [self.TRAIN / count, self.VAL / count,
                                self.TEST / count]},
            "model": preset["model"], "dual": preset["dual"],
            "train": {**preset["train"], "max_epochs": 8, "patience": 8,
                      "seed": self.seed},
            "out_dir": str(self.model_dir)})

    def setup(self) -> None:
        super().setup()
        shutil.rmtree(self.model_dir, ignore_errors=True)
        harness.run_training(self.config)

    def setup_digests(self) -> dict[str, str]:
        return _digests(self.model_dir)

    def run(self) -> None:
        harness.export_embeddings(self.model_dir / "checkpoint.bin", "test",
                                  "pooled_final", self.csv)

    def inspect(self, seconds: float) -> Repeat:
        ids, golds, preds, pcs = checks.read_embeddings(self.csv)
        labels = list(self.prepared.label_space.labels)
        problems, metrics = self._check_run(self.model_dir, "proposed")
        expected = {ex.id: frozenset(ex.labels) for ex in self.prepared.test}
        if len(ids) != len(expected) or set(ids) != set(expected):
            problems.append(f"embeddings.csv has {len(ids)} rows "
                            f"({len(set(ids))} distinct ids) for "
                            f"{len(expected)} test examples")
        elif any(expected[i] != g for i, g in zip(ids, golds)):
            problems.append("embeddings.csv gold labels differ from the "
                            "corpus")
        f1 = checks.macro_f1(golds, preds, labels)
        if abs(f1 - metrics["test"]["macro"]["f1"]) > checks.ROUNDING:
            problems.append(f"F1 recounted from embeddings.csv ({f1:.6f}) "
                            f"!= metrics.json test F1 "
                            f"{metrics['test']['macro']['f1']}")
        problems += checks.check_beats_floor(f1, golds, labels, True,
                                             "embeddings.csv")
        # pc1/pc2 are not compared with np.linalg.eigh: the exporter's
        # 200 power iterations miss it by more than rounding on seeds where
        # the top two eigenvalues are close (see CHANGES.md)
        mean_err = checks.pca_mean_error(pcs)
        if mean_err > 1e-9:
            problems.append(f"pc1/pc2 are not zero-mean ({mean_err:.1e})")
        return Repeat(seconds=seconds, examples=len(ids),
                      artifact_bytes=_tree_bytes(self.out),
                      test_macro_f1=f1,
                      epochs_past_best=metrics["epochs_run"]
                      - metrics["best_epoch"],
                      digests={"embeddings.csv": checks.file_digest(self.csv)},
                      problems=problems)


WORKLOADS = {w.name: w for w in (Desk, Wide, Screen)}
