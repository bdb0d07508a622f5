"""Corpus handling: JSONL loading, tokenization, vocabulary, batching,
deterministic splits, and a seeded synthetic corpus generator.

Three task kinds flow through the same types: binary and multiclass examples
carry exactly one label, multilabel examples carry one or more.  A split is
tokenized once into a `Batch` of all its rows, and every batch is rows of
it, padded to its longest row; its rows' lengths alone say where the padding
starts.  Everything that shuffles or samples takes an explicit seed and is
reproducible bit for bit.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .schema import Schema
from .seeding import rng_for

TASK_KINDS = ("binary", "multiclass", "multilabel")

PAD, UNK, CLS = 0, 1, 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<cls>")

# what a template's {kw} is formatted with when the spec is checked
TEMPLATE_SENTINEL = "\x00kw\x00"

# the export's batch size and the most sequences evaluation merges into
# one batch (see `merged`): the forward's time per row at desk's width
# stops falling at about 128 rows (41 us a row in batches of 16, 30 us
# at 64 and 128, 31-39 us from 256 to 2,048)
EXPORT_BATCH_SIZE = 128

_TOKEN_RE = re.compile(r"\w+|[^\w\s]+", re.UNICODE)


@dataclass(frozen=True)
class Example:
    id: str
    text: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class LabelSpace(Schema):
    task_kind: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.task_kind!r}")
        for label in self.labels:
            # the export joins a row's labels with "|"
            if "|" in label:
                raise ConfigError(f"label {label!r} contains '|'")
        if len(self.labels) != len(set(self.labels)):
            raise ConfigError("label space contains duplicate labels")
        if self.task_kind == "binary" and len(self.labels) != 2:
            raise ConfigError("binary task needs exactly 2 labels, "
                              f"got {len(self.labels)}")
        if len(self.labels) < 2:
            raise ConfigError("label space needs at least 2 labels")

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DataError(f"label {label!r} not in label space") from None

    @property
    def single_label(self) -> bool:
        return self.task_kind in ("binary", "multiclass")


def tokenize(text: str) -> list[str]:
    """Lowercase, then split on whitespace; punctuation runs become their
    own tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token/id mapping with three reserved ids: PAD=0, UNK=1, CLS=2."""

    def __init__(self, content_tokens: Sequence[str]) -> None:
        self.id_to_token: list[str] = [*RESERVED_TOKENS, *content_tokens]
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)


def build_vocab(examples: Sequence[Example], min_freq: int = 1,
                max_size: int | None = None) -> Vocabulary:
    """Frequency-sorted vocabulary over the tokenized texts.

    Tokens below `min_freq` are dropped; ties break lexicographically so the
    result is independent of corpus order.  `max_size` caps the total size
    including the three reserved ids.
    """
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")
    if max_size is not None and max_size < len(RESERVED_TOKENS) + 1:
        raise ConfigError(f"max_size must leave room for at least one "
                          f"content token, got {max_size}")
    counts: Counter[str] = Counter()
    for ex in examples:
        counts.update(tokenize(ex.text))
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    if max_size is not None:
        kept = kept[:max_size - len(RESERVED_TOKENS)]
    return Vocabulary(kept)


def encode(text: str, vocab: Vocabulary, max_seq_len: int) -> list[int]:
    """[CLS] + token ids, truncated to max_seq_len: the real ids alone,
    whose count is the row's length."""
    if max_seq_len < 2:
        raise ConfigError(f"max_seq_len must be >= 2, got {max_seq_len}")
    token_id = vocab.token_to_id.get
    return [CLS, *[token_id(t, UNK) for t in tokenize(text)]][:max_seq_len]


# ---------------------------------------------------------------------------
# dataset files


def read_text(path: str | Path, what: str,
              error: type[ValueError]) -> str:
    """The UTF-8 text of the file at `path`.  A file that is missing,
    unreadable (a directory, say) or not UTF-8 raises `error`, naming the
    file as `what` and `path`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} {path} does not exist") from None
    except OSError as err:
        raise error(f"cannot read {what} {path}: "
                    f"{err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise error(f"{what} {path} is not UTF-8 text: byte {err.start} "
                    f"does not decode") from None


def parse_json(text: str | bytes, where: str,
               error: type[ValueError]) -> Any:
    """The value of the JSON `text`, UTF-8 if it is bytes.  Text that is
    not JSON, or that nests too deeply to parse, raises `error` naming
    `where`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes)
                          else text)
    except RecursionError:
        raise error(f"{where} nests too deeply to parse") from None
    except ValueError as err:
        raise error(f"{where} is not valid JSON: {err}") from None


def load_label_space(path: str | Path) -> LabelSpace:
    raw = parse_json(read_text(path, "label space", DataError),
                     f"label space {path}", DataError)
    try:
        return LabelSpace.from_dict(raw)
    except ConfigError as err:
        raise DataError(f"label space {path}: {err}") from None


def load_jsonl(path: str | Path, label_space: LabelSpace) -> list[Example]:
    """One JSON object per line with fields id, text (a string), labels.

    Errors carry the 1-based line number; labels are validated against the
    label space; duplicate ids, a label listed twice and label counts
    inconsistent with the task kind are rejected.
    """
    text = read_text(path, "dataset file", DataError)
    examples: list[Example] = []
    seen: set[str] = set()
    # read_text turned every line break into "\n", as a file iteration does
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        raw = parse_json(line, f"{path}:{lineno}: the line", DataError)
        if not isinstance(raw, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        for key in ("id", "text", "labels"):
            if key not in raw:
                raise DataError(f"{path}:{lineno}: missing field {key!r}")
        if not isinstance(raw["text"], str):
            raise DataError(f"{path}:{lineno}: 'text' must be a string")
        # str() would turn any JSON value into an id, null into "None"
        if isinstance(raw["id"], bool) \
                or not isinstance(raw["id"], (str, int)):
            raise DataError(f"{path}:{lineno}: 'id' must be a string "
                            f"or an integer")
        labels = raw["labels"]
        if not isinstance(labels, list) or not labels:
            raise DataError(f"{path}:{lineno}: 'labels' must be a "
                            f"non-empty list")
        for i, label in enumerate(labels):
            if label not in label_space.labels:
                raise DataError(f"{path}:{lineno}: unknown label "
                                f"{label!r}")
            if label in labels[:i]:
                raise DataError(f"{path}:{lineno}: label {label!r} is "
                                f"listed twice")
        if label_space.single_label and len(labels) != 1:
            raise DataError(f"{path}:{lineno}: {label_space.task_kind} "
                            f"task requires exactly one label, "
                            f"got {len(labels)}")
        ex_id = str(raw["id"])
        if ex_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ex_id!r}")
        seen.add(ex_id)
        examples.append(Example(id=ex_id, text=raw["text"],
                                labels=tuple(labels)))
    return examples


def write_jsonl(path: str | Path, examples: Sequence[Example]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"id": ex.id, "text": ex.text,
                                 "labels": list(ex.labels)},
                                sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# splits


@dataclass
class Splits:
    train: list[Example]
    val: list[Example]
    test: list[Example]
    stratified: bool


@dataclass
class Folds:
    folds: list[list[Example]]
    stratified: bool


def _largest_remainder(total: int, ratios: Sequence[float]) -> list[int]:
    quotas = [total * r for r in ratios]
    sizes = [int(q) for q in quotas]
    remainders = sorted(range(len(ratios)),
                        key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in remainders[:total - sum(sizes)]:
        sizes[i] += 1
    return sizes


def _by_class(examples: Sequence[Example]) -> dict[str, list[Example]]:
    # first label is the stratification key for multilabel examples
    groups: dict[str, list[Example]] = {}
    for ex in examples:
        groups.setdefault(ex.labels[0], []).append(ex)
    return dict(sorted(groups.items()))


def make_splits(examples: Sequence[Example], ratios: Sequence[float],
                seed: int) -> Splits:
    """Deterministic train/val/test partition with exact largest-remainder
    sizes, stratified by (first) label when every class has at least as many
    members as there are parts; otherwise unstratified with a warning flag.
    """
    if len(ratios) != 3:
        raise ConfigError(f"expected 3 split ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be non-negative and sum to 1, "
                          f"got {list(ratios)}")
    if not examples:
        raise ConfigError("cannot split an empty example list")
    rng = rng_for(seed, "split")
    targets = _largest_remainder(len(examples), ratios)
    groups = _by_class(examples)
    stratified = all(len(g) >= 3 for g in groups.values())
    parts: list[list[Example]] = [[], [], []]
    if not stratified:
        order = rng.permutation(len(examples))
        shuffled = [examples[i] for i in order]
        start = 0
        for part, size in zip(parts, targets):
            part.extend(shuffled[start:start + size])
            start += size
        return Splits(*parts, stratified=False)
    # per-class largest-remainder quotas, then a global fix-up so the part
    # sizes land exactly on the targets
    quotas: dict[str, list[int]] = {}
    for label, members in groups.items():
        quotas[label] = _largest_remainder(len(members), ratios)
    totals = [sum(q[i] for q in quotas.values()) for i in range(3)]
    while totals != targets:
        over = next(i for i in range(3) if totals[i] > targets[i])
        under = next(i for i in range(3) if totals[i] < targets[i])
        donor = max(quotas, key=lambda lbl: quotas[lbl][over])
        quotas[donor][over] -= 1
        quotas[donor][under] += 1
        totals[over] -= 1
        totals[under] += 1
    for label, members in groups.items():
        order = rng.permutation(len(members))
        shuffled = [members[i] for i in order]
        start = 0
        for part, size in zip(parts, quotas[label]):
            part.extend(shuffled[start:start + size])
            start += size
    return Splits(*parts, stratified=True)


def k_folds(examples: Sequence[Example], k: int, seed: int) -> Folds:
    """k disjoint folds covering the input exactly once, stratified when
    every class has >= k members (per-class round-robin dealing)."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if len(examples) < k:
        raise ConfigError(f"cannot make {k} folds from {len(examples)} "
                          f"examples")
    rng = rng_for(seed, "folds")
    folds: list[list[Example]] = [[] for _ in range(k)]
    groups = _by_class(examples)
    stratified = all(len(g) >= k for g in groups.values())
    if stratified:
        for members in groups.values():
            order = rng.permutation(len(members))
            for i, j in enumerate(order):
                folds[i % k].append(members[j])
    else:
        order = rng.permutation(len(examples))
        for i, j in enumerate(order):
            folds[i % k].append(examples[j])
    return Folds(folds=folds, stratified=stratified)


# ---------------------------------------------------------------------------
# batching


@dataclass(frozen=True)
class RowLayout:
    """Where a batch's real tokens sit in its padded [batch, width] grid.

    Sequence b holds `lengths[b]` real tokens, [CLS] first, and then
    padding.  The encoder carries the real tokens alone, as [n, d] rows
    packed in row-major order: sequence 0's tokens, then sequence 1's.
    Row i is token `positions[i]` of sequence `sequences[i]`, at flat
    grid position `slots[i]` (sequence * width + position); sequence b's
    rows run from `starts[b]`, its [CLS] row, for `lengths[b]` rows.
    `of` alone builds and checks them; the ops that take a layout trust
    them.
    """

    lengths: np.ndarray
    width: int
    slots: np.ndarray
    positions: np.ndarray
    sequences: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, lengths: np.ndarray, width: int) -> RowLayout:
        """The layout of sequences of `lengths` real tokens, each padded
        to `width`; every length must lie in [1, width]."""
        lengths = np.asarray(lengths)
        if lengths.ndim != 1 or not lengths.size:
            raise ShapeError(f"sequence lengths must be a non-empty 1-D "
                             f"array, got shape {lengths.shape}")
        if lengths.min() < 1 or lengths.max() > width:
            raise ShapeError(f"sequence lengths must lie in [1, {width}], "
                             f"got {lengths.min()} to {lengths.max()}")
        ends = np.cumsum(lengths)
        starts = ends - lengths
        sequences = np.repeat(np.arange(len(lengths)), lengths)
        positions = np.arange(ends[-1]) - starts[sequences]
        return cls(lengths=lengths, width=width,
                   slots=sequences * width + positions, positions=positions,
                   sequences=sequences, starts=starts)


@dataclass
class Batch:
    """Rows of a tokenized split, the whole split included: `encode`
    ids, PAD after each row's length (CLS included) up to the longest
    row (at least 2 columns), those lengths, the targets and the example
    ids.  `encode_split` makes a split in corpus order, and `rows` cuts
    a batch from it."""

    token_ids: np.ndarray  # int64 [batch, width], PAD after each length
    lengths: np.ndarray    # int64 [batch], real tokens per row
    targets: np.ndarray    # int64 [batch] or float64 [batch, k]
    ids: list[str]

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, index: slice | np.ndarray,
             width: int | None = None) -> Batch:
        """The rows at `index`, in its order, cut to `width` columns
        (every column by default).  A slice's rows are views of these,
        an index array's a copy."""
        ids = self.ids[index] if isinstance(index, slice) \
            else [self.ids[i] for i in index]
        return Batch(token_ids=self.token_ids[index, :width],
                     lengths=self.lengths[index],
                     targets=self.targets[index], ids=ids)

    @cached_property
    def layout(self) -> RowLayout:
        """The row layout of the batch, derived once and shared by every
        forward and pooling of it."""
        return RowLayout.of(self.lengths, self.token_ids.shape[1])


def _targets_for(examples: Sequence[Example],
                 label_space: LabelSpace) -> np.ndarray:
    if label_space.single_label:
        return np.array([label_space.index_of(ex.labels[0])
                         for ex in examples], dtype=np.int64)
    out = np.zeros((len(examples), len(label_space.labels)),
                   dtype=np.float64)
    for row, ex in enumerate(examples):
        for label in ex.labels:
            out[row, label_space.index_of(label)] = 1.0
    return out


def encode_split(examples: Sequence[Example], vocab: Vocabulary,
                 label_space: LabelSpace, max_seq_len: int) -> Batch:
    # the id matrix widens as longer rows turn up, so a split is never
    # held at max_seq_len columns (PAD is 0, the padding np.pad adds)
    token_ids = np.zeros((len(examples), 2), dtype=np.int64)
    lengths = np.zeros(len(examples), dtype=np.int64)
    for i, ex in enumerate(examples):
        # looked up at call time, so a wrapped encode sees every call
        ids = encode(ex.text, vocab, max_seq_len)
        n = lengths[i] = len(ids)
        if n > token_ids.shape[1]:
            token_ids = np.pad(token_ids,
                               ((0, 0), (0, n - token_ids.shape[1])))
        token_ids[i, :n] = ids
    return Batch(token_ids=token_ids, lengths=lengths,
                 targets=_targets_for(examples, label_space),
                 ids=[ex.id for ex in examples])


def batches(split: Batch, batch_size: int, train: bool,
            seed: int = 0) -> Iterator[Batch]:
    """Deterministic batch stream.

    Training mode shuffles under the seed and drops a final partial batch
    (batch statistics in the objective need full batches); eval mode keeps
    the corpus order and the final partial batch.  Each batch is trimmed
    to its longest row (at least 2 columns, which sets dropout's draw
    shape) and carries its rows' lengths.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(split)
    order = rng_for(seed, "shuffle").permutation(n) if train \
        else np.arange(n)
    stop = n - n % batch_size if train else n
    for start in range(0, stop, batch_size):
        rows = order[start:start + batch_size]
        yield split.rows(rows, max(2, int(split.lengths[rows].max())))


def merged(split: Batch, stream: Iterable[Batch],
           most: int) -> Iterator[tuple[int, Batch]]:
    """The eval-mode `stream` that `batches` makes of `split`, with each
    run of consecutive batches of one padded width, up to `most`
    sequences, as one batch, and the row of `split` each batch starts
    at.  Every batch is the split's rows at that width, neither copied
    nor padded again.

    This is the rule every evaluation and export forward keeps: a row's
    values depend on its batch only through the batch's padded width,
    which the attention's sums over the key axis see, and through a batch
    of one sequence, whose CLS-only top layer numpy multiplies as a
    single row, which rounds differently; every other product and sum
    sees one row at a time.  So a batch of one is never merged, and
    every row's bits are those of its own batch's forward.
    """
    start = stop = width = 0
    for batch in stream:
        if stop > start and not (
                stop - start > 1 and len(batch) > 1
                and batch.token_ids.shape[1] == width
                and stop - start + len(batch) <= most):
            yield start, split.rows(slice(start, stop), width)
            start = stop
        if stop == start:  # the batch opens a run
            width = batch.token_ids.shape[1]
        stop += len(batch)
    if stop > start:
        yield start, split.rows(slice(start, stop), width)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SynthSpec(Schema):
    """Recipe for a seeded synthetic corpus.

    Each class owns a keyword list; texts embed a keyword in a literal
    template with probability (1 - ambiguity) and in a figurative template
    with a keyword drawn from a uniformly random class otherwise.  At
    ambiguity 0 a bag-of-keywords rule is a perfect classifier; at ambiguity
    1 the keyword class carries no information about the label.
    """

    task_kind: str
    classes: tuple[str, ...]
    keywords: dict[str, tuple[str, ...]]
    literal_templates: tuple[str, ...]
    figurative_templates: tuple[str, ...]
    ambiguity: float
    count: int

    def __post_init__(self) -> None:
        self.label_space()  # the task kind and the class list
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ConfigError(f"ambiguity must lie in [0, 1], "
                              f"got {self.ambiguity}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        for cls in self.classes:
            if not self.keywords.get(cls):
                raise ConfigError(f"class {cls!r} has an empty keyword list")
        for cls in self.keywords:
            if cls not in self.classes:
                raise ConfigError(f"keywords name {cls!r}, which is not "
                                  f"one of the classes")
        for pool_name, pool in (("literal", self.literal_templates),
                                ("figurative", self.figurative_templates)):
            if not pool:
                raise ConfigError(f"{pool_name} template pool is empty")
            for tpl in pool:
                # a template is formatted as _sentence formats it; the
                # sentinel must come out whole, so "{{kw}}" is refused
                try:
                    embeds = TEMPLATE_SENTINEL in tpl.format(
                        kw=TEMPLATE_SENTINEL)
                except (AttributeError, IndexError, KeyError, ValueError):
                    embeds = False
                if not embeds:
                    raise ConfigError(f"template {tpl!r} must hold a "
                                      f"{{kw}} placeholder, no other field "
                                      f"and no lone brace")

    def label_space(self) -> LabelSpace:
        return LabelSpace(task_kind=self.task_kind, labels=self.classes)


def load_synth_spec(path: str | Path) -> SynthSpec:
    return SynthSpec.from_dict(parse_json(
        read_text(path, "synthetic spec", DataError),
        f"synthetic spec {path}", DataError))


def _sentence(spec: SynthSpec, label: str, rng: np.random.Generator) -> str:
    if rng.random() < spec.ambiguity:
        template = spec.figurative_templates[
            rng.integers(len(spec.figurative_templates))]
        kw_class = spec.classes[rng.integers(len(spec.classes))]
    else:
        template = spec.literal_templates[
            rng.integers(len(spec.literal_templates))]
        kw_class = label
    pool = spec.keywords[kw_class]
    return template.format(kw=pool[rng.integers(len(pool))])


def gen_synthetic(spec: SynthSpec, seed: int) -> list[Example]:
    """Seeded corpus: byte-identical across runs for the same (spec, seed).

    Single-label classes cycle round-robin for balance; multilabel examples
    draw 1-3 distinct classes, each contributing one sentence.
    """
    rng = rng_for(seed, "synth")
    examples: list[Example] = []
    n_classes = len(spec.classes)
    for i in range(spec.count):
        if spec.task_kind == "multilabel":
            n_labels = int(rng.integers(1, min(3, n_classes) + 1))
            chosen = rng.choice(n_classes, size=n_labels, replace=False)
            labels = tuple(spec.classes[int(c)] for c in sorted(chosen))
            text = " . ".join(_sentence(spec, lbl, rng) for lbl in labels)
        else:
            labels = (spec.classes[i % n_classes],)
            text = _sentence(spec, labels[0], rng)
        examples.append(Example(id=f"synth-{i:05d}", text=text, labels=labels))
    return examples
