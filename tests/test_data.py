"""Text-data tests: file handling, vocabulary, deterministic splits,
batching, and the synthetic corpus oracles (keyword rule, mutual
information)."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from selfaug.data import (CLS, PAD, UNK, Batch, Example, LabelSpace,
                          SynthSpec, Vocabulary, batches, build_vocab, encode,
                          encode_split, gen_synthetic, k_folds, load_jsonl,
                          load_label_space, make_splits, tokenize,
                          write_jsonl)
from selfaug.errors import ConfigError, DataError
from selfaug.seeding import rng_for

BINARY = LabelSpace(task_kind="binary", labels=("ailment", "banter"))


def make_examples(n, labels=("ailment", "banter")):
    return [Example(id=f"e{i}", text=f"text number {i}",
                    labels=(labels[i % len(labels)],))
            for i in range(n)]


def binary_spec(ambiguity=0.0, count=200):
    return SynthSpec(
        task_kind="binary",
        classes=("ailment", "banter"),
        keywords={
            "ailment": ("headache", "fever", "cough", "migraine", "nausea"),
            "banter": ("coffee", "soccer", "garden", "concert", "picnic"),
        },
        literal_templates=(
            "i have had {kw} since monday and it will not ease",
            "dealing with {kw} again today and feeling drained",
            "my {kw} kept me up half the night",
            "woke up with {kw} and stayed home",
        ),
        figurative_templates=(
            "that meeting was a {kw} and a half",
            "this playlist is pure {kw} energy",
            "my inbox is a total {kw} right now",
        ),
        ambiguity=ambiguity,
        count=count,
    )


class TestLoading:
    def test_well_formed_lines_preserve_order(self, tmp_path):
        p = tmp_path / "data.jsonl"
        rows = [{"id": f"r{i}", "text": f"t {i}", "labels": ["ailment"]}
                for i in range(3)]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        examples = load_jsonl(p, BINARY)
        assert [ex.id for ex in examples] == ["r0", "r1", "r2"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "text": "x", "labels": ["banter"]}\n'
                     '{not json}\n')
        with pytest.raises(DataError, match=":2:"):
            load_jsonl(p, BINARY)

    def test_unknown_label_is_named(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "text": "x", "labels": ["mystery"]}\n')
        with pytest.raises(DataError, match="mystery"):
            load_jsonl(p, BINARY)

    def test_duplicate_id_is_named(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        row = '{"id": "dup", "text": "x", "labels": ["banter"]}\n'
        p.write_text(row + row)
        with pytest.raises(DataError, match="dup"):
            load_jsonl(p, BINARY)

    def test_single_label_task_rejects_two_labels(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "text": "x", '
                     '"labels": ["ailment", "banter"]}\n')
        with pytest.raises(DataError, match="exactly one label"):
            load_jsonl(p, BINARY)

    def test_missing_field_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "text": "x"}\n')
        with pytest.raises(DataError, match="labels"):
            load_jsonl(p, BINARY)

    def test_round_trip_write_read(self, tmp_path):
        examples = make_examples(6)
        p = tmp_path / "out.jsonl"
        write_jsonl(p, examples)
        assert load_jsonl(p, BINARY) == examples

    def test_label_space_file(self, tmp_path):
        p = tmp_path / "labels.json"
        p.write_text(json.dumps({"task_kind": "multiclass",
                                 "labels": ["a", "b", "c"]}))
        space = load_label_space(p)
        assert space.labels == ("a", "b", "c")
        assert space.index_of("c") == 2


class TestVocabulary:
    def test_frequency_then_lexicographic(self):
        examples = [Example("a", "hello world hello", ("ailment",))]
        vocab = build_vocab(examples)
        assert vocab.token_to_id["hello"] == 3  # first content id
        assert vocab.token_to_id["world"] == 4
        assert vocab.token_to_id.get("absent", UNK) == UNK

    def test_min_freq_drops_rare_tokens(self):
        examples = [Example("a", "hello world hello", ("ailment",))]
        vocab = build_vocab(examples, min_freq=2)
        assert vocab.token_to_id.get("world", UNK) == UNK
        assert vocab.token_to_id["hello"] == 3

    def test_max_size_caps_including_reserved(self):
        examples = [Example("a", "x y z x y x", ("ailment",))]
        vocab = build_vocab(examples, max_size=4)
        assert len(vocab) == 4
        assert vocab.token_to_id["x"] == 3
        assert vocab.token_to_id.get("y", UNK) == UNK

    def test_ids_are_dense(self):
        vocab = build_vocab(make_examples(10))
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))

    def test_tokenize_splits_punctuation(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_encode_maps_unknown_tokens_to_unk(self):
        vocab = build_vocab([Example("a", "alpha beta gamma", ("ailment",))])
        ids = encode("alpha delta beta", vocab, max_seq_len=8)
        assert ids == [CLS, vocab.token_to_id["alpha"], UNK,
                       vocab.token_to_id["beta"]]


class TestEncode:
    def test_cls_prefix_and_padding(self):
        vocab = build_vocab([Example("a", "hello", ("ailment",))])
        # encode returns the real ids alone; the padding comes with a
        # split's matrix, PAD after each row's length
        ids = encode("hello", vocab, max_seq_len=4)
        assert ids == [CLS, vocab.token_to_id["hello"]]
        split = encode_split([Example("a", "hello", ("ailment",)),
                              Example("b", "hello hello hello", ("ailment",))],
                             vocab, BINARY, max_seq_len=4)
        assert split.lengths.tolist() == [len(ids), 4]
        assert split.token_ids[0].tolist() == [*ids, PAD, PAD]

    def test_truncation(self):
        vocab = build_vocab([Example("a", "a b c d e", ("ailment",))])
        ids = encode("a b c d e", vocab, max_seq_len=3)
        assert len(ids) == 3
        assert ids[0] == CLS


class TestSplits:
    def test_exact_sizes_disjoint_union(self):
        examples = make_examples(10)
        splits = make_splits(examples, (0.8, 0.1, 0.1), seed=7)
        assert (len(splits.train), len(splits.val), len(splits.test)) == (8, 1, 1)
        ids = [ex.id for part in (splits.train, splits.val, splits.test)
               for ex in part]
        assert sorted(ids) == sorted(ex.id for ex in examples)

    def test_deterministic_under_seed(self):
        examples = make_examples(30)
        a = make_splits(examples, (0.6, 0.2, 0.2), seed=3)
        b = make_splits(examples, (0.6, 0.2, 0.2), seed=3)
        assert [e.id for e in a.train] == [e.id for e in b.train]
        c = make_splits(examples, (0.6, 0.2, 0.2), seed=4)
        assert [e.id for e in a.train] != [e.id for e in c.train]

    def test_stratified_when_classes_large_enough(self):
        splits = make_splits(make_examples(40), (0.5, 0.25, 0.25), seed=1)
        assert splits.stratified
        for part in (splits.train, splits.val, splits.test):
            counts = Counter(ex.labels[0] for ex in part)
            assert abs(counts["ailment"] - counts["banter"]) <= 1

    def test_rare_class_falls_back_with_warning(self):
        # 20 of one class, a single member of the other
        examples = [Example(f"m{i}", f"t {i}", ("ailment",)) for i in range(20)]
        examples.append(Example("solo", "only member", ("banter",)))
        splits = make_splits(examples, (0.8, 0.1, 0.1), seed=2)
        assert not splits.stratified
        total = len(splits.train) + len(splits.val) + len(splits.test)
        assert total == 21

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            make_splits(make_examples(10), (0.5, 0.2, 0.2), seed=0)

    def test_partition_property_random_ratios(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            cut = sorted(rng.uniform(0.05, 0.95, 2))
            ratios = (cut[0], cut[1] - cut[0], 1.0 - cut[1])
            examples = make_examples(n)
            splits = make_splits(examples, ratios, seed=int(rng.integers(1e6)))
            ids = [ex.id for part in (splits.train, splits.val, splits.test)
                   for ex in part]
            assert sorted(ids) == sorted(ex.id for ex in examples)


class TestKFolds:
    def test_balanced_partition(self):
        examples = make_examples(10)
        result = k_folds(examples, k=5, seed=9)
        assert [len(f) for f in result.folds] == [2] * 5
        ids = [ex.id for fold in result.folds for ex in fold]
        assert sorted(ids) == sorted(ex.id for ex in examples)
        assert result.stratified

    def test_small_class_unstratified(self):
        examples = [Example(f"m{i}", f"t {i}", ("ailment",)) for i in range(9)]
        examples.append(Example("solo", "x", ("banter",)))
        result = k_folds(examples, k=5, seed=9)
        assert not result.stratified
        assert sum(len(f) for f in result.folds) == 10

    def test_rejects_k_larger_than_corpus(self):
        with pytest.raises(ConfigError):
            k_folds(make_examples(3), k=5, seed=0)


def encoded(examples, vocab, space=BINARY, max_seq_len=8):
    return encode_split(examples, vocab, space, max_seq_len)


class TestBatches:
    def setup_method(self):
        self.examples = make_examples(10)
        self.vocab = build_vocab(self.examples)
        self.split = encoded(self.examples, self.vocab)

    def test_train_drops_partial_batch(self):
        out = list(batches(self.split, batch_size=3, train=True, seed=1))
        assert [len(b) for b in out] == [3, 3, 3]

    def test_eval_keeps_partial_batch_in_order(self):
        out = list(batches(self.split, batch_size=3, train=False))
        assert [len(b) for b in out] == [3, 3, 3, 1]
        assert out[0].ids == ["e0", "e1", "e2"]

    def test_shuffle_deterministic_under_seed(self):
        a = [b.ids for b in batches(self.split, 3, train=True, seed=5)]
        b = [b.ids for b in batches(self.split, 3, train=True, seed=5)]
        assert a == b
        c = [b.ids for b in batches(self.split, 3, train=True, seed=6)]
        assert a != c

    def test_padding_masked_and_width_capped(self):
        examples = [Example("short", "one", ("ailment",)),
                    Example("long", "one two three four", ("banter",))]
        vocab = build_vocab(examples)
        (batch,) = batches(encoded(examples, vocab, max_seq_len=16), 2,
                           train=False)
        assert batch.token_ids.shape[1] == 5  # CLS + 4 tokens
        assert batch.lengths.tolist() == [2, 5]
        np.testing.assert_array_equal(batch.token_ids[0][2:], PAD)

    def test_multilabel_targets_are_indicator_rows(self):
        space = LabelSpace("multilabel", ("a", "b", "c"))
        examples = [Example("x", "t", ("a", "c")), Example("y", "t", ("b",))]
        vocab = build_vocab(examples)
        (batch,) = batches(encoded(examples, vocab, space, 4), 2,
                           train=False)
        np.testing.assert_array_equal(batch.targets,
                                      [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("task_kind", ["binary", "multilabel"])
    def test_equal_to_stacking_encode_per_example(self, train, task_kind):
        # lengths 1 to past max_seq_len: an empty text is CLS alone, and
        # the eval stream's first batch of bare CLS rows comes out 2 wide
        words = "alpha beta gamma delta epsilon zeta eta theta".split()
        space = BINARY if task_kind == "binary" \
            else LabelSpace("multilabel", ("a", "b", "c"))
        label_sets = [(lbl,) for lbl in space.labels] \
            if task_kind == "binary" else [("a",), ("b", "c"), ("a", "c")]
        examples = [Example(f"r{i}", "" if i < 3 else
                            " ".join(words[:i % 10]),
                            label_sets[i % len(label_sets)])
                    for i in range(23)]
        vocab = build_vocab(examples[3:])
        max_seq_len, batch_size, seed = 7, 3, 11
        split = encode_split(examples, vocab, space, max_seq_len)
        order = rng_for(seed, "shuffle").permutation(23)[:21] if train \
            else range(23)
        out = list(batches(split, batch_size, train=train, seed=seed))
        assert [row for b in out for row in b.ids] == \
            [examples[i].id for i in order]
        widths = []
        for batch in out:
            chunk = [next(ex for ex in examples if ex.id == row)
                     for row in batch.ids]
            real = [encode(ex.text, vocab, max_seq_len) for ex in chunk]
            lengths = [len(row) for row in real]
            ids = np.zeros((len(chunk), max_seq_len), dtype=np.int64)
            for row, row_ids in zip(ids, real):
                row[:len(row_ids)] = row_ids  # PAD after each length
            width = max(2, max(lengths))
            widths.append(width)
            assert batch.token_ids.dtype == np.int64
            assert batch.lengths.dtype == np.int64
            np.testing.assert_array_equal(batch.token_ids, ids[:, :width])
            np.testing.assert_array_equal(batch.lengths, lengths)
            if task_kind == "binary":
                want = [space.index_of(ex.labels[0]) for ex in chunk]
            else:
                want = [[float(lbl in ex.labels) for lbl in space.labels]
                        for ex in chunk]
            np.testing.assert_array_equal(batch.targets, want)
            assert batch.targets.dtype == \
                (np.int64 if task_kind == "binary" else np.float64)
        assert min(widths) >= 2 and max(widths) == max_seq_len
        if not train:
            assert widths[0] == 2
        assert split.token_ids.shape == (23, max_seq_len)


@pytest.mark.parametrize("index", [slice(0, 3), np.array([2, 0, 1])],
                         ids=["slice", "index array"])
def test_batch_rows_cut_to_width_in_index_order(index):
    # row i holds CLS and i words: the split is 5 wide, rows 0-2 fit in 3
    space = LabelSpace("multilabel", ("a", "b", "c"))
    examples = [Example(f"r{i}", " ".join(["word"] * i),
                        (space.labels[i % 3],)) for i in range(5)]
    split = encode_split(examples, build_vocab(examples), space, 8)
    order = [0, 1, 2] if isinstance(index, slice) else [2, 0, 1]
    rows = split.rows(index, 3)
    assert isinstance(rows, Batch) and len(rows) == 3
    assert rows.ids == [f"r{i}" for i in order]
    np.testing.assert_array_equal(rows.token_ids, split.token_ids[order, :3])
    np.testing.assert_array_equal(rows.lengths, [i + 1 for i in order])
    np.testing.assert_array_equal(rows.targets, split.targets[order])
    for name in ("token_ids", "lengths", "targets"):
        assert np.shares_memory(getattr(rows, name), getattr(split, name)) \
            == isinstance(index, slice)
    assert split.rows(index).token_ids.shape == (3, 5)  # every column


def keyword_class(text, spec):
    tokens = set(tokenize(text))
    for cls in spec.classes:
        if tokens & set(spec.keywords[cls]):
            return cls
    return None


class TestSynthetic:
    def test_byte_identical_under_seed(self):
        spec = binary_spec()
        assert gen_synthetic(spec, 11) == gen_synthetic(spec, 11)
        assert gen_synthetic(spec, 11) != gen_synthetic(spec, 12)

    def test_keyword_rule_is_perfect_at_zero_ambiguity(self):
        spec = binary_spec(ambiguity=0.0, count=300)
        examples = gen_synthetic(spec, 3)
        for ex in examples:
            assert keyword_class(ex.text, spec) == ex.labels[0]

    def test_keyword_label_mi_vanishes_at_full_ambiguity(self):
        spec = binary_spec(ambiguity=1.0, count=3000)
        examples = gen_synthetic(spec, 3)
        joint = Counter((keyword_class(ex.text, spec), ex.labels[0])
                        for ex in examples)
        n = sum(joint.values())
        px = Counter()
        py = Counter()
        for (x, y), c in joint.items():
            px[x] += c
            py[y] += c
        mi = sum((c / n) * math.log2((c / n) / ((px[x] / n) * (py[y] / n)))
                 for (x, y), c in joint.items())
        assert mi < 0.02  # bits

    def test_classes_balanced(self):
        examples = gen_synthetic(binary_spec(count=100), 1)
        counts = Counter(ex.labels[0] for ex in examples)
        assert counts["ailment"] == counts["banter"] == 50

    def test_multilabel_draws_one_to_three_classes(self):
        spec = SynthSpec(
            task_kind="multilabel",
            classes=("a", "b", "c", "d"),
            keywords={c: (f"kw{c}1", f"kw{c}2") for c in "abcd"},
            literal_templates=("plain mention of {kw} here",),
            figurative_templates=("twisted use of {kw} here",),
            ambiguity=0.0,
            count=120,
        )
        examples = gen_synthetic(spec, 5)
        sizes = {len(ex.labels) for ex in examples}
        assert sizes <= {1, 2, 3} and len(sizes) > 1
        for ex in examples:
            assert len(set(ex.labels)) == len(ex.labels)

    def test_empty_keyword_list_rejected(self):
        with pytest.raises(ConfigError, match="keyword"):
            SynthSpec(task_kind="binary", classes=("a", "b"),
                      keywords={"a": ("x",), "b": ()},
                      literal_templates=("t {kw}",),
                      figurative_templates=("f {kw}",),
                      ambiguity=0.0, count=10)
