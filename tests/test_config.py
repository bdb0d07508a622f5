"""Experiment config parsing: strict key checking, source selection,
grid validation, override plumbing, and the preset round trip."""

import copy
import json
from importlib import resources

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from selfaug.cli import main
from selfaug.config import DataConfig, ExperimentConfig, GridSpec
from selfaug.data import SynthSpec
from selfaug.errors import ConfigError
from selfaug.model import ModelConfig

PRESETS = resources.files("selfaug") / "presets"
CORPUS_SPEC = "synth_binary.json"
ALL_PRESETS = sorted(p.name for p in PRESETS.iterdir()
                     if p.name.endswith(".json"))
EXPERIMENT_PRESETS = [name for name in ALL_PRESETS if name != CORPUS_SPEC]


def synth_data_dict() -> dict:
    return {"synth_spec": {
        "task_kind": "binary",
        "classes": ["a", "b"],
        "keywords": {"a": ["left"], "b": ["right"]},
        "literal_templates": ["go {kw} now"],
        "figurative_templates": ["{kw} in spirit"],
        "ambiguity": 0.0,
        "count": 40,
    }}


def minimal_config_dict() -> dict:
    return {"data": synth_data_dict(),
            "dual": {"tap_layer": 1, "inject_layer": 1, "alpha": 0.2,
                     "projection_dims": [8, 8, 4]}}


class TestDataConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one source"):
            DataConfig()
        with pytest.raises(ConfigError, match="exactly one source"):
            DataConfig.from_dict({**synth_data_dict(),
                                  "dataset_path": "x.jsonl",
                                  "label_space_path": "x.labels.json"})

    def test_presplit_needs_all_three_paths(self):
        with pytest.raises(ConfigError, match="train_path"):
            DataConfig(train_path="a.jsonl", val_path="b.jsonl",
                       label_space_path="s.json")

    def test_file_sources_need_label_space(self):
        with pytest.raises(ConfigError, match="label_space_path"):
            DataConfig(dataset_path="x.jsonl")

    def test_label_space_invalid_for_synth(self):
        with pytest.raises(ConfigError):
            DataConfig.from_dict({**synth_data_dict(),
                                  "label_space_path": "s.json"})

    def test_ratio_validation(self):
        with pytest.raises(ConfigError, match="ratios"):
            DataConfig.from_dict({**synth_data_dict(),
                                  "ratios": [0.5, 0.4, 0.2]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="shuffle"):
            DataConfig.from_dict({**synth_data_dict(), "shuffle": True})


class TestModelSettings:
    """The config's model section, read into a ModelConfig."""

    def test_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=30, n_heads=4)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="dmodel"):
            ModelConfig.from_dict({"dmodel": 32})

    @pytest.mark.parametrize("key, value", [("vocab_size", 100),
                                            ("head_kind", "binary"),
                                            ("n_outputs", 2)])
    def test_data_derived_fields_rejected_by_name(self, tmp_path, key,
                                                  value):
        # the prepared data sizes the encoder, so a config cannot
        out = tmp_path / "run"
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({**minimal_config_dict(),
                                    "model": {key: value},
                                    "out_dir": str(out)}), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(path), "train"])
        assert result.exit_code == 2, result.output
        assert f"model.{key}: unknown key" in result.output
        assert not out.exists()


class TestGridSpec:
    def test_needs_at_least_one_axis(self):
        with pytest.raises(ConfigError):
            GridSpec()

    def test_axis_value_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(batch_size=(1,))
        with pytest.raises(ConfigError):
            GridSpec(alpha=(1.5,))

    def test_depth_validation(self):
        grid = GridSpec(tap_layer=(0, 3))
        grid.validate_for(3)
        with pytest.raises(ConfigError):
            grid.validate_for(2)

    def test_enumeration_order(self):
        cfg = ExperimentConfig.from_dict({
            **minimal_config_dict(),
            "grid": {"batch_size": [16, 32], "alpha": [0.1, 0.2]}})
        cells = cfg.grid.cells(cfg.train, cfg.dual)
        assert [(c["batch_size"], c["alpha"]) for c in cells] == \
            [(16, 0.1), (16, 0.2), (32, 0.1), (32, 0.2)]
        # axes without grid values pin to the configured setting
        assert {c["tap_layer"] for c in cells} == {1}


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        assert cfg.model.d_model == 32
        assert cfg.train.mode == "proposed"
        assert cfg.threshold == 0.5

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="verbose"):
            ExperimentConfig.from_dict({**minimal_config_dict(),
                                        "verbose": True})

    def test_non_baseline_needs_dual(self):
        raw = {"data": synth_data_dict(),
               "train": {"mode": "proposed"}}
        with pytest.raises(ConfigError, match="dual"):
            ExperimentConfig.from_dict(raw)

    def test_baseline_without_dual_is_fine(self):
        raw = {"data": synth_data_dict(),
               "train": {"mode": "baseline"}}
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.dual is None

    def test_dual_depth_checked_against_model(self):
        raw = {**minimal_config_dict(),
               "model": {"n_layers": 2},
               "dual": {"tap_layer": 3, "inject_layer": 0, "alpha": 0.2}}
        with pytest.raises(ConfigError, match="depth"):
            ExperimentConfig.from_dict(raw)

    def test_grid_over_dual_axes_needs_dual(self):
        raw = {"data": synth_data_dict(),
               "train": {"mode": "baseline"},
               "grid": {"alpha": [0.1, 0.2]}}
        with pytest.raises(ConfigError, match="dual"):
            ExperimentConfig.from_dict(raw)

    def test_overrides(self):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        new = cfg.with_overrides(seed=99, out_dir="elsewhere",
                                 mode="baseline")
        assert (new.train.seed, new.out_dir, new.train.mode) == \
            (99, "elsewhere", "baseline")
        assert cfg.train.seed == 0  # original untouched

    def test_with_cell(self):
        cfg = ExperimentConfig.from_dict(minimal_config_dict())
        sub = cfg.with_cell({"batch_size": 4, "alpha": 0.7,
                             "tap_layer": 0, "inject_layer": 2})
        assert sub.train.batch_size == 4
        assert (sub.dual.alpha, sub.dual.tap_layer,
                sub.dual.inject_layer) == (0.7, 0.0, 2)

    def test_roundtrip_through_dict(self):
        raw = {**minimal_config_dict(),
               "grid": {"alpha": [0.1, 0.3]},
               "threshold": 0.4,
               "out_dir": "runs/x",
               "notes": "scratch"}
        cfg = ExperimentConfig.from_dict(raw)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(minimal_config_dict()))
        assert ExperimentConfig.from_file(path).train.seed == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            ExperimentConfig.from_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_file(path)

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError, match="threshold"):
            ExperimentConfig.from_dict({**minimal_config_dict(),
                                        "threshold": 1.0})

    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "learning_rate", True, "expected a number, got true"),
        ("train", "learning_rate", 10 ** 400, "expected a finite number"),
        ("train", "batch_size", 16.0, "expected an integer, got 16.0"),
        ("dual", "pooling", ["cls"], 'expected a string, got ["cls"]'),
    ], ids=["bool", "huge-integer", "float-for-integer", "array-for-string"])
    def test_wrong_types_name_the_key_path(self, section, key, value,
                                           message):
        raw = minimal_config_dict()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value).startswith(f"{section}.{key}: {message}")


def _read_preset(name: str) -> dict:
    return json.loads((PRESETS / name).read_text(encoding="utf-8"))


def _without_nulls(node):
    if isinstance(node, dict):
        return {k: _without_nulls(v) for k, v in node.items()
                if v is not None}
    if isinstance(node, list):
        return [_without_nulls(v) for v in node]
    return node


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_round_trip(name):
    """Writing a loaded preset gives back its file, unset keys left out,
    and reading that again gives an equal config."""
    raw = _read_preset(name)
    cls = SynthSpec if name == CORPUS_SPEC else ExperimentConfig
    config = cls.from_dict(raw)
    assert config.to_dict() == _without_nulls(raw)
    assert cls.from_dict(config.to_dict()) == config


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


def _nodes(node):
    """Every (container, key) pair below `node`, depth first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _nodes(child)


@pytest.mark.parametrize("name", EXPERIMENT_PRESETS)
@given(data=st.data())
def test_mutated_presets_raise_only_config_errors(name, data):
    raw = copy.deepcopy(_read_preset(name))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        parent, key = data.draw(st.sampled_from(list(_nodes(raw))),
                                label="target")
        action = data.draw(st.sampled_from(
            ("swap", "null", "add_key", "delete")), label="action")
        if action == "swap":
            parent[key] = data.draw(JSON_VALUES, label="value")
        elif action == "null":
            parent[key] = None
        elif action == "add_key":
            target = parent if isinstance(parent, dict) else raw
            target[data.draw(st.text(max_size=6), label="new key")] = \
                data.draw(JSON_VALUES, label="new value")
        elif isinstance(parent, dict):
            del parent[key]
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        pass
