"""Experiment configuration: one JSON file describing data source, model
size, dual-stream settings, training, and an optional hyperparameter grid.

Parsing is strict (see `schema`): unknown keys and wrongly typed values
anywhere in the file are configuration errors that name their key path, so
typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

from .data import SynthSpec, parse_json, read_text
from .errors import ConfigError
from .model import ModelConfig
from .objective import DualStreamConfig
from .schema import Schema
from .training import TrainConfig

DEFAULT_RATIOS = (0.8, 0.1, 0.1)

DUAL_AXES = ("alpha", "tap_layer", "inject_layer")
GRID_AXES = ("batch_size", *DUAL_AXES)


@dataclass(frozen=True)
class DataConfig(Schema):
    """Exactly one source: an inline synthetic spec, a path to one, a
    single dataset file to be split, or pre-split train/val/test files."""

    synth_spec: SynthSpec | None = None
    synth_spec_path: str | None = None
    dataset_path: str | None = None
    train_path: str | None = None
    val_path: str | None = None
    test_path: str | None = None
    label_space_path: str | None = None
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    min_freq: int = 1
    max_vocab: int | None = None

    def __post_init__(self) -> None:
        sources = [self.synth_spec is not None,
                   self.synth_spec_path is not None,
                   self.dataset_path is not None,
                   self.train_path is not None]
        if sum(sources) != 1:
            raise ConfigError("data needs exactly one source: synth_spec, "
                              "synth_spec_path, dataset_path, or "
                              "train_path/val_path/test_path")
        presplit = self.train_path is not None
        if presplit and (self.val_path is None or self.test_path is None):
            raise ConfigError("pre-split data needs train_path, val_path, "
                              "and test_path together")
        if not presplit and (self.val_path or self.test_path):
            raise ConfigError("val_path/test_path are only valid with "
                              "train_path")
        needs_space = self.dataset_path is not None or presplit
        if needs_space and self.label_space_path is None:
            raise ConfigError("file-based data needs label_space_path")
        if not needs_space and self.label_space_path is not None:
            raise ConfigError("label_space_path is only valid for "
                              "file-based data")
        if len(self.ratios) != 3:
            raise ConfigError("ratios must have three entries")
        if abs(sum(self.ratios) - 1.0) > 1e-9 or min(self.ratios) < 0.0:
            raise ConfigError(f"ratios must be non-negative and sum to 1, "
                              f"got {self.ratios}")
        if self.min_freq < 1:
            raise ConfigError("min_freq must be at least 1")
        if self.max_vocab is not None and self.max_vocab < 4:
            raise ConfigError("max_vocab must leave room for reserved "
                              "tokens plus at least one content token")

    @property
    def presplit(self) -> bool:
        return self.train_path is not None


@dataclass(frozen=True)
class GridSpec(Schema):
    """Value lists per axis; missing axes fall back to the configured
    single value.  Cells enumerate in nested order batch_size, alpha,
    tap_layer, inject_layer, each axis in its listed order."""

    batch_size: tuple[int, ...] = ()
    alpha: tuple[float, ...] = ()
    tap_layer: tuple[int, ...] = ()
    inject_layer: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not any((self.batch_size, self.alpha, self.tap_layer,
                    self.inject_layer)):
            raise ConfigError("grid must list values for at least one of "
                              f"{GRID_AXES}")
        for b in self.batch_size:
            if b < 2:
                raise ConfigError("batch_size values must be >= 2")
        for a in self.alpha:
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"alpha {a} outside [0, 1]")
        for axis in ("tap_layer", "inject_layer"):
            for v in getattr(self, axis):
                if v < 0:
                    raise ConfigError(f"{axis} values must be >= 0")

    def validate_for(self, n_layers: int) -> None:
        for axis in ("tap_layer", "inject_layer"):
            for v in getattr(self, axis):
                if v > n_layers:
                    raise ConfigError(f"grid {axis} {v} exceeds encoder "
                                      f"depth {n_layers}")

    def cells(self, train: TrainConfig,
              dual: DualStreamConfig | None) -> list[dict]:
        """One dict per cell; without a dual section a cell has only
        batch_size."""
        axes = {"batch_size": self.batch_size or (train.batch_size,)}
        if dual is not None:
            for axis in DUAL_AXES:
                axes[axis] = getattr(self, axis) or (getattr(dual, axis),)
        return [dict(zip(axes, values))
                for values in itertools.product(*axes.values())]


@dataclass(frozen=True)
class ExperimentConfig(Schema):
    data: DataConfig
    model: ModelConfig = field(default_factory=ModelConfig)
    dual: DualStreamConfig | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    grid: GridSpec | None = None
    threshold: float = 0.5
    out_dir: str = "runs"
    notes: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        if self.train.mode != "baseline" and self.dual is None:
            raise ConfigError(f"mode {self.train.mode!r} needs a dual "
                              "section")
        if self.dual is not None:
            self.dual.validate_for(self.model.n_layers)
        if self.grid is not None:
            self.grid.validate_for(self.model.n_layers)
            if (self.grid.alpha or self.grid.tap_layer
                    or self.grid.inject_layer) and self.dual is None:
                raise ConfigError("grid over dual-stream axes needs a "
                                  "dual section")

    def with_overrides(self, seed: int | None = None,
                       out_dir: str | None = None,
                       mode: str | None = None) -> "ExperimentConfig":
        train = {k: v for k, v in (("seed", seed), ("mode", mode))
                 if v is not None}
        return replace(self, train=replace(self.train, **train),
                       out_dir=out_dir or self.out_dir)

    def with_cell(self, cell: dict) -> "ExperimentConfig":
        """Apply one grid cell's hyperparameters."""
        dual = self.dual
        if dual is not None:
            dual = replace(dual, **{axis: cell[axis] for axis in DUAL_AXES})
        return replace(
            self, grid=None, dual=dual,
            train=replace(self.train, batch_size=cell["batch_size"]))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(parse_json(
            read_text(path, "config file", ConfigError),
            f"config file {path}", ConfigError))
