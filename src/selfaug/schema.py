"""Strict, field-driven conversion between the config dataclasses and
JSON-shaped dicts.

Each config section is a dataclass whose fields and type hints are its
schema.  Reading rejects a section that is not an object, unknown and
missing keys, and values of the wrong JSON type, each as a ConfigError that
names the key path (``train.learning_rate: expected a number, got "x"``);
arrays become tuples and integers given for float fields become floats.
Range and consistency checks stay in each class's ``__post_init__``, and
their errors are prefixed with the section's path.  Writing gives the nested
dict with tuples as lists and leaves out fields that are None, empty tuples
or empty strings, so unset optional settings never appear in a snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from typing import Any, get_args, get_origin, get_type_hints

from .errors import ConfigError


def _join(path: str, key: object) -> str:
    return f"{path}.{key}" if path else str(key)


def _expected(path: str, wanted: str, value: Any) -> ConfigError:
    return ConfigError(f"{path or 'top level'}: expected {wanted}, got "
                       f"{json.dumps(value, default=str)}")


def _read(hint: Any, value: Any, path: str) -> Any:
    if get_origin(hint) in (typing.Union, types.UnionType):
        # every union in the schema is `T | None`
        if value is None:
            return None
        hint = next(a for a in get_args(hint) if a is not type(None))
    origin = get_origin(hint)
    if dataclasses.is_dataclass(hint):
        return _read_object(hint, value, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise _expected(path, "an array", value)
        item = get_args(hint)[0]
        return tuple(_read(item, v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise _expected(path, "an object", value)
        item = get_args(hint)[1]
        return {k: _read(item, v, _join(path, k)) for k, v in value.items()}
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _expected(path, "a number", value)
        try:
            number = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise _expected(path, "a finite number", value)
        return number
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _expected(path, "an integer", value)
        return value
    if hint is str:
        if not isinstance(value, str):
            raise _expected(path, "a string", value)
        return value
    raise TypeError(f"{path}: no reader for field type {hint!r}")


def _read_object(cls: type, raw: Any, path: str = "") -> Any:
    """Build dataclass `cls` from the JSON object `raw` found at `path`."""
    if not isinstance(raw, dict):
        raise _expected(path, "an object", raw)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{_join(path, key)}: unknown key")
    for name, f in fields.items():
        if name not in raw and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_join(path, name)}: required key is "
                              "missing")
    hints = get_type_hints(cls)
    kwargs = {key: _read(hints[key], value, _join(path, key))
              for key, value in raw.items()}
    try:
        return cls(**kwargs)
    except ConfigError as err:
        if not path:
            raise
        raise ConfigError(f"{path}: {err}") from err


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return _write_object(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _write_object(obj: Any) -> dict:
    """The JSON-shaped dict of dataclass `obj`, unset fields left out."""
    return {f.name: _plain(value) for f in dataclasses.fields(obj)
            if (value := getattr(obj, f.name)) is not None
            and value != () and value != ""}


class Schema:
    """Base for config dataclasses: `to_dict` and `from_dict` follow the
    declared fields, strictly on read."""

    def to_dict(self) -> dict:
        return _write_object(self)

    @classmethod
    def from_dict(cls, raw: dict, path: str = "") -> Any:
        """Read `raw`; errors name the key path from `path`."""
        return _read_object(cls, raw, path)
