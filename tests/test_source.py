"""Source checks: every name a selfaug module imports is used in it, no
line is wider than 79 characters, only `parallel` starts processes or
reads the CPU count, only `data.parse_json` parses JSON, and importing
the CLI imports no pool machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfaug

MODULES = sorted(Path(selfaug.__file__).parent.glob("*.py"))

# what only parallel.py may import (a module or anything in it) or read
PARALLEL_MODULES = ("concurrent.futures", "multiprocessing", "mmap", "ctypes")
PARALLEL_NAMES = ("os.sched_getaffinity", "os.cpu_count")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; `from
    __future__` imports bind nothing the module reads."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, with the names `__all__` exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in sorted(_imported(tree).items())
              if name not in used]
    assert not unused, f"{path.name} never uses {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_line_is_wider_than_79(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    wide = [f"line {n} ({len(line)})" for n, line in enumerate(lines, 1)
            if len(line) > 79]
    assert not wide, f"{path.name} is too wide at {', '.join(wide)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nfrom typing import Any, Sequence\n"
                     "def f(x: Sequence) -> None:\n    return None\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["Any", "json"]


def _parallel_uses(tree: ast.Module) -> list[str]:
    """Each PARALLEL_MODULES import and PARALLEL_NAMES read in the
    module, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name in PARALLEL_NAMES or
                  any(name == module or name.startswith(module + ".")
                      for module in PARALLEL_MODULES)][:1]
    return found


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name != "parallel.py"],
                         ids=lambda path: path.name)
def test_only_parallel_starts_processes_or_counts_cpus(path):
    used = _parallel_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert not used, f"{path.name} uses {', '.join(used)}; " \
        "threads, processes and per-process settings belong in parallel.py"


def test_the_check_sees_a_second_home():
    tree = ast.parse("import os, threading\nimport mmap as m\n"
                     "from concurrent import futures\n"
                     "from ctypes import CDLL\n"
                     "import multiprocessing.pool\n"
                     "from os import sched_getaffinity, getpid\n"
                     "n = os.cpu_count() or os.getpid()\n")
    assert sorted(_parallel_uses(tree)) == [
        "concurrent.futures (line 3)", "ctypes (line 4)", "mmap (line 2)",
        "multiprocessing.pool (line 5)", "os.cpu_count (line 7)",
        "os.sched_getaffinity (line 6)"]


def _json_parses(tree: ast.Module, parser: str | None = None) -> list[str]:
    """Each read of `json.load` or `json.loads` in the module, with its
    line, outside its top-level function `parser`."""
    exempt = {id(node) for function in tree.body
              if isinstance(function, ast.FunctionDef)
              and function.name == parser for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            names = [f"json.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "json":
            names = [f"json.{node.attr}"]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name in ("json.load", "json.loads")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_parse_json_parses_json(path):
    parser = "parse_json" if path.name == "data.py" else None
    used = _json_parses(ast.parse(path.read_text(encoding="utf-8")), parser)
    assert not used, f"{path.name} uses {', '.join(used)}; JSON input " \
        "goes through data.parse_json, which turns every failure into " \
        "an error naming its file"


def test_the_check_sees_a_second_json_parser():
    tree = ast.parse("import json\nfrom json import dumps, loads\n"
                     "def parse_json(text):\n    return json.loads(text)\n"
                     "def other(fh):\n"
                     "    return json.load(fh), json.dumps(fh)\n")
    assert sorted(_json_parses(tree, "parse_json")) == [
        "json.load (line 6)", "json.loads (line 2)"]
    assert sorted(_json_parses(tree)) == [
        "json.load (line 6)", "json.loads (line 2)", "json.loads (line 4)"]


def test_the_cli_imports_no_pool_machinery():
    # a fresh interpreter: this one has imported them for other tests
    code = ("import sys, selfaug.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(selfaug.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout == "[]\n"
