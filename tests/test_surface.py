"""Every callable the package exports, and every public method or property
of a class the package defines, is used by the package or the benchmark.

A function, class or method that only tests call is surface without a
user: it belongs in ``tests/oracles.py`` (an independent cross-check) or
nowhere.  A name counts as used when it appears as an identifier, outside
comments and strings, in a module of ``src/mwconsensus`` other than
``__init__.py`` (its own ``def``/``class`` line excepted) or in a non-test
script of ``perfbench/``.  And no module imports another module's private
(underscore-prefixed) names, or reads a private attribute of an object other
than ``self`` or ``cls``, so each keeps what it owns.
"""

import ast
import functools
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import mwconsensus

ROOT = Path(__file__).resolve().parents[1]


def _identifiers(path: Path) -> set[str]:
    """NAME tokens of a Python file, except the name a ``def`` or ``class``
    statement defines."""
    found = set()
    defining = False
    text = path.read_text(encoding="utf-8")
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.NAME:
            continue
        if not defining:
            found.add(tok.string)
        defining = tok.string in ("def", "class")
    return found


@functools.cache
def _users() -> set[str]:
    sources = [p for p in (ROOT / "src" / "mwconsensus").glob("*.py")
               if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "perfbench").glob("*.py")
                if not p.name.startswith("test_")]
    return set().union(*map(_identifiers, sources))


EXPORTED = sorted(name for name in mwconsensus.__all__
                  if callable(getattr(mwconsensus, name)))


def test_exports_found():
    assert "MatrixWeightedGraph" in EXPORTED and "run" in EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_used(name):
    assert name in _users(), f"{name} is exported but nothing in the " \
                             "package or the benchmark uses it"


def _public_methods() -> list[str]:
    """``Class.name`` of every public method and property (any ``def`` in a
    class body whose name has no leading underscore) in the package."""
    found = []
    for path in sorted((ROOT / "src" / "mwconsensus").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")]
    return found


METHODS = _public_methods()


def test_methods_found():
    assert "TrajectoryRecord.blocks" in METHODS
    assert "CompiledScenario.control" in METHODS


@pytest.mark.parametrize("method", METHODS)
def test_method_is_used(method):
    assert method.split(".")[1] in _users(), \
        f"{method} is defined but nothing in the package or the benchmark " \
        "uses it"


def test_no_private_names_imported():
    imported = []
    for path in sorted((ROOT / "src" / "mwconsensus").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("mwconsensus")):
                imported += [f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
    assert imported == []


#: Private names of the standard library that the package may read.
STDLIB_PRIVATE = {"os._exit"}


def test_no_private_attributes_read():
    """Dunder names are protocol, not private, and are not counted."""
    read = []
    for path in sorted((ROOT / "src" / "mwconsensus").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.endswith("__")):
                continue
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner not in ("self", "cls") \
                    and f"{owner}.{node.attr}" not in STDLIB_PRIVATE:
                read.append(f"{path.name}:{node.lineno}: "
                            f"{ast.unparse(node)}")
    assert read == []


def test_console_script_resolves():
    """The ``[project.scripts]`` entry names a callable (read with a regex,
    since ``tomllib`` needs Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    module, attr = re.search(r'^mwconsensus\s*=\s*"([\w.]+):(\w+)"$',
                             section, re.M).groups()
    assert (module, attr) == ("mwconsensus.cli", "main")
    assert callable(getattr(importlib.import_module(module), attr))
