"""Invariants of the package as a whole.

Bare ``assert`` statements vanish under -O, so every correctness check in
``cmforge`` is an explicit ``raise``.  Every console script declared in
pyproject.toml must point at a function that exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

import cmforge

SOURCES = sorted(Path(cmforge.__file__).parent.glob("*.py"))


def test_library_has_no_bare_asserts():
    assert SOURCES
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_declared_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
