"""Invariant checks in the library must survive ``python -O``.

Bare ``assert`` statements vanish under -O, so every correctness check in
``cmforge`` is an explicit ``raise``.
"""

import ast
from pathlib import Path

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
