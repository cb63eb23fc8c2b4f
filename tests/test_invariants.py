"""Invariants of the package as a whole.

Bare ``assert`` statements vanish under -O, so every correctness check in
``cmforge`` is an explicit ``raise``, and a ``python -O`` run checks that
the checks still fire.  Every console script declared in pyproject.toml
must point at a function that exists.
"""

import ast
import importlib
import os
import subprocess
import sys
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


# The first line fails unless -O stripped it; the checks after it raise
# explicitly.
OPTIMIZED_CHECKS = """
assert False, "run under python -O"
import random
from cmforge.bc import Coefficient, build_params, sample_algebra_element

params = build_params("Q(i)", (3, 0), 10, cap=1)
try:
    params.split_coset(("w0",), (False,) * len(params.places))
except AssertionError as exc:
    if "not saturated" not in str(exc):
        raise
else:
    raise SystemExit("split_coset accepted an unsaturated coset")
f = sample_algebra_element(params, random.Random(3), terms=4)
if f.equals(f.scale(Coefficient.of(2))) or not f.equals(f):
    raise SystemExit("equals is wrong under -O")
print("ok")
"""


def test_checks_survive_optimized_mode():
    src = str(Path(cmforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    run = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"
