"""Invariants of the package as a whole.

Bare ``assert`` statements vanish under -O, so every correctness check in
``cmforge`` is an explicit ``raise``, and a ``python -O`` run checks that
the checks still fire.  No module keeps a top-level import it never reads
(no linter runs in CI, so this test stands in for one), and no function
keeps a parameter its body never reads.  Every console script declared
in pyproject.toml must point at a function that exists, and so must every
callable that the benchmark tracer in perfbench/spans.py wraps.
"""

import ast
import importlib
import importlib.util
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


def _unused_imports(tree):
    """(name, line) of every top-level import whose name is never read."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported.items() if name not in read]


def test_library_has_no_unused_imports():
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in SOURCES
        for name, line in _unused_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def _unread_parameters(tree):
    """(function, line, parameter) of every parameter its body never reads.

    ``self``, ``cls`` and the parameters of dunder methods are skipped:
    their signatures are fixed by the calling protocol.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        read = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        found += [
            (node.name, node.lineno, p.arg)
            for p in params
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return found


def test_library_reads_every_parameter():
    found = [
        "%s:%d %s(%s)" % (path.name, line, name, param)
        for path in SOURCES
        for name, line, param in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert found == []


def test_declared_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    """Every callable the benchmark tracer wraps still exists in cmforge.

    The tracer looks functions up with getattr and methods in their class
    ``__dict__``; a name that no longer resolves would break only the
    traced benchmark runs, so the module is loaded by path and each name
    checked here, without installing the tracer.
    """
    spans = _load_spans()
    for name in spans.MODULES:
        importlib.import_module(f"cmforge.{name}")
    missing = []
    for layer, targets in spans.LAYERS:
        for module, qualname in targets:
            owner = importlib.import_module(f"cmforge.{module}")
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                found = cls is not None and attr in cls.__dict__
            else:
                found = callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{layer}: {module}.{qualname}")
    assert missing == []


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
