"""Invariants of the package as a whole.

Bare ``assert`` statements vanish under -O, so every correctness check in
``cmforge`` is an explicit ``raise``, and a ``python -O`` run checks that
the checks still fire.  No module keeps a top-level import it never reads
(no linter runs in CI, so this test stands in for one), no function keeps
a parameter its body never reads, and no public definition is reached by
tests alone.  Every console script declared in pyproject.toml must point
at a function that exists, and so must every callable that the benchmark
tracer in perfbench/spans.py wraps.
"""

import ast
import importlib
import importlib.util
import os
import re
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


BENCHMARK_SOURCES = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# Public top-level definitions that no library path and no benchmark
# reaches, and why each stays.
ALLOWED = {
    "reflex_norm_closed_form": "oracle: tests compare reflex_norm with norm ∘ restriction",
    "embed_under_all": "oracle: tests embed the reflex determinant to compare realize_on_point",
    "reflex_determinant_oracle": "oracle: tests compare the realized reflex norm with it",
    "lemmacomp_check": "oracle: norm ∘ restriction factors through the reflex field",
    "gsp_realization": "oracle: tests compare CMContext.realize with this rational path",
    "time_evolution": "ROADMAP item 10, KMS states at finite temperature",
    "symmetry_action": "ROADMAP item 2, the symmetry check of property_v_vi_report",
    "eisenstein_value": "ROADMAP item 2, g2 and g3 for the level-m oracle",
    "character_map_report": "ROADMAP item 7, a report the command line should print",
    "delta_units": "the unit of the convolution",
}


def _references(node):
    """Names a node refers to: identifiers, attribute names, imported names
    and the entries of an ``__all__`` list.  No other string counts, so a
    name that only a docstring mentions is not referred to."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            found.update(elt.value for elt in sub.value.elts)
    return found


def _public_definitions():
    """(module, name, referred to from outside its own body) of every public
    top-level def or class of cmforge."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    referrers = {}
    for module, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            for name in _references(stmt):
                referrers.setdefault(name, set()).add((module, index))
    return [
        (module, stmt.name, bool(referrers.get(stmt.name, set()) - {(module, index)}))
        for module, tree in trees.items()
        for index, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    ]


def _benchmark_names():
    """Every identifier in the benchmark's code or strings, so the layer
    tables of perfbench/spans.py count."""
    names = set()
    for path in BENCHMARK_SOURCES:
        tree = ast.parse(path.read_text())
        names |= _references(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return names


def test_every_public_definition_is_reached():
    """A public top-level def or class of cmforge must be referred to by
    other library code, be named by the benchmark, or be on ALLOWED with
    its reason; code that only tests reach fails here.  Every allowed name
    must still exist and still need its exemption."""
    assert BENCHMARK_SOURCES
    definitions = _public_definitions()
    bench = _benchmark_names()
    reached = {name for _, name, in_library in definitions if in_library or name in bench}
    unreached = sorted(
        "%s.%s" % (module, name)
        for module, name, _ in definitions
        if name not in reached and name not in ALLOWED
    )
    assert not unreached, "reached by tests alone: " + ", ".join(unreached)
    defined = {name for _, name, _ in definitions}
    assert not set(ALLOWED) - defined, "allowed but gone: %s" % sorted(set(ALLOWED) - defined)
    assert not set(ALLOWED) & reached, "allowed but reached: %s" % sorted(set(ALLOWED) & reached)


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
