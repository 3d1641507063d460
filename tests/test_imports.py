"""Tooling gates on ``src/nashnet``: no module imports a name it never
uses, and every top-level function and class is named outside its own body
by the package, a demo or ``perfbench/``; what only tests use belongs in
``tests/canonical_reference.py``. These are stdlib ``ast`` scans, as the
project depends on no linter. ``__future__`` imports and the package
``__init__`` (whose imports are its public re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nashnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REACHED_ANYWAY = {"save_scenario"}  # the documented round trip with load_scenario


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # `mod.attr` is an ast.Name at its root, so attribute uses count too
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import (b, c as d)\nd()\n") == ["b (line 1)"]


def names_used(tree) -> set:
    """Names `tree` reads: ``name``, ``mod.name`` and ``from mod import name``."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)})


def unreached(modules: dict, outside: set) -> list:
    """Top-level functions and classes of `modules` (name -> source) that no
    module names outside their own body and `outside` does not name."""
    trees = {name: ast.parse(source).body for name, source in modules.items()}
    used = {(name, i): names_used(node) for name, body in trees.items()
            for i, node in enumerate(body)}
    found = []
    for name, body in trees.items():
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                seen = outside.union(*(u for key, u in used.items() if key != (name, i)))
                if node.name not in seen:
                    found.append(f"{name}: {node.name}")
    return found


def test_every_definition_is_reached():
    outside = set(REACHED_ANYWAY)
    for path in [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        outside |= names_used(ast.parse(path.read_text(encoding="utf-8")))
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreached(modules, outside) == []


def test_scan_finds_an_unreached_definition():
    modules = {"a": "def used():\n    pass\n\ndef dead():\n    dead()\n\nclass Kept:\n    pass\n",
               "b": "from a import used\nprint(Kept)\n"}
    assert unreached(modules, set()) == ["a: dead"]
    assert unreached(modules, {"dead"}) == []
