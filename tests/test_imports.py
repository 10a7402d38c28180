"""Every import in the package modules is used.

No linter ships with the project, so this reads each module with ``ast``:
a name bound by an ``import`` or ``from ... import`` must appear somewhere
else in its scope, the module for a top-level import and the function for
a local one. ``__init__.py`` is exempt, as its imports are the package's
re-exports.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "crowdstream"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def scope_imports(scope: ast.AST):
    """The import statements of ``scope``, outside any nested function."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            yield from scope_imports(node)


def unused_imports(source: str) -> list[str]:
    unused = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, SCOPES):
            continue
        bound: dict[str, int] = {}
        for node in scope_imports(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [f"line {line}: {name}" for name, line in bound.items() if name not in used]
    return unused


def test_finds_an_unused_import():
    source = "from typing import Mapping, Sequence\nimport os\nx: Mapping = os.sep\n"
    assert unused_imports(source) == ["line 1: Sequence"]


def test_finds_an_unused_local_import():
    # ``sys`` is used only in another function, so not in its own scope
    source = ("import os\n\n\ndef f():\n    import numpy as np\n    import sys\n"
              "    if os.sep:\n        from os import path, sep\n        return path\n\n\n"
              "def g():\n    return sys\n")
    assert unused_imports(source) == ["line 5: np", "line 6: sys", "line 8: sep"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"model.py", "online.py", "sim.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
