"""Every top-level import in the package modules is used.

No linter ships with the project, so this reads each module with ``ast``:
a name bound by a top-level ``import`` or ``from ... import`` must appear
somewhere else in the module. ``__init__.py`` is exempt, as its imports
are the package's re-exports.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "crowdstream"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_finds_an_unused_import():
    source = "from typing import Mapping, Sequence\nimport os\nx: Mapping = os.sep\n"
    assert unused_imports(source) == ["line 1: Sequence"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"model.py", "online.py", "sim.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []
