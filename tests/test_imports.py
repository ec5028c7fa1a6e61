"""A lint for unused imports, since the runtime and its tests need no
linter: every name that a module-level import binds is read somewhere in
that module. It covers the `ledgersim` modules, the tests and the demos.
The package's `__init__.py` is left out, as its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgersim"
MODULES = [*sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
           *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name a module-level import binds and no
    `ast.Name` in the module reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((stmt.lineno, name))
    return unused


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads as parse\n\nparse('1')\ndumps = 1\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(
    PACKAGE if p.parent == PACKAGE else ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
