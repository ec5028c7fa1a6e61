"""A lint for code that only the tests call: every function and class
defined in a `ledgersim` module, and every name that a top-level
assignment in it binds, is named somewhere in `src/`, `demos/` or
`perfbench/` outside its own definition or statement, or the package's
`__init__.py` exports it. Dunder names are exempt, as Python reads them
by protocol.

Names are read with `ast`, not by text search: every `ast.Name` and
attribute name, the names `__init__.py` imports, and the attribute each
entry of `perfbench/tracing.py`'s `SPANS` wraps by its string name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ledgersim"
READERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}


def named(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each `ast.Name` and attribute name in `tree`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def definitions(tree: ast.Module):
    """(node, name) of each function and class in `tree`, and of each name
    bound by a top-level `=` or annotated assignment, tuple targets
    included; the node is the definition or the statement."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                yield from ((stmt, n.id) for n in ast.walk(target)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def unnamed_definitions(tree: ast.Module, elsewhere: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each definition in `tree`, dunders aside, that is
    neither in `elsewhere` nor named in `tree` outside its own definition
    or statement (a recursive call does not count)."""
    found = named(tree)
    unnamed = []
    for node, name in definitions(tree):
        if name.startswith("__") and name.endswith("__") or name in elsewhere:
            continue
        if not any(n == name and not node.lineno <= line <= node.end_lineno
                   for n, line in found):
            unnamed.append((node.lineno, name))
    return unnamed


def exempt() -> set[str]:
    """The names the package's `__init__.py` imports, and so exports, and
    the attributes `SPANS` wraps (`Registry.verify` has no other reader)."""
    names = {alias.asname or alias.name for node in ast.walk(TREES[PACKAGE / "__init__.py"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for stmt in TREES[ROOT / "perfbench" / "tracing.py"].body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in stmt.targets):
            names |= {entry.elts[2].value for entry in stmt.value.elts}
    return names


def test_the_check_finds_a_planted_function():
    source = ("def used():\n    return 1\n\n\ndef planted(n):\n    return planted(n - 1)\n\n\n"
              "class Kept:\n    def __len__(self):\n        return used()\n\n"
              "    def method(self):\n        pass\n")
    assert unnamed_definitions(ast.parse(source), {"Kept", "method"}) == [(5, "planted")]


def test_the_check_finds_a_planted_binding():
    source = ("def _op(x):\n    return x\n\n\n_OPS = {1: _op}\n"
              "one, (two, *rest) = (_wrap(op) for op in _OPS.values())\n"
              "LIMIT: int = 3\n__all__ = []\nused = LIMIT + two\n"
              "seen = 0\nseen = seen + 1\n")
    assert sorted(unnamed_definitions(ast.parse(source), {"used", "_wrap"})) == [
        (6, "one"), (6, "rest")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_named_outside_the_tests(path):
    elsewhere = exempt() | {name for other, tree in TREES.items() if other != path
                            for name, _ in named(tree)}
    assert unnamed_definitions(TREES[path], elsewhere) == []
