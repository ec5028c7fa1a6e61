"""No `ledgersim` module holds an `assert` statement: `python -O` strips
them, and the runtime's invariant checks must still run there. A check
raises an error of its own instead (see `errors.py`)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ledgersim"


def assert_lines(source: str) -> list[int]:
    """The line of each `assert` statement in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_check_finds_an_assert():
    source = "def f(x):\n    assert x, 'x'\n    return x\n\nassert_x = 'assert x'\n"
    assert assert_lines(source) == [2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_asserts(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
