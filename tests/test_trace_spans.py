"""The benchmark's trace mode wraps ledgersim functions and methods by
name (`perfbench/tracing.py` `SPANS`). A renamed or deleted target would
only surface in the slow benchmark tests, so check here that every entry
still resolves.

The module is compiled from its source rather than imported, so nothing
is written under `perfbench/`.
"""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


SPANS = load_tracing().SPANS


@pytest.mark.parametrize("span, owner, attr", [s[:3] for s in SPANS],
                         ids=[s[0] for s in SPANS])
def test_span_target_resolves(span, owner, attr):
    if isinstance(owner, type):
        # install() replaces owner.__dict__[attr], so an inherited method
        # would not do
        assert attr in owner.__dict__, f"{span}: {owner.__name__}.{attr} is gone"
    else:
        assert hasattr(owner, attr), f"{span}: {owner.__name__}.{attr} is gone"
    assert callable(getattr(owner, attr))
