"""Mutated scenario files and chain dumps: the CLI exits with one of its
documented codes and never raises."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ledgersim import cli
from ledgersim.scenario import DEFAULT_HORIZON

ROOT = Path(__file__).resolve().parent.parent
GENESIS = ROOT / "scenarios" / "genesis_paper.json"
PAPER_FLOW = ROOT / "scenarios" / "paper_flow.json"
EXIT_CODES = {0, 2, 3, 4}

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(min_value=-2**130, max_value=2**130)
    | st.text(max_size=12)
    | st.binary(max_size=33).map(lambda b: "0x" + b.hex()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=5)


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        for key in doc:
            yield from _paths(doc[key], prefix + (key,))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _paths(item, prefix + (i,))


def _mutate(data, doc):
    """One edit of `doc`: replace a value, delete one, or add a key."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if not path:
        return data.draw(json_values)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if kind == "delete":
        del parent[last]
    elif kind == "add" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=8))] = data.draw(json_values)
    else:
        parent[last] = data.draw(json_values)
    return doc


def _garble(data, raw: bytes) -> bytes:
    """Sometimes cut the bytes short or overwrite one byte."""
    kind = data.draw(st.sampled_from(["none", "none", "truncate", "byte"]))
    if kind == "none" or not raw:
        return raw
    at = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]


def _horizon_bounded(doc) -> bool:
    """A longer horizon is a longer run, not a malformed input; keep each
    example's run short."""
    if not isinstance(doc, dict) or "horizon" not in doc:
        return True
    try:
        return int(doc["horizon"]) <= DEFAULT_HORIZON
    except (TypeError, ValueError, OverflowError):
        return True


def _main(*args) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(list(args))
    assert "Traceback" not in out.getvalue()
    return code


@pytest.fixture(scope="module")
def paper_dump(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper_flow")
    assert _main("run", "--genesis", str(GENESIS), "--scenario", str(PAPER_FLOW),
                 "--out", str(out)) == 0
    return (out / "chain.jsonl").read_bytes()


@FUZZ
@given(data=st.data())
def test_a_mutated_scenario_exits_with_a_documented_code(tmp_path, data):
    doc = json.loads(PAPER_FLOW.read_text())
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        doc = _mutate(data, doc)
    assume(_horizon_bounded(doc))
    path = tmp_path / "scenario.json"
    path.write_bytes(_garble(data, json.dumps(doc).encode()))
    code = _main("run", "--genesis", str(GENESIS), "--scenario", str(path),
                 "--out", str(tmp_path / "out"))
    assert code in EXIT_CODES


@FUZZ
@given(data=st.data())
def test_a_mutated_chain_dump_exits_with_a_documented_code(tmp_path, paper_dump, data):
    lines = paper_dump.decode().splitlines()
    wanted = json.loads(lines[2])["txs"][0]["hash"]
    kind = data.draw(st.sampled_from(["edit", "edit", "drop", "copy", "swap"]))
    i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    if kind == "edit":
        doc = json.loads(lines[i])
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            doc = _mutate(data, doc)
        lines[i] = json.dumps(doc)
    elif kind == "drop":
        del lines[i]
    elif kind == "copy":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    path = tmp_path / "chain.jsonl"
    path.write_bytes(_garble(data, ("\n".join(lines) + "\n").encode()))
    assert _main("replay", "--chain", str(path), "--genesis", str(GENESIS)) in EXIT_CODES
    assert _main("receipt", "--chain", str(path), "--genesis", str(GENESIS),
                 "--tx", wanted) in EXIT_CODES
