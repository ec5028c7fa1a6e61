"""Scripted scenarios: parse, run, report.

A scenario is declarative JSON: named, with an ordered list of client
commands at non-decreasing logical times from 0, plus optional expectations
evaluated on honest nodes after the run. A command takes exactly `atTime`,
`actor` and `action`. An action's `type` names a row of `_ACTIONS`, and an
expectation's `kind` a row of `_EXPECTATIONS`: the keys it requires and
the only others it takes. `parse_scenario` parses each key through
`_PARSE`. Actors are indices into the key provider's active range, and
recipient and address parameters take an actor index or a 20-byte 0x-hex
address; `run_scenario` resolves each index before the run. Anything else
(a missing or unknown key, a value of the wrong type or outside its set,
an index out of range) is a malformed scenario, exit 2 before `--out` is
created or any event runs.

Command actions:
    deploy | addRecipient | removeRecipient | registerBankAccount |
    addFunds | sendAllowance        -> signed transactions (model.PAYLOAD_KINDS)
    getBalance                      -> node-local read on every honest node
    injectFault                     -> {node: validator index, behavior}
    setGstNow                       -> stabilize the network now

Artifacts written by run_scenario: chain.jsonl, events.jsonl,
state.json, report.json, consensus_trace.jsonl, network_trace.jsonl.
Exit codes: 0 all expectations hold, 2 unusable config or scenario,
3 expectation failure, 4 internal invariant violation.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import contract
from .config import INT_FIELDS, GenesisConfig, active_keys
from .crypto import KeyPair
from .errors import InternalInvariantViolation, MalformedScenario
from .model import (
    AMOUNT_MAX, KIND_BY_NAME, Address, Amount, ErrorCode, Hash256, TxStatus,
    _json_document, _json_object, block_to_json, event_to_json, hx, unhx,
)
from .netsim import Behavior, ByzantineSpec
from .simulation import DEFAULT_HORIZON, Simulation

# each action's required and optional parameters besides "type"
_ACTIONS = {**{name: (kind.fields, ()) for name, kind in KIND_BY_NAME.items()},
            "getBalance": ((), ("address",)), "injectFault": (("node", "behavior"), ()),
            "setGstNow": ((), ())}
# each expectation kind's required and optional keys besides "kind"
_EXPECTATIONS = {"orgBalance": (("value",), ()), "balance": (("address", "value"), ()),
                 "minFinalizedHeight": (("value",), ()), "noFinalization": ((), ()),
                 "events": (("value",), ()),
                 "receiptStatus": (("command", "status"), ("error",)),
                 "queryResult": (("command", "value"), ()), "safety": ((), ("value",)),
                 "convergedState": ((), ())}


def _value(noun: str, test: Callable[[object], bool],
           convert: Callable = lambda v: v) -> Callable[[object, str], object]:
    """The parse of a JSON value that passes `test`, given as `convert(value)`."""
    def parse(value: object, what: str) -> object:
        if not test(value):
            raise MalformedScenario(f"{what} must be {noun}, got {value!r}")
        return convert(value)
    return parse


def _named(members: type[enum.Enum], null: bool = False) -> Callable[[object, str], object]:
    """The parse of a member's JSON name, or also of null if `null`."""
    by_name = {m.value: m for m in members} | ({None: None} if null else {})
    return _value(f"a {members.__name__} name" + " or null" * null,
                  lambda v: (v is None or type(v) is str) and v in by_name, by_name.get)


_INT = _value("a JSON integer", lambda v: type(v) is int)  # a bool is not one
_STR = _value("a JSON string", lambda v: type(v) is str)
_TARGET = _value("an actor index or a 20-byte 0x-hex address", lambda v: type(v) is int
                 or type(v) is str and re.fullmatch("0x[0-9a-fA-F]{40}", v) is not None,
                 lambda v: v if type(v) is int else Address(unhx(v)))
_AMOUNT = _value("a u128 JSON integer", lambda v: type(v) is int and 0 <= v <= AMOUNT_MAX,
                 Amount)
# The parse of each command parameter and expectation key, by name; that
# of an expectation's "value" by "<kind>.value".
_PARSE = {"recipient": _TARGET, "address": _TARGET, "amt": _AMOUNT, "amount": _AMOUNT,
          "account": _value("a JSON string with a UTF-8 encoding",  # no lone surrogate
                            lambda v: type(v) is str and not any(
                                "\ud800" <= c <= "\udfff" for c in v)),
          "node": _INT, "behavior": _named(Behavior), "command": _INT,
          "status": _named(TxStatus), "error": _named(ErrorCode, null=True),
          "orgBalance.value": _INT, "balance.value": _INT, "minFinalizedHeight.value": _INT,
          "events.value": _value("a list of JSON objects", lambda v: type(v) is list
                                 and all(type(w) is dict for w in v)),
          "queryResult.value": _STR,
          "safety.value": _value("a JSON bool", lambda v: type(v) is bool)}


@dataclass(frozen=True)
class Command:
    at_time: int
    actor: int
    action: str
    params: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    commands: tuple[Command, ...]
    expectations: tuple[tuple[str, dict], ...]  # (kind, its parsed keys)
    horizon: int


def _parse_entry(obj: object, head: str, table: dict, where: str) -> tuple[str, dict]:
    """The row of `table` that `obj[head]` names, and `obj`'s other keys parsed."""
    name = obj.get(head) if isinstance(obj, dict) else None
    if not isinstance(name, str) or name not in table:
        raise MalformedScenario(f"{where}: unknown {head} {name!r}")
    required, optional = table[name]
    where = f"{where}: {name}"
    _json_object(obj, (head, *required), optional, where, MalformedScenario)
    return name, {key: (_PARSE.get(f"{name}.{key}") or _PARSE[key])(value, f"{where}: {key}")
                  for key, value in obj.items() if key != head}


def parse_scenario(data: bytes) -> Scenario:
    obj = _json_object(_json_document(data, "scenario", MalformedScenario),
                       ("name", "commands"), ("expectations", "horizon"), "scenario",
                       MalformedScenario)
    name = _STR(obj["name"], "name")
    if not isinstance(obj["commands"], list):
        raise MalformedScenario("commands must be a list")
    commands = []
    last_time = 0
    for i, raw in enumerate(obj["commands"]):
        _json_object(raw, ("atTime", "actor", "action"), (), f"command {i}",
                     MalformedScenario)
        action, params = _parse_entry(raw["action"], "type", _ACTIONS, f"command {i}")
        at_time = _INT(raw["atTime"], f"command {i}: atTime")
        if at_time < last_time:  # times start at 0 and never decrease
            raise MalformedScenario(f"command {i}: atTime must be >= {last_time}")
        last_time = at_time
        commands.append(Command(at_time, _INT(raw["actor"], f"command {i}: actor"),
                                action, params))

    horizon = _INT(obj.get("horizon", DEFAULT_HORIZON), "horizon")
    if horizon < 0:
        raise MalformedScenario("horizon must be >= 0")
    expectations = obj.get("expectations", [])
    if not isinstance(expectations, list):
        raise MalformedScenario("expectations must be a list")
    return Scenario(name, tuple(commands), tuple(
        _parse_entry(exp, "kind", _EXPECTATIONS, f"expectation {i}")
        for i, exp in enumerate(expectations)), horizon)


def _pick(items: Sequence, index: object, what: str) -> object:
    """`items[index]` for an index, which must be in range; an address as it is."""
    if type(index) is not int:
        return index
    if not 0 <= index < len(items):
        raise MalformedScenario(f"{what} {index} out of range")
    return items[index]


def _schedule(sim: Simulation, index: int, command: Command, key: KeyPair,
              params: dict) -> None:
    if command.action in KIND_BY_NAME:
        kind = KIND_BY_NAME[command.action]
        payload = kind.cls(*[params[n] for n in kind.fields])
        sim.schedule_tx(command.at_time, key, payload, label=index)
    elif command.action == "getBalance":
        sim.schedule_query(command.at_time, params.get("address", key.address), label=index)
    elif command.action == "injectFault":
        sim.schedule_fault(command.at_time, ByzantineSpec(params["node"], params["behavior"]))
    else:
        sim.schedule_set_gst(command.at_time)


def _evaluate_expectations(sim: Simulation,
                           expectations: list[tuple[str, dict]]) -> list[dict]:
    ref = sim.reference_node()
    state = ref.chain.head_ledger.contract
    honest = sim.honest_addresses()
    heights = [sim.finalized_height(a) for a in honest]  # empty if every node is faulty

    def evaluate(kind: str, exp: dict) -> tuple[bool, str]:
        if kind == "orgBalance":
            got = int(state.balances.get(state.organization, 0))
            return got == exp["value"], f"organization balance {got}"
        if kind == "balance":
            got = int(state.balances.get(exp["address"], 0))
            return got == exp["value"], f"balance[{hx(exp['address'])}] = {got}"
        if kind == "minFinalizedHeight":
            got = min(heights, default=0)
            return got >= exp["value"], f"min honest height {got}"
        if kind == "noFinalization":
            got = max(heights, default=0)
            return got == 0, f"max honest height {got}"
        if kind == "events":
            got = [event_to_json(event) for *_, event in ref.chain.events()]
            return len(got) == len(exp["value"]) and all(
                all(g.get(k) == v for k, v in w.items())
                for g, w in zip(got, exp["value"])), f"{len(got)} events"
        if kind == "receiptStatus":
            record = next((s for s in sim.submissions if s["label"] == exp["command"]), None)
            if record is None:
                return False, "no submission for command"
            receipt = ref.chain.receipts.get(Hash256(unhx(record["txHash"])))
            if receipt is None:
                return False, "transaction never finalized"
            error = receipt.error  # an absent "error" expects whatever it is
            return (receipt.status is exp["status"] and exp.get("error", error) is error,
                    f"status {receipt.status.value} error {error.value if error else None}")
        if kind == "queryResult":
            record = next((q for q in sim.queries if q["label"] == exp["command"]), None)
            if record is None:
                return False, "no query for command"
            values = {v["value"] for v in record["values"]}
            return values == {exp["value"]}, f"values {sorted(values)}"
        if kind == "safety":
            got = sim.safety_violation is None
            return got == exp.get("value", True), f"safe={got}"
        # convergedState: honest heads may differ by in-flight heartbeat
        # blocks at the cutoff instant, but their contract state must
        # agree, as must every block up to the common finalized height
        roots = {sim.nodes[a].chain.head.state_root for a in honest}
        common = min(heights, default=0)
        prefix_ok = all(
            sim.nodes[a].chain.blocks[h].state_root ==
            sim.nodes[honest[0]].chain.blocks[h].state_root
            for a in honest for h in range(common + 1))
        return (len(roots) == 1 and prefix_ok,
                f"head roots {len(roots)}, common height {common}")

    results = []
    for index, (kind, exp) in enumerate(expectations):
        ok, detail = evaluate(kind, exp)
        results.append({"index": index, "kind": kind, "ok": ok, "detail": detail})
    return results


def build_report(sim: Simulation, scenario: Scenario,
                 expectation_results: list[dict]) -> dict:
    genesis = sim.genesis
    honest = sim.honest_addresses()
    conservation = {hx(a): sim.conservation_ok(a) for a in sim.config.validators}
    return {
        "scenario": scenario.name,
        "config": {
            **{name: getattr(genesis, attr) for name, attr, _ in INT_FIELDS},
            "validators": [hx(a) for a in sim.config.validators],
            "preGstLossProb": genesis.pre_gst_loss_prob,
            "seed": sim.seed,  # the run's seed, which --seed may override
            "horizon": scenario.horizon,
        },
        "finalizedHeight": {hx(a): sim.finalized_height(a)
                            for a in sim.config.validators},
        "stateRoots": {hx(a): hx(sim.nodes[a].chain.head.state_root)
                       for a in sim.config.validators},
        "honest": [hx(a) for a in honest],
        "safety": sim.safety_violation is None,
        "safetyViolation": sim.safety_violation,
        "conservation": conservation,
        "submissions": sim.submissions,
        "queries": sim.queries,
        "expectations": expectation_results,
    }


def run_scenario(genesis: GenesisConfig, scenario: Scenario, *,
                 seed: Optional[int] = None,
                 out_dir: Optional[Path] = None) -> tuple[int, dict]:
    """Execute a scenario and write artifacts; returns (exit code, report)."""
    keys = active_keys(genesis.key_provider)
    sim = Simulation(genesis, seed=seed, horizon=scenario.horizon)
    # what an index stands for, by the name of the parameter that holds it
    addresses = [key.address for key in keys]
    indexed = {"recipient": addresses, "address": addresses, "node": sim.config.validators}

    def resolve(params: dict, where: str) -> dict:
        return {k: _pick(indexed[k], v, f"{where}: {k}") if k in indexed else v
                for k, v in params.items()}

    expectations = [(kind, resolve(exp, f"expectation {i}: {kind}"))
                    for i, (kind, exp) in enumerate(scenario.expectations)]
    for index, command in enumerate(scenario.commands):
        where = f"command {index}"
        _schedule(sim, index, command, _pick(keys, command.actor, f"{where}: actor"),
                  resolve(command.params, f"{where}: {command.action}"))
    if out_dir is not None:  # an unusable out_dir fails before the run, not after it
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        sim.run()
    except InternalInvariantViolation as exc:
        report = {"scenario": scenario.name, "internalError": str(exc)}
        if out_dir is not None:
            (out_dir / "report.json").write_bytes(_dump_json(report))
        return 4, report

    expectation_results = _evaluate_expectations(sim, expectations)
    report = build_report(sim, scenario, expectation_results)

    invariant_broken = (sim.safety_violation is not None
                        or not all(report["conservation"].values()))
    expectations_failed = not all(r["ok"] for r in expectation_results)
    exit_code = 4 if invariant_broken else (3 if expectations_failed else 0)
    report["exitCode"] = exit_code

    if out_dir is not None:
        _write_artifacts(sim, report, out_dir)
    return exit_code, report


def _dump_json(obj: dict) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_jsonl(path: Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_artifacts(sim: Simulation, report: dict, out_dir: Path) -> None:
    ref = sim.reference_node()
    _write_jsonl(out_dir / "chain.jsonl", map(block_to_json, ref.chain.blocks))
    _write_jsonl(out_dir / "events.jsonl", (
        {"height": height, "txIndex": tx_index, "emissionIndex": emission_index,
         **event_to_json(event)}
        for height, tx_index, emission_index, event in ref.chain.events()))
    state = ref.chain.head_ledger.contract
    (out_dir / "state.json").write_bytes(_dump_json(contract.state_to_json(state)))
    (out_dir / "report.json").write_bytes(_dump_json(report))
    _write_jsonl(out_dir / "consensus_trace.jsonl", sim.traces.consensus)
    _write_jsonl(out_dir / "network_trace.jsonl", sim.traces.network)
