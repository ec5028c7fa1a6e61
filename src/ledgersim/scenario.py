"""Scripted scenarios: parse, run, report.

A scenario is declarative JSON: named, with an ordered list of client
commands at non-decreasing logical times, plus optional expectations
evaluated after the run. Actors are indices into the key provider's
active range; recipient and address parameters accept either an actor
index or a 0x-hex address. Amounts and node indices are JSON integers,
and an account is a JSON string. An action takes only its parameters in
`_ACTIONS`. Expectation numbers (value, command) are JSON integers, and a
`queryResult` value is a JSON string, as query results are.

Command actions:
    deploy | addRecipient | removeRecipient | registerBankAccount |
    addFunds | sendAllowance        -> signed transactions (model.PAYLOAD_KINDS)
    getBalance                      -> node-local read on every honest node
    injectFault                     -> {node: validator index, behavior}
    setGstNow                       -> stabilize the network now

Expectation kinds, the keys each requires and the only others it takes
are in `_EXPECTATIONS`; all are evaluated on honest nodes after the run.

Artifacts written by run_scenario: chain.jsonl, events.jsonl,
state.json, report.json, consensus_trace.jsonl, network_trace.jsonl.
Exit codes: 0 all expectations hold, 2 unusable config or scenario,
3 expectation failure, 4 internal invariant violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import contract
from .config import INT_FIELDS, GenesisConfig, active_keys
from .crypto import KeyPair
from .errors import InternalInvariantViolation, MalformedScenario
from .model import (
    KIND_BY_NAME, Address, Amount, Hash256, TxPayload, _json_account, _json_int,
    block_to_json, event_to_json, hx, unhx,
)
from .netsim import Behavior, ByzantineSpec
from .simulation import Simulation

DEFAULT_HORIZON = 2000

_ACTIONS = {**{name: kind.fields for name, kind in KIND_BY_NAME.items()},
            "getBalance": ("address",), "injectFault": ("node", "behavior"),
            "setGstNow": ()}
# each expectation kind's required and optional keys besides "kind"
_EXPECTATIONS = {"orgBalance": (("value",), ()), "balance": (("address", "value"), ()),
                 "minFinalizedHeight": (("value",), ()), "noFinalization": ((), ()),
                 "events": (("value",), ()),
                 "receiptStatus": (("command", "status"), ("error",)),
                 "queryResult": (("command", "value"), ()), "safety": ((), ("value",)),
                 "convergedState": ((), ())}


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
    expectations: tuple[dict, ...]
    horizon: int


def parse_scenario(data: bytes) -> Scenario:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedScenario(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedScenario("scenario must be a JSON object")
    for required in ("name", "commands"):
        if required not in obj:
            raise MalformedScenario(f"missing field {required!r}")
    unknown = set(obj) - {"name", "commands", "expectations", "horizon"}
    if unknown:
        raise MalformedScenario(f"unknown fields {sorted(unknown)}")
    if not isinstance(obj["name"], str):
        raise MalformedScenario("name must be a JSON string")

    if not isinstance(obj["commands"], list):
        raise MalformedScenario("commands must be a list")
    commands = []
    last_time = 0
    for i, raw in enumerate(obj["commands"]):
        if not isinstance(raw, dict):
            raise MalformedScenario(f"command {i} must be an object")
        missing = {"atTime", "actor", "action"} - set(raw)
        if missing:
            raise MalformedScenario(f"command {i}: missing {sorted(missing)}")
        action_obj = raw["action"]
        if not isinstance(action_obj, dict) or "type" not in action_obj:
            raise MalformedScenario(f"command {i}: action must carry a type")
        action = action_obj["type"]
        if not isinstance(action, str) or action not in _ACTIONS:
            raise MalformedScenario(f"command {i}: unknown action {action!r}")
        at_time = _json_int(raw["atTime"], f"command {i}: atTime", MalformedScenario)
        if at_time < last_time:
            raise MalformedScenario("command times must be non-decreasing")
        last_time = at_time
        params = {k: v for k, v in action_obj.items() if k != "type"}
        unknown = set(params) - set(_ACTIONS[action])
        if unknown:
            raise MalformedScenario(
                f"command {i}: unknown {action} parameters {sorted(unknown)}")
        actor = _json_int(raw["actor"], f"command {i}: actor", MalformedScenario)
        commands.append(Command(at_time, actor, action, params))

    horizon = _json_int(obj.get("horizon", DEFAULT_HORIZON), "horizon", MalformedScenario)
    if horizon < 0:
        raise MalformedScenario("horizon must be >= 0")
    expectations = obj.get("expectations", [])
    if not isinstance(expectations, list) or \
            not all(isinstance(exp, dict) for exp in expectations):
        raise MalformedScenario("expectations must be a list of objects")
    for i, exp in enumerate(expectations):
        kind = exp.get("kind")
        if not isinstance(kind, str) or kind not in _EXPECTATIONS:
            raise MalformedScenario(f"expectation {i}: unknown kind {kind!r}")
        required, optional = _EXPECTATIONS[kind]
        unknown = set(exp) - {"kind", *required, *optional}
        if unknown:
            raise MalformedScenario(
                f"expectation {i}: unknown {kind} keys {sorted(unknown)}")
        missing = set(required) - set(exp)
        if missing:
            raise MalformedScenario(
                f"expectation {i}: {kind} missing keys {sorted(missing)}")
    return Scenario(obj["name"], tuple(commands), tuple(expectations), horizon)


class _Runner:
    def __init__(self, genesis: GenesisConfig, scenario: Scenario,
                 seed: Optional[int]) -> None:
        self.genesis = genesis
        self.scenario = scenario
        self.keys = active_keys(genesis.key_provider)
        self.sim = Simulation(genesis, seed=seed, horizon=scenario.horizon)
        amount = lambda v: Amount(_json_int(v))
        self._parse = {"recipient": self._resolve_address, "account": _json_account,
                       "amt": amount, "amount": amount}  # each payload field's parse

    def _resolve_key(self, index: int) -> KeyPair:
        if not 0 <= index < len(self.keys):
            raise MalformedScenario(f"actor index {index} out of range")
        return self.keys[index]

    def _resolve_address(self, value) -> Address:
        if type(value) is int:
            return self._resolve_key(value).address
        if isinstance(value, str):
            return Address(unhx(value))
        raise MalformedScenario(f"cannot resolve address from {value!r}")

    def _payload(self, command: Command) -> TxPayload:
        kind = KIND_BY_NAME[command.action]
        return kind.cls(*[self._parse[n](command.params[n]) for n in kind.fields])

    def schedule_all(self) -> None:
        for index, command in enumerate(self.scenario.commands):
            try:
                self._schedule(index, command)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise MalformedScenario(
                    f"command {index} ({command.action}): bad parameters: {exc!r}"
                ) from None

    def _schedule(self, index: int, command: Command) -> None:
        if command.action in KIND_BY_NAME:
            key = self._resolve_key(command.actor)
            self.sim.schedule_tx(command.at_time, key,
                                 self._payload(command), label=index)
        elif command.action == "getBalance":
            target = command.params.get("address", command.actor)
            self.sim.schedule_query(command.at_time,
                                    self._resolve_address(target),
                                    label=index)
        elif command.action == "injectFault":
            node_index = _json_int(command.params["node"])
            validators = self.sim.config.validators
            if not 0 <= node_index < len(validators):
                raise MalformedScenario(f"fault node {node_index} out of range")
            behavior = Behavior(command.params["behavior"])
            self.sim.schedule_fault(
                command.at_time,
                ByzantineSpec(validators[node_index], behavior))
        else:
            self.sim.schedule_set_gst(command.at_time)

    def run(self) -> None:
        self.schedule_all()
        self.sim.run()


def _evaluate_expectations(runner: _Runner) -> list[dict]:
    sim = runner.sim
    ref = sim.reference_node()
    results = []
    contract_state = ref.chain.head_ledger.contract

    def balance_of(address: Address) -> int:
        return int(contract_state.balances.get(address, 0))

    for index, exp in enumerate(runner.scenario.expectations):
        kind = exp.get("kind")
        ok = False
        detail = ""
        try:
            if kind == "orgBalance":
                got = balance_of(contract_state.organization)
                ok = got == _json_int(exp["value"])
                detail = f"organization balance {got}"
            elif kind == "balance":
                address = runner._resolve_address(exp["address"])
                got = balance_of(address)
                ok = got == _json_int(exp["value"])
                detail = f"balance[{hx(address)}] = {got}"
            elif kind == "minFinalizedHeight":
                got = sim.min_honest_height()
                ok = got >= _json_int(exp["value"])
                detail = f"min honest height {got}"
            elif kind == "noFinalization":
                got = max(sim.finalized_height(a) for a in sim.honest_addresses())
                ok = got == 0
                detail = f"max honest height {got}"
            elif kind == "events":
                got = [event_to_json(event) for *_, event in ref.chain.events()]
                want = exp["value"]
                if not isinstance(want, list) or \
                        not all(isinstance(w, dict) for w in want):
                    raise ValueError("events value must be a list of objects")
                ok = len(got) == len(want) and all(
                    all(g.get(k) == v for k, v in w.items())
                    for g, w in zip(got, want))
                detail = f"{len(got)} events"
            elif kind == "receiptStatus":
                target = _json_int(exp["command"], "command")
                record = next((s for s in sim.submissions
                               if s["label"] == target), None)
                if record is None:
                    detail = "no submission for command"
                else:
                    receipt = ref.chain.receipts.get(
                        Hash256(unhx(record["txHash"])))
                    if receipt is None:
                        detail = "transaction never finalized"
                    else:
                        ok = receipt.status.value == exp["status"]
                        if ok and "error" in exp:
                            got_err = None if receipt.error is None \
                                else receipt.error.value
                            ok = got_err == exp["error"]
                        detail = (f"status {receipt.status.value}"
                                  f" error {receipt.error.value if receipt.error else None}")
            elif kind == "queryResult":
                target = _json_int(exp["command"], "command")
                want = exp["value"]
                if not isinstance(want, str):
                    raise ValueError(f"queryResult value must be a string, got {want!r}")
                record = next((q for q in sim.queries
                               if q["label"] == target), None)
                if record is None:
                    detail = "no query for command"
                else:
                    values = {v["value"] for v in record["values"]}
                    ok = values == {want}
                    detail = f"values {sorted(values)}"
            elif kind == "safety":
                got = sim.safety_violation is None
                want = exp.get("value", True)
                if type(want) is not bool:
                    raise ValueError(f"safety value must be a bool, got {want!r}")
                ok = got == want
                detail = f"safe={got}"
            elif kind == "convergedState":
                # honest heads may differ by in-flight heartbeat blocks at
                # the cutoff instant, but their contract state must agree,
                # as must every block up to the common finalized height
                honest = sim.honest_addresses()
                roots = {sim.nodes[a].chain.head.state_root for a in honest}
                common = min(sim.finalized_height(a) for a in honest)
                prefix_ok = all(
                    sim.nodes[a].chain.blocks[h].state_root ==
                    sim.nodes[honest[0]].chain.blocks[h].state_root
                    for a in honest for h in range(common + 1))
                ok = len(roots) == 1 and prefix_ok
                detail = f"head roots {len(roots)}, common height {common}"
            else:
                detail = f"unknown expectation kind {kind!r}"
        except (KeyError, ValueError, TypeError, MalformedScenario) as exc:
            detail = f"unevaluable: {exc}"
        results.append({"index": index, "kind": kind, "ok": ok, "detail": detail})
    return results


def build_report(runner: _Runner, expectation_results: list[dict]) -> dict:
    sim = runner.sim
    genesis = runner.genesis
    honest = sim.honest_addresses()
    conservation = {hx(a): sim.conservation_ok(a) for a in sim.config.validators}
    report = {
        "scenario": runner.scenario.name,
        "config": {
            **{name: getattr(genesis, attr) for name, attr, _ in INT_FIELDS},
            "validators": [hx(a) for a in sim.config.validators],
            "preGstLossProb": genesis.pre_gst_loss_prob,
            "seed": sim.seed,  # the run's seed, which --seed may override
            "horizon": runner.scenario.horizon,
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
    return report


def run_scenario(genesis: GenesisConfig, scenario: Scenario, *,
                 seed: Optional[int] = None,
                 out_dir: Optional[Path] = None) -> tuple[int, dict]:
    """Execute a scenario and write artifacts; returns (exit code, report)."""
    runner = _Runner(genesis, scenario, seed)
    try:
        runner.run()
    except InternalInvariantViolation as exc:
        report = {"scenario": scenario.name, "internalError": str(exc)}
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.json").write_bytes(_dump_json(report))
        return 4, report

    sim = runner.sim
    expectation_results = _evaluate_expectations(runner)
    report = build_report(runner, expectation_results)

    invariant_broken = (sim.safety_violation is not None
                        or not all(report["conservation"].values()))
    expectations_failed = not all(r["ok"] for r in expectation_results)
    exit_code = 4 if invariant_broken else (3 if expectations_failed else 0)
    report["exitCode"] = exit_code

    if out_dir is not None:
        _write_artifacts(runner, report, out_dir)
    return exit_code, report


def _dump_json(obj: dict) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_artifacts(runner: _Runner, report: dict, out_dir: Path) -> None:
    sim = runner.sim
    ref = sim.reference_node()
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "chain.jsonl", "w", encoding="utf-8") as fh:
        for block in ref.chain.blocks:
            fh.write(json.dumps(block_to_json(block), sort_keys=True) + "\n")

    with open(out_dir / "events.jsonl", "w", encoding="utf-8") as fh:
        for height, tx_index, emission_index, event in ref.chain.events():
            obj = {"height": height, "txIndex": tx_index,
                   "emissionIndex": emission_index}
            obj.update(event_to_json(event))
            fh.write(json.dumps(obj, sort_keys=True) + "\n")

    state = ref.chain.head_ledger.contract
    (out_dir / "state.json").write_bytes(_dump_json(contract.state_to_json(state)))

    (out_dir / "report.json").write_bytes(_dump_json(report))

    with open(out_dir / "consensus_trace.jsonl", "w", encoding="utf-8") as fh:
        for entry in sim.consensus_trace or ():
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    with open(out_dir / "network_trace.jsonl", "w", encoding="utf-8") as fh:
        for entry in sim.net_trace or ():
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
