"""Scenario runner and CLI: exit codes, artifacts, determinism, replay."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ledgersim.cli import main
from ledgersim.config import active_keys, parse_genesis
from ledgersim.errors import MalformedScenario
from ledgersim.replay import replay_chain
from ledgersim.scenario import parse_scenario, run_scenario
from ledgersim.simulation import Simulation

ROOT = Path(__file__).resolve().parent.parent
GENESIS = ROOT / "scenarios" / "genesis_paper.json"
PAPER_FLOW = ROOT / "scenarios" / "paper_flow.json"
EQUIVOCATE = ROOT / "scenarios" / "byzantine_equivocate.json"
SILENT = ROOT / "scenarios" / "silent_majority.json"
# valid JSON, but nested deeper than the decoder's recursion limit
NESTED = "[" * 1000 + "]" * 1000


def cli(*args, env=None):
    full_env = dict(os.environ)
    full_env.pop("SIM_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "ledgersim.cli", *args],
                          capture_output=True, text=True, env=full_env)


class TestScenarioParsing:
    def test_paper_flow_parses(self):
        scenario = parse_scenario(PAPER_FLOW.read_bytes())
        assert scenario.name == "paper-flow"
        assert len(scenario.commands) == 7

    def test_unknown_action_rejected(self):
        bad = {"name": "x", "commands": [
            {"atTime": 0, "actor": 0, "action": {"type": "mint"}}]}
        with pytest.raises(MalformedScenario):
            parse_scenario(json.dumps(bad).encode())

    def test_decreasing_times_rejected(self):
        bad = {"name": "x", "commands": [
            {"atTime": 5, "actor": 0, "action": {"type": "deploy"}},
            {"atTime": 1, "actor": 0, "action": {"type": "deploy"}}]}
        with pytest.raises(MalformedScenario, match=r"^command 1: atTime must be >= 5$"):
            parse_scenario(json.dumps(bad).encode())

    def test_negative_time_rejected(self):
        bad = {"name": "x", "commands": [
            {"atTime": -5, "actor": 0, "action": {"type": "deploy"}}]}
        with pytest.raises(MalformedScenario, match=r"^command 0: atTime must be >= 0$"):
            parse_scenario(json.dumps(bad).encode())


class TestPaperFlow:
    def test_runs_green_with_artifacts(self, tmp_path):
        genesis = parse_genesis(GENESIS.read_bytes())
        scenario = parse_scenario(PAPER_FLOW.read_bytes())
        code, report = run_scenario(genesis, scenario, out_dir=tmp_path)
        assert code == 0, report["expectations"]
        for name in ("chain.jsonl", "events.jsonl", "state.json", "report.json",
                     "consensus_trace.jsonl", "network_trace.jsonl"):
            assert (tmp_path / name).exists()
        state = json.loads((tmp_path / "state.json").read_text())
        org = state["organization"]
        assert state["balances"][org] == "700"
        assert report["config"]["networkId"] == 1337
        assert report["config"]["blockGasLimit"] == 4_500_000
        assert report["config"]["gasPrice"] == 0
        assert len(report["config"]["validators"]) == 4

    def test_events_in_order(self, tmp_path):
        genesis = parse_genesis(GENESIS.read_bytes())
        scenario = parse_scenario(PAPER_FLOW.read_bytes())
        run_scenario(genesis, scenario, out_dir=tmp_path)
        kinds = [json.loads(line)["kind"]
                 for line in (tmp_path / "events.jsonl").read_text().splitlines()]
        assert kinds == ["BankAccountRegistered", "FundsAdded", "AllowanceSent"]

    def test_wrong_expectation_exits_3(self):
        genesis = parse_genesis(GENESIS.read_bytes())
        obj = json.loads(PAPER_FLOW.read_text())
        obj["expectations"] = [{"kind": "orgBalance", "value": 9999}]
        scenario = parse_scenario(json.dumps(obj).encode())
        code, report = run_scenario(genesis, scenario)
        assert code == 3
        assert not report["expectations"][0]["ok"]
        assert report["expectations"][0]["detail"] == "organization balance 700"

    def test_expectations_naming_no_result_fail_with_a_detail(self):
        """receiptStatus for a query or for a transaction sent at the
        horizon, and queryResult for a transaction."""
        genesis = parse_genesis(GENESIS.read_bytes())
        obj = json.loads(PAPER_FLOW.read_text())
        obj["commands"].append(
            {"atTime": 600, "actor": 0, "action": {"type": "addFunds", "amt": 5}})
        obj["expectations"] = [
            {"kind": "receiptStatus", "command": 5, "status": "SUCCESS"},
            {"kind": "receiptStatus", "command": 7, "status": "SUCCESS"},
            {"kind": "queryResult", "command": 0, "value": "0"},
        ]
        code, report = run_scenario(genesis, parse_scenario(json.dumps(obj).encode()))
        assert code == 3
        assert [(r["ok"], r["detail"]) for r in report["expectations"]] == [
            (False, "no submission for command"),
            (False, "transaction never finalized"),
            (False, "no query for command"),
        ]

    def test_expectations_on_a_run_with_no_honest_validator_fail(self):
        """Faulting every validator leaves no honest node: its heights read
        0, `convergedState` fails on no head roots, and the run exits 3,
        not with a traceback."""
        genesis = parse_genesis(GENESIS.read_bytes())
        obj = {"name": "all-faulty", "horizon": 100, "commands": [
            {"atTime": 0, "actor": 0,
             "action": {"type": "injectFault", "node": node, "behavior": "SILENT"}}
            for node in range(4)], "expectations": [
            {"kind": "minFinalizedHeight", "value": 1}, {"kind": "noFinalization"},
            {"kind": "convergedState"}, {"kind": "safety"}]}
        code, report = run_scenario(genesis, parse_scenario(json.dumps(obj).encode()))
        assert code == 3 and report["honest"] == []
        assert [(r["ok"], r["detail"]) for r in report["expectations"]] == [
            (False, "min honest height 0"),
            (True, "max honest height 0"),
            (False, "head roots 0, common height 0"),
            (True, "safe=True"),
        ]

    def test_non_org_allowance_expected_success_exits_3(self):
        genesis = parse_genesis(GENESIS.read_bytes())
        obj = {
            "name": "unauthorized-send",
            "horizon": 500,
            "commands": [
                {"atTime": 0, "actor": 0, "action": {"type": "deploy"}},
                {"atTime": 5, "actor": 0,
                 "action": {"type": "addRecipient", "recipient": 1}},
                {"atTime": 10, "actor": 0, "action": {"type": "addFunds", "amt": 10}},
                {"atTime": 15, "actor": 2,
                 "action": {"type": "sendAllowance", "recipient": 1, "amount": 1}},
            ],
            "expectations": [
                {"kind": "receiptStatus", "command": 3, "status": "SUCCESS"},
            ],
        }
        code, report = run_scenario(genesis, parse_scenario(json.dumps(obj).encode()))
        assert code == 3

    def test_unauthorized_receipt_carries_error(self):
        genesis = parse_genesis(GENESIS.read_bytes())
        obj = {
            "name": "unauthorized-send-observed",
            "horizon": 500,
            "commands": [
                {"atTime": 0, "actor": 0, "action": {"type": "deploy"}},
                {"atTime": 15, "actor": 2,
                 "action": {"type": "sendAllowance", "recipient": 1, "amount": 1}},
            ],
            "expectations": [
                {"kind": "receiptStatus", "command": 1, "status": "FAILED",
                 "error": "Unauthorized"},
            ],
        }
        code, _ = run_scenario(genesis, parse_scenario(json.dumps(obj).encode()))
        assert code == 0


class TestByzantineScenarios:
    def test_equivocation_scenario_green(self):
        genesis = parse_genesis(GENESIS.read_bytes())
        scenario = parse_scenario(EQUIVOCATE.read_bytes())
        code, report = run_scenario(genesis, scenario)
        assert code == 0, report["expectations"]

    def test_silent_majority_halts_safely(self):
        genesis = parse_genesis(GENESIS.read_bytes())
        scenario = parse_scenario(SILENT.read_bytes())
        code, report = run_scenario(genesis, scenario)
        assert code == 0, report["expectations"]
        assert all(h == 0 for h in report["finalizedHeight"].values())


class TestDocumentedInputs:
    """Scenario inputs that the shipped scenarios do not use."""

    def _run_lossy(self, commands):
        """Paper genesis with every message lost until a GST that never
        comes by itself; seed 5, horizon 1,500."""
        obj = json.loads(GENESIS.read_text())
        obj.update(gst=10**6, preGstLossProb=1.0, seed=5)
        scenario = {"name": "lossy", "horizon": 1500, "commands": commands,
                    "expectations": [{"kind": "minFinalizedHeight", "value": 1}]}
        return run_scenario(parse_genesis(json.dumps(obj).encode()),
                            parse_scenario(json.dumps(scenario).encode()))

    def test_set_gst_now_lets_a_lossy_network_finalize(self):
        code, report = self._run_lossy([])
        assert code == 3
        assert set(report["finalizedHeight"].values()) == {0}
        code, report = self._run_lossy(
            [{"atTime": 300, "actor": 0, "action": {"type": "setGstNow"}}])
        assert code == 0, report["expectations"]
        assert set(report["finalizedHeight"].values()) == {74}

    def test_hex_addresses_act_as_their_actor_indices(self):
        """Paper flow with every recipient and address written as 0x-hex,
        and each getBalance naming its caller, gives the same report as
        the shipped file, which names them by actor index."""
        genesis = parse_genesis(GENESIS.read_bytes())
        addresses = ["0x" + key.address.hex() for key in active_keys(genesis.key_provider)]
        obj = json.loads(PAPER_FLOW.read_text())
        for command in obj["commands"]:
            action = command["action"]
            if "recipient" in action:
                action["recipient"] = addresses[action["recipient"]]
            if action["type"] == "getBalance":
                action["address"] = addresses[command["actor"]]
        for expectation in obj["expectations"]:
            if "address" in expectation:
                expectation["address"] = addresses[expectation["address"]]
        by_index = run_scenario(genesis, parse_scenario(PAPER_FLOW.read_bytes()))
        by_hex = run_scenario(genesis, parse_scenario(json.dumps(obj).encode()))
        assert by_hex == by_index and by_hex[0] == 0
        queries = by_hex[1]["queries"]
        assert [q["caller"] for q in queries] == addresses[:2]
        assert [{v["value"] for v in q["values"]} for q in queries] == [{"700"}, {"0"}]


class TestCli:
    def test_quorum_table(self):
        proc = cli("quorum-table", "--max-n", "8")
        assert proc.returncode == 0
        rows = proc.stdout.strip().splitlines()
        assert rows[0].split() == ["N", "F", "Q"]
        assert rows[4].split() == ["4", "1", "3"]
        assert rows[1].split() == ["1", "0", "1"]

    def test_run_paper_flow_exit_0(self, tmp_path):
        proc = cli("run", "--genesis", str(GENESIS), "--scenario",
                   str(PAPER_FLOW), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[PASS]" in proc.stdout

    def test_missing_genesis_exits_2(self):
        proc = cli("run", "--genesis", "/nonexistent.json",
                   "--scenario", str(PAPER_FLOW))
        assert proc.returncode == 2

    def test_malformed_genesis_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        for text in ("{}", NESTED):
            bad.write_text(text)
            proc = cli("run", "--genesis", str(bad), "--scenario", str(PAPER_FLOW))
            assert proc.returncode == 2, text[:8]
            assert "Traceback" not in proc.stderr
            if text == NESTED:
                assert "genesis is nested too deeply" in proc.stderr
                assert "not valid JSON" not in proc.stderr

    @pytest.mark.parametrize("edit", [
        lambda s: s["commands"][0].update(atTime="soon"),
        lambda s: s.update(commands=5),
        lambda s: s["commands"][3]["action"].update(amt=-5),  # addFunds
        lambda s: s["commands"][1]["action"].pop("recipient"),  # addRecipient
        lambda s: s.update(horizon="long"),
        lambda s: s["commands"][0].update(actor="me"),
        lambda s: s["commands"].append(
            {"atTime": 500, "actor": 0, "action": {"type": "injectFault", "node": 1}}),
        lambda s: s.update(expectations=5),
        lambda s: s.update(expectations=[5]),
        lambda s: s["commands"][2]["action"].update(account="\ud800"),
        lambda s: s["commands"][0].update(atTime=0.9),
        lambda s: s["commands"][0].update(actor="0"),
        lambda s: s.update(horizon=True),
        lambda s: s.update(horizon=1e30),
        lambda s: s["commands"][3]["action"].update(amt=1000.9),
        lambda s: s["commands"][3]["action"].update(amt="1000"),
        lambda s: s["commands"][4]["action"].update(amount=True),
        lambda s: s["commands"][2]["action"].update(account=12345),
        lambda s: s["commands"][1]["action"].update(recipient=True),
        lambda s: s["commands"].append({"atTime": 500, "actor": 0, "action": {
            "type": "injectFault", "node": 1.0, "behavior": "SILENT"}}),
        lambda s: s["commands"][5]["action"].update(adress=0),  # getBalance
        lambda s: s["commands"][3]["action"].update(amount=5),  # addFunds
        lambda s: s["commands"].append(
            {"atTime": 500, "actor": 0, "action": {"type": "setGstNow", "at": 500}}),
        lambda s: s.update(name=12345),
        lambda s: s.update(horizon=-5),
        lambda s: s["expectations"][7].update(valeu=False),  # safety
        lambda s: s["expectations"][3].update(eror="Unauthorized"),  # receiptStatus
        lambda s: s["expectations"][0].update(kind="orgBalanse"),
        lambda s: s["commands"][0]["action"].update(type=["deploy"]),
        lambda s: s["expectations"][8].update(kind=["convergedState"]),
        lambda s: s["expectations"][0].pop("value"),  # orgBalance
        lambda s: s["expectations"][1].pop("address"),  # balance
        lambda s: s["expectations"][5].pop("value"),  # queryResult
        lambda s: s["commands"][0].update(atTme=5),
        lambda s: s["commands"][0].update(atTime=-5),
        NESTED,  # the whole file
        # an events value that is not a list of objects (found by
        # tests/test_fuzz.py when it raised AttributeError out of the run)
        lambda s: s["expectations"][2].update(value=None),
        lambda s: s["expectations"][2].update(value=3),
        lambda s: s["expectations"][2].update(value="FundsAdded"),
        lambda s: s["expectations"][2].update(value=[None]),
        lambda s: s["expectations"][2].update(value=[["kind"]]),
        # values that held on paper_flow, or for 700.0 failed as a
        # mismatch, when they were coerced with bool(), int() and str()
        lambda s: s["expectations"][7].update(value="false"),
        lambda s: s["expectations"][0].update(value=700.9),
        lambda s: s["expectations"][3].update(command=4.5),
        lambda s: s["expectations"][5].update(value=700),
        lambda s: s["expectations"][5].update(value=700.0),
        lambda s: s["expectations"][1].update(address=99),
        lambda s: s["expectations"][1].update(address="0x12"),
        lambda s: s["expectations"][3].update(status="WIN"),
        lambda s: s["expectations"][3].update(error="Unathorized"),
        lambda s: s["commands"].append({"atTime": 500, "actor": 0, "action": {
            "type": "injectFault", "node": 4, "behavior": "SILENT"}}),
        lambda s: s["commands"].append({"atTime": 500, "actor": 0, "action": {
            "type": "injectFault", "node": 1, "behavior": "silent"}}),
        lambda s: s["commands"].append(
            {"atTime": 500, "actor": 99, "action": {"type": "setGstNow"}}),
    ], ids=["atTime", "commands", "amt", "recipient", "horizon", "actor",
            "behavior", "expectations", "expectation", "account",
            "float_atTime", "string_actor", "bool_horizon", "float_horizon",
            "float_amt", "string_amt", "bool_amount", "integer_account",
            "bool_recipient", "float_node", "misspelt_address",
            "foreign_amount", "setGstNow_key", "integer_name",
            "negative_horizon", "misspelt_value", "misspelt_error",
            "unknown_kind", "list_action_type", "list_kind",
            "missing_orgBalance_value", "missing_balance_address",
            "missing_queryResult_value", "misspelt_command_key", "negative_atTime",
            "nested", "null_events", "integer_events", "string_events",
            "list_of_null_events", "list_of_list_events", "string_safety",
            "float_orgBalance", "float_command", "integer_queryResult",
            "float_queryResult", "balance_actor_out_of_range", "short_balance_address",
            "unknown_status", "unknown_error", "fault_node_out_of_range",
            "unknown_behavior", "setGstNow_actor_out_of_range"])
    def test_malformed_scenario_exits_2(self, tmp_path, edit):
        """Refused before `--out` is created or the run starts."""
        bad = tmp_path / "bad.json"
        if isinstance(edit, str):
            bad.write_text(edit)
        else:
            obj = json.loads(PAPER_FLOW.read_text())
            edit(obj)
            bad.write_text(json.dumps(obj))
        out = tmp_path / "out"
        proc = cli("run", "--genesis", str(GENESIS), "--scenario", str(bad),
                   "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        if edit == NESTED:
            assert "scenario is nested too deeply" in proc.stderr
            assert "not valid JSON" not in proc.stderr

    def test_invariant_violation_exits_4_under_python_O(self):
        """A deploy that changes state but reports failure breaks
        failed-tx isolation; the check must survive `python -O`."""
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from pathlib import Path\n"
            "from ledgersim import contract\n"
            "from ledgersim.config import parse_genesis\n"
            "from ledgersim.model import Deploy, ErrorCode, TxStatus\n"
            "from ledgersim.scenario import parse_scenario, run_scenario\n"
            "apply = contract.apply_transaction\n"
            "def leaky(draft, tx):\n"
            "    receipt = apply(draft, tx)\n"
            "    if isinstance(tx.payload, Deploy):\n"
            "        receipt = replace(receipt, status=TxStatus.FAILED,\n"
            "                          error=ErrorCode.ALREADY_DEPLOYED)\n"
            "    return receipt\n"
            "contract.apply_transaction = leaky\n"
            "code, report = run_scenario(parse_genesis(Path(sys.argv[1]).read_bytes()),\n"
            "                            parse_scenario(Path(sys.argv[2]).read_bytes()))\n"
            "print(sys.flags.optimize, code, report.get('internalError'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(GENESIS), str(PAPER_FLOW)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        optimize, code, error = proc.stdout.split(" ", 2)
        assert (optimize, code) == ("1", "4")
        assert "changed contract state" in error

    def test_same_seed_twice_byte_identical_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            proc = cli("run", "--genesis", str(GENESIS), "--scenario",
                       str(PAPER_FLOW), "--seed", "123", "--out", str(out))
            assert proc.returncode == 0
        for name in ("chain.jsonl", "events.jsonl", "report.json",
                     "consensus_trace.jsonl", "network_trace.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_sim_seed_env_overrides_flag(self, tmp_path):
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        proc = cli("run", "--genesis", str(GENESIS), "--scenario",
                   str(PAPER_FLOW), "--seed", "9", "--out", str(out_env),
                   env={"SIM_SEED": "7"})
        assert proc.returncode == 0
        proc = cli("run", "--genesis", str(GENESIS), "--scenario",
                   str(PAPER_FLOW), "--seed", "7", "--out", str(out_flag))
        assert proc.returncode == 0
        assert (out_env / "chain.jsonl").read_bytes() == \
            (out_flag / "chain.jsonl").read_bytes()


    @pytest.mark.parametrize("flag, env", [
        ("--seed=-1", None),
        ("--seed=18446744073709551616", None),
        ("--seed=7", {"SIM_SEED": "-3"}),
    ])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, flag, env):
        """`Simulation` refuses the seed before `--out` is created."""
        out = tmp_path / "out"
        proc = cli("run", "--genesis", str(GENESIS), "--scenario",
                   str(PAPER_FLOW), flag, "--out", str(out), env=env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_an_out_that_names_a_file_exits_2(self, tmp_path):
        taken = tmp_path / "afile"
        taken.write_text("")
        proc = cli("run", "--genesis", str(GENESIS), "--scenario",
                   str(PAPER_FLOW), "--out", str(taken))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert "Traceback" not in proc.stderr

    def test_an_out_that_names_a_file_is_refused_before_the_run(self, tmp_path,
                                                                monkeypatch):
        taken = tmp_path / "afile"
        taken.write_text("")
        runs = []
        monkeypatch.setattr(Simulation, "run", lambda sim, *a, **k: runs.append(sim))
        with pytest.raises(OSError):
            run_scenario(parse_genesis(GENESIS.read_bytes()),
                         parse_scenario(PAPER_FLOW.read_bytes()), out_dir=taken)
        assert runs == []

    def test_a_non_integer_sim_seed_exits_2(self):
        proc = cli("run", "--genesis", str(GENESIS), "--scenario",
                   str(PAPER_FLOW), env={"SIM_SEED": "abc"})
        assert proc.returncode == 2
        assert proc.stderr == "config error: bad SIM_SEED 'abc'\n"

    @pytest.fixture(scope="class")
    def paper_dump(self, tmp_path_factory):
        """paper_flow's chain dump and its first transaction's hash."""
        out = tmp_path_factory.mktemp("paper")
        genesis = parse_genesis(GENESIS.read_bytes())
        code, report = run_scenario(genesis, parse_scenario(PAPER_FLOW.read_bytes()),
                                    out_dir=out)
        assert code == 0
        return out / "chain.jsonl", report["submissions"][0]["txHash"]

    def test_a_tx_without_0x_exits_2(self, paper_dump):
        chain, _ = paper_dump
        proc = cli("receipt", "--chain", str(chain), "--genesis", str(GENESIS),
                   "--tx", "abab")
        assert proc.returncode == 2
        assert proc.stderr == "config error: expected 0x prefix: 'abab'\n"

    @pytest.mark.parametrize("command", ["replay", "receipt"])
    def test_a_missing_chain_exits_2(self, tmp_path, command):
        tx = ["--tx", "0x" + "ab" * 32] if command == "receipt" else []
        proc = cli(command, "--chain", str(tmp_path / "absent.jsonl"),
                   "--genesis", str(GENESIS), *tx)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: [Errno 2]")
        assert not proc.stdout

    def test_receipt_on_a_dump_corrupt_at_a_height_exits_4(self, tmp_path, paper_dump):
        chain, tx = paper_dump
        lines = chain.read_text().splitlines()
        obj = json.loads(lines[3])
        obj["hash"] = "0x" + "00" * 32
        lines[3] = json.dumps(obj, sort_keys=True)
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("\n".join(lines))
        proc = cli("receipt", "--chain", str(bad), "--genesis", str(GENESIS), "--tx", tx)
        assert proc.returncode == 4
        assert proc.stdout == "CORRUPT: at height 3: declared hash mismatch\n"
        replayed = cli("replay", "--chain", str(bad), "--genesis", str(GENESIS))
        assert (replayed.returncode, replayed.stdout) == (
            4, "CORRUPT at height 3: declared hash mismatch\n")


class TestPinnedArtifacts:
    """SHA-256 of every artifact `ledgersim run --seed 42` writes for the
    shipped scenarios. A change here is a deliberate output change."""

    ARTIFACTS = {
        "paper_flow": {
            "chain.jsonl": "9edfa93cea9e42e455aa05c0bb65dc6ff21fcf83180534d53f3af632aa4b5caa",
            "consensus_trace.jsonl":
                "9df262e4a1336df60d76bd4cfc1151d41d4bacb58a48926a4d14048545835bd0",
            "events.jsonl": "a8e5609f859efa7cb98a03cec967b5ae0fbbee579ae38a2a8ae37e9062a7c7ef",
            "network_trace.jsonl":
                "2cbfc8a4e9e349c9094b60d0d1f325eb9bc6943cadf6abfb71996298f91990da",
            "report.json": "d408f04e0c5a1997bdb0d9af8a2b89be5e3f958b4c8447c14fdf15f13766f065",
            "state.json": "f8f9f4746a76059637bfd4a0b4c24863caed7e62b530de2836ee29f2637c22ff",
        },
        "byzantine_equivocate": {
            "chain.jsonl": "0b5c4fe19776a3d27dfdf9ae515d1768224a5c1355cc5dea750f1f60014c3a68",
            "consensus_trace.jsonl":
                "6eafe09b3c43f57e4b571d2e757d3713ae96710c85262e6566ca367724c8b5c4",
            "events.jsonl": "f252161026cb689f6eca2ebb8cabb5c9df193cfe3ee34a3fef7083bf9202e2ae",
            "network_trace.jsonl":
                "176c0041cd379b43fd4fdb086a46be1c25c9db3d9d493e704b463e7e01b8a772",
            "report.json": "2536eeedaaa4a843942023a7f62d9d0743df7011562c3a2ad7a55e9e04691ae1",
            "state.json": "cbb3a4f77e32a83562a461cfa256a8db1807364f3ebb64cb275e73b4981cda61",
        },
        "silent_majority": {
            "chain.jsonl": "75b494ccafc91c818da416a4b260ecaa61aa19a2fd0e360d215220eeb0846f1e",
            "consensus_trace.jsonl":
                "1e8e6168e97720de5eb0ef5288f94f5b8130f86aad43f5dae29880b6dc9bc929",
            "events.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "network_trace.jsonl":
                "8f1eca900fbad662f4f6b2bca38b3d12e61ba7aa44623c7e6f2923a6aa7ed078",
            "report.json": "159fb0fb77ff467e6a640f5c62119ee779de8d679d01aba23345fe27839869bd",
            "state.json": "9d6dd5ce826c443b1906e98c7d5b17f259b1e9e96d853ca9a876304e9c63a8b6",
        },
    }

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_seed_42_artifacts(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.delenv("SIM_SEED", raising=False)
        main(["run", "--genesis", str(GENESIS),
              "--scenario", str(ROOT / "scenarios" / f"{name}.json"),
              "--seed", "42", "--out", str(tmp_path)])
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert written == self.ARTIFACTS[name]


class TestReplay:
    @pytest.fixture()
    def chain_dump(self, tmp_path):
        genesis = parse_genesis(GENESIS.read_bytes())
        scenario = parse_scenario(PAPER_FLOW.read_bytes())
        code, _ = run_scenario(genesis, scenario, out_dir=tmp_path)
        assert code == 0
        return tmp_path / "chain.jsonl"

    def test_unmodified_dump_is_ok(self, chain_dump):
        genesis = parse_genesis(GENESIS.read_bytes())
        verdict = replay_chain(genesis, chain_dump.read_bytes())
        assert verdict.ok

    def test_flipped_tx_byte_detected_at_that_block(self, chain_dump):
        genesis = parse_genesis(GENESIS.read_bytes())
        lines = chain_dump.read_text().splitlines()
        target = next(i for i, line in enumerate(lines)
                      if json.loads(line)["txs"])
        obj = json.loads(lines[target])
        tx = obj["txs"][0]
        tx["nonce"] = tx["nonce"] + 1
        lines[target] = json.dumps(obj, sort_keys=True)
        verdict = replay_chain(genesis, "\n".join(lines).encode())
        assert not verdict.ok
        assert verdict.height == obj["height"]

    def test_seal_removal_below_quorum_detected(self, chain_dump):
        genesis = parse_genesis(GENESIS.read_bytes())
        lines = chain_dump.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["commitSeals"] = obj["commitSeals"][:2]
        lines[1] = json.dumps(obj, sort_keys=True)
        verdict = replay_chain(genesis, "\n".join(lines).encode())
        assert not verdict.ok
        assert verdict.height == 1
        assert "seal" in verdict.reason

    def test_cli_replay_roundtrip(self, chain_dump):
        proc = cli("replay", "--chain", str(chain_dump),
                   "--genesis", str(GENESIS))
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"

    def test_cli_replay_corrupt_exits_4(self, chain_dump, tmp_path):
        lines = chain_dump.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["commitSeals"] = []
        lines[1] = json.dumps(obj, sort_keys=True)
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("\n".join(lines))
        proc = cli("replay", "--chain", str(bad), "--genesis", str(GENESIS))
        assert proc.returncode == 4
        assert "CORRUPT" in proc.stdout

    @pytest.mark.parametrize("command", ["replay", "receipt"])
    def test_cli_non_utf8_dump_exits_4(self, tmp_path, command):
        """A dump that is not UTF-8, or one whose line nests too deeply."""
        bad = tmp_path / "chain.jsonl"
        tx = ["--tx", "0x" + "ab" * 32] if command == "receipt" else []
        for data in (b"\xff\xfe{}\n", NESTED.encode() + b"\n"):
            bad.write_bytes(data)
            proc = cli(command, "--chain", str(bad), "--genesis", str(GENESIS), *tx)
            assert proc.returncode == 4, data[:8]
            assert "CORRUPT" in proc.stdout
            assert "Traceback" not in proc.stderr


class TestReceiptQuery:
    def test_receipt_by_tx_hash(self, tmp_path):
        genesis = parse_genesis(GENESIS.read_bytes())
        scenario = parse_scenario(PAPER_FLOW.read_bytes())
        code, report = run_scenario(genesis, scenario, out_dir=tmp_path)
        assert code == 0
        tx_hash_hex = report["submissions"][0]["txHash"]
        proc = cli("receipt", "--chain", str(tmp_path / "chain.jsonl"),
                   "--genesis", str(GENESIS), "--tx", tx_hash_hex)
        assert proc.returncode == 0, proc.stderr
        receipt = json.loads(proc.stdout)
        assert receipt["status"] == "SUCCESS"
        assert receipt["txHash"] == tx_hash_hex
        assert receipt["gasUsed"] == 200_000  # the deploy

    def test_unknown_tx_exits_3(self, tmp_path):
        genesis = parse_genesis(GENESIS.read_bytes())
        scenario = parse_scenario(PAPER_FLOW.read_bytes())
        run_scenario(genesis, scenario, out_dir=tmp_path)
        proc = cli("receipt", "--chain", str(tmp_path / "chain.jsonl"),
                   "--genesis", str(GENESIS), "--tx", "0x" + "ab" * 32)
        assert proc.returncode == 3
