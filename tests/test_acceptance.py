"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; the heavyweight criteria shard their seeded runs across two
worker processes (each run is an independent single-threaded
simulation, so this does not affect determinism).
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

from ledgersim import contract
from ledgersim.config import parse_genesis
from ledgersim.consensus import fault_tolerance, quorum_size
from ledgersim.deploy import migrate_deploy
from ledgersim.model import Deploy, TxStatus, tx_from_json
from ledgersim.netsim import Behavior, ByzantineSpec
from ledgersim.scenario import parse_scenario, run_scenario
from ledgersim.simulation import Simulation

import differential
from bft_monitor import install as install_monitor, install_watchdog
from conftest import make_genesis
from keccak_reference import keccak256_reference

ROOT = Path(__file__).resolve().parent.parent
GENESIS_FILE = ROOT / "scenarios" / "genesis_paper.json"
PAPER_FLOW_FILE = ROOT / "scenarios" / "paper_flow.json"

_shared: dict = {"conservation_checked_runs": 0, "conservation_ok": True,
                 "failed_receipt_mutations": 0}


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:>2}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _note_conservation(sim: Simulation) -> None:
    for address in sim.honest_addresses():
        if not sim.conservation_ok(address):
            _shared["conservation_ok"] = False
    _shared["conservation_checked_runs"] += 1


# --- workers for the seeded-run criteria (top level so fork can find them) ---

def _safety_run(seed: int) -> dict:
    genesis = make_genesis(seed=seed)
    sim = Simulation(genesis, horizon=10_000, collect_traces=False)
    sim.inject_fault(ByzantineSpec(sim.config.validators[0], Behavior.EQUIVOCATE))
    monitor, watchdog = install_monitor(sim), install_watchdog(sim)
    reached = sim.run_until_min_height(50, cap=10_000)
    honest = sim.honest_addresses()
    head_roots = {bytes(sim.nodes[a].chain.head.state_root) for a in honest}
    common = min(sim.finalized_height(a) for a in honest)
    ref = sim.nodes[honest[0]]
    prefix_ok = all(
        sim.nodes[a].chain.blocks[h].state_root == ref.chain.blocks[h].state_root
        for a in honest for h in range(common + 1))
    conservation = all(sim.conservation_ok(a) for a in honest)
    return {
        "seed": seed,
        "reached": reached,
        "safe": sim.safety_violation is None,
        "violations": (monitor.violations + watchdog.violations)[:1],
        "roots_identical": len(head_roots) == 1 and prefix_ok,
        "conservation": conservation,
    }


def _liveness_run(seed: int) -> dict:
    genesis = make_genesis(seed=seed)
    sim = Simulation(genesis, horizon=2000, collect_traces=False)
    monitor, watchdog = install_monitor(sim), install_watchdog(sim)
    sim.run()
    conservation = all(sim.conservation_ok(a) for a in sim.honest_addresses())
    return {
        "seed": seed,
        "min_height": sim.min_honest_height(),
        "safe": sim.safety_violation is None,
        "violations": (monitor.violations + watchdog.violations)[:1],
        "conservation": conservation,
    }


def _pool():
    return ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork"))


class TestCriterion1QuorumMath:
    def test_quorum_table(self):
        started = time.perf_counter()
        ok = fault_tolerance(4) == 1 and quorum_size(4) == 3
        for n in range(1, 101):
            smallest = next(q for q in range(1, n + 1) if 3 * q > 2 * n)
            ok = ok and quorum_size(n) == smallest
        proc = subprocess.run(
            [sys.executable, "-m", "ledgersim.cli", "quorum-table", "--max-n", "4"],
            capture_output=True, text=True)
        ok = ok and proc.stdout.splitlines()[-1].split() == ["4", "1", "3"]
        elapsed = time.perf_counter() - started
        _verdict(1, ok and elapsed < 1.0,
                 f"F(4)=1 Q(4)=3, N in [1,100] vs enumeration, {elapsed:.2f}s")


class TestCriterion2SafetyUnderEquivocation:
    def test_200_seeded_runs(self):
        started = time.perf_counter()
        with _pool() as pool:
            results = list(pool.map(_safety_run, range(200), chunksize=10))
        elapsed = time.perf_counter() - started
        bad = [r for r in results if r["violations"]
               or not (r["reached"] and r["safe"] and r["roots_identical"])]
        if not all(r["conservation"] for r in results):
            _shared["conservation_ok"] = False
        _shared["conservation_checked_runs"] += len(results)
        _verdict(2, not bad and elapsed < 60.0,
                 f"{200 - len(bad)}/200 runs safe at every step, live after GST, "
                 f"with identical honest roots at >=50 blocks, {elapsed:.1f}s "
                 f"(budget 60s); first bad: "
                 f"{bad[0] if bad else None}")


class TestCriterion3HaltBeyondF:
    def test_two_silent_validators_halt(self):
        started = time.perf_counter()
        outcomes = []
        for seed in range(50):
            genesis = make_genesis(seed=seed)
            sim = Simulation(genesis, horizon=2000, collect_traces=False)
            sim.inject_fault(ByzantineSpec(sim.config.validators[0], Behavior.SILENT))
            sim.inject_fault(ByzantineSpec(sim.config.validators[1], Behavior.SILENT))
            sim.run()
            height = max(sim.finalized_height(a) for a in sim.honest_addresses())
            outcomes.append((height, sim.safety_violation is None))
            _note_conservation(sim)
        elapsed = time.perf_counter() - started
        ok = all(h == 0 and safe for h, safe in outcomes)
        _verdict(3, ok and elapsed < 20.0,
                 f"50/50 runs: zero blocks finalized, zero safety "
                 f"violations, {elapsed:.1f}s (budget 20s)")


class TestCriterion4PostGstLiveness:
    def test_100_seeded_runs_reach_30_blocks(self):
        started = time.perf_counter()
        with _pool() as pool:
            results = list(pool.map(_liveness_run, range(100), chunksize=10))
        elapsed = time.perf_counter() - started
        bad = [r for r in results
               if r["min_height"] < 30 or not r["safe"] or r["violations"]]
        if not all(r["conservation"] for r in results):
            _shared["conservation_ok"] = False
        _shared["conservation_checked_runs"] += len(results)
        _verdict(4, not bad,
                 f"{100 - len(bad)}/100 runs reached >=30 finalized blocks, safe "
                 f"at every step, live after GST (GST=100, delta=5), {elapsed:.1f}s; "
                 f"first bad: "
                 f"{bad[0] if bad else None}")


class TestCriterion5OracleEquivalence:
    SENDERS = (b"\x01" * 20, b"\x02" * 20)
    RECIPIENTS = (b"\x03" * 20, b"\x04" * 20)

    def test_exhaustive_and_random_equivalence(self):
        started = time.perf_counter()
        symbols = differential.alphabet(self.SENDERS, self.RECIPIENTS)
        # transition-closure equivalence over every state reachable in
        # <= 6 steps: decides agreement for every sequence of length <= 7
        # (the literal 18^7 product enumeration is computationally out of
        # reach; agreement on every reachable transition implies it)
        states, transitions = differential.bfs_equivalence(
            self.SENDERS[0], symbols, max_depth=6)
        # literal product enumeration at shorter lengths as a cross-check
        literal = 0
        for length in (1, 2, 3):
            for seq in itertools.product(symbols, repeat=length):
                differential.run_sequence(self.SENDERS[0], seq)
                literal += 1
        # 1000 random length-100 sequences
        rng = random.Random(2027)
        for _ in range(1000):
            seq = [rng.choice(symbols) for _ in range(100)]
            observed = differential.run_sequence(self.SENDERS[0], seq)
            balance = observed[-1][1]["balances"].get(self.SENDERS[0], 0)
            delta = 0
            for result, _ in observed:
                for ev in result[2]:
                    if ev[0] == "FundsAdded":
                        delta += ev[1]
                    elif ev[0] == "AllowanceSent":
                        delta -= ev[2]
            if balance != delta:
                _shared["conservation_ok"] = False
        _shared["conservation_checked_runs"] += 1000
        elapsed = time.perf_counter() - started
        _verdict(5, elapsed < 120.0,
                 f"closure over {states} reachable states / {transitions} "
                 f"transitions (all sequences <= 7), {literal} literal "
                 f"sequences <= 3, 1000 random length-100 runs, "
                 f"{elapsed:.1f}s (budget 120s)")


class TestCriterion6PaperFlow:
    def test_end_to_end_flow(self, tmp_path):
        genesis = parse_genesis(GENESIS_FILE.read_bytes())
        scenario = parse_scenario(PAPER_FLOW_FILE.read_bytes())
        code, report = run_scenario(genesis, scenario, out_dir=tmp_path)
        ok = code == 0
        events = [json.loads(line)
                  for line in (tmp_path / "events.jsonl").read_text().splitlines()]
        kinds = [e["kind"] for e in events]
        ok = ok and kinds == ["BankAccountRegistered", "FundsAdded", "AllowanceSent"]
        ok = ok and events[1]["value"] == "1000" and events[2]["amount"] == "300"
        state = json.loads((tmp_path / "state.json").read_text())
        ok = ok and state["balances"][state["organization"]] == "700"
        # getBalance answered identically on all four nodes
        for query in report["queries"]:
            ok = ok and len({v["value"] for v in query["values"]}) == 1
            ok = ok and len(query["values"]) == 4
        _shared["paper_flow_chain"] = (tmp_path / "chain.jsonl").read_text()
        _shared["paper_flow_report"] = report
        ok = ok and all(report["conservation"].values())
        _verdict(6, ok,
                 "deploy/addRecipient/registerBankAccount/addFunds(1000)/"
                 "sendAllowance(300) -> balance 700, 3 events in order, "
                 "identical reads on 4 nodes")


class TestCriterion7Conservation:
    def test_conservation_and_failed_receipt_isolation(self):
        # aggregated from the runs of criteria 2-6
        runs = _shared["conservation_checked_runs"]
        ok = _shared["conservation_ok"] and runs >= 1300

        # FAILED receipts never coincide with a state change: replay the
        # paper-flow chain plus a guard-failure transaction step by step
        genesis = parse_genesis(GENESIS_FILE.read_bytes())
        chain_lines = _shared.get("paper_flow_chain", "").splitlines()
        ledger = contract.genesis_ledger()
        checked = 0
        for line in chain_lines[1:]:
            for tx_obj in json.loads(line)["txs"]:
                tx = tx_from_json(tx_obj)
                before = ledger.contract
                ledger, (receipt,) = contract.execute_block_txs(ledger, (tx,))
                if receipt.status is TxStatus.FAILED:
                    ok = ok and ledger.contract is before
                checked += 1
        ok = ok and checked >= 5

        from ledgersim.model import Address, Amount
        bad_state, result = contract.add_funds(
            ledger.contract, Address(b"\x99" * 20), Amount(1))
        ok = ok and not result.ok and bad_state is ledger.contract
        _verdict(7, ok,
                 f"org balance == sum(AddFunds) - sum(AllowanceSent) across "
                 f"{runs} runs; FAILED receipts leave state untouched")


class TestCriterion8KeccakVectors:
    def test_published_vectors_match_oracle(self):
        from ledgersim.keccak import keccak256
        vectors = [
            (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
            (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
            (b"hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"),
            (b"The quick brown fox jumps over the lazy dog",
             "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"),
            (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
             "45d3b367a6904e6e8d502ee04999a7c27647f91fa845d456525fd352ae3d7371"),
            (b"\xa3" * 200,
             "3a57666b048777f2c953dc4456f45a2588e1cb6f2da760122d530ac2ce607d4a"),
        ]
        ok = True
        for data, expected in vectors:
            ok = ok and keccak256(data).hex() == expected
            ok = ok and keccak256_reference(data).hex() == expected
        _verdict(8, ok, f"{len(vectors)} published vectors (incl. empty "
                        "string) bit-exact against the independent oracle")


class TestCriterion9IdempotentMigration:
    def test_five_calls_one_deploy(self):
        genesis = make_genesis(seed=77, gst=0)
        sim = Simulation(genesis, horizon=4000, collect_traces=False)
        deployer = sim.validator_keys[0]
        addresses = [migrate_deploy(sim, deployer) for _ in range(5)]
        node = sim.reference_node()
        deploys = sum(isinstance(tx.payload, Deploy)
                      for block in node.chain.blocks for tx in block.txs)
        ok = len(set(addresses)) == 1 and deploys == 1
        _verdict(9, ok, f"5 migrate calls -> {deploys} deploy tx on chain, "
                        f"{len(set(addresses))} distinct address")


class TestCriterion10Determinism:
    @pytest.mark.parametrize("scenario", ["paper_flow", "byzantine_equivocate"])
    def test_twin_runs_byte_identical(self, tmp_path, scenario):
        outs = []
        for name in ("left", "right"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "ledgersim.cli", "run",
                 "--genesis", str(GENESIS_FILE),
                 "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"),
                 "--seed", "31337", "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": "random"})
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        artifacts = ("chain.jsonl", "events.jsonl", "state.json", "report.json",
                     "consensus_trace.jsonl", "network_trace.jsonl")
        ok = all((outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
                 for artifact in artifacts)
        _verdict(10, ok, f"{scenario}: {', '.join(artifacts)} byte-identical "
                         "across two seeded runs (separate processes)")


class TestCriterion11ConfigFidelity:
    def test_paper_genesis_parses_runs_and_echoes(self, tmp_path):
        genesis = parse_genesis(GENESIS_FILE.read_bytes())
        ok = (genesis.network_id == 1337
              and genesis.block_gas_limit == 4_500_000
              and genesis.gas_price == 0
              and len(genesis.validators) == 4)
        scenario = parse_scenario(json.dumps({
            "name": "config-echo", "horizon": 400,
            "commands": [
                {"atTime": 0, "actor": 0, "action": {"type": "deploy"}}],
            "expectations": [{"kind": "minFinalizedHeight", "value": 1}],
        }).encode())
        code, report = run_scenario(genesis, scenario, out_dir=tmp_path)
        echoed = report["config"]
        ok = ok and code == 0
        ok = ok and echoed["networkId"] == 1337
        ok = ok and echoed["blockGasLimit"] == 4_500_000
        ok = ok and echoed["gasPrice"] == 0
        ok = ok and len(echoed["validators"]) == 4
        _verdict(11, ok, "networkId 1337, blockGasLimit 4500000, gasPrice 0, "
                         "4 validators: parsed, ran, echoed in report.json")
