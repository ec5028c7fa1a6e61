"""The execution table that a simulation's nodes share.

Execution and the content check are pure functions of a block and its
parent's ledger, so the nodes of one simulation keep them in one table:
each distinct block is executed once, a failed verdict included, and a
height leaves the table once every node's head has reached it. The twin
tests run the same simulations with a private table per node and require
the same chains, receipts, finalized hashes and traces.
"""

import random
from dataclasses import replace

import pytest

from ledgersim import contract
from ledgersim.consensus import ConsensusMessage, MsgKind, make_message
from ledgersim.crypto import KeyPair
from ledgersim.model import (
    AddFunds, AddRecipient, Address, Amount, Deploy, RegisterBankAccount,
    SendAllowance, Signature, block_hash, block_to_json, receipt_to_json,
)
from ledgersim.netsim import Behavior, ByzantineSpec, _equivocation_variant
from ledgersim.node import ExecutionTable, ValidatorNode
from ledgersim.simulation import Simulation

from conftest import SEEDS, make_genesis

ORG = KeyPair.from_seed(SEEDS[4])  # a genesis key that is no validator


@pytest.fixture()
def executions(monkeypatch):
    """Every `contract.execute_block_txs` call, as its tuple of txs."""
    calls = []
    execute = contract.execute_block_txs

    def counted(ledger, txs):
        calls.append(txs)
        return execute(ledger, txs)

    monkeypatch.setattr(contract, "execute_block_txs", counted)
    return calls


def private_tables(monkeypatch):
    """Give every node built from now on a table of its own."""
    init = ValidatorNode.__init__
    monkeypatch.setattr(ValidatorNode, "__init__",
                        lambda self, *args: init(self, *args[:-1], ExecutionTable()))


def first_proposal(sim):
    """The PRE_PREPARE for height 1 that start() queued, and its sender."""
    for ev in sim.queue.pending():
        msg = ev.payload
        if isinstance(msg, ConsensusMessage) and msg.kind is MsgKind.PRE_PREPARE:
            return msg.proposal, sim.nodes[msg.sender]
    raise AssertionError("no proposal queued")


def forged_signature(block, proposer):
    tx = block.txs[0]
    sig = tx.signature
    forged = replace(tx, signature=Signature(bytes([sig[0] ^ 1]) + sig[1:]))
    return replace(block, txs=(forged,))


def tampered_root(block, proposer):
    return _equivocation_variant(proposer, block)  # the empty-block variant


class TestFailedVerdicts:
    @pytest.mark.parametrize("forge, with_tx", [(forged_signature, True),
                                                (tampered_root, False)])
    def test_every_node_refuses_and_it_is_executed_once(self, executions,
                                                        forge, with_tx):
        sim = Simulation(make_genesis(seed=3, gst=0), collect_traces=False)
        if with_tx:
            sim.submit_to_all(sim.build_tx(ORG, Deploy()))
        sim.start()
        honest, proposer = first_proposal(sim)
        assert len(honest.txs) == int(with_tx)
        bad = forge(honest, proposer)
        assert block_hash(bad) != block_hash(honest)
        executions.clear()

        for _ in range(2):
            for node in sim.nodes.values():
                assert not node.validate_block(bad)
        msg = make_message(proposer.key, MsgKind.PRE_PREPARE, 1, 0,
                           block_hash(bad), proposal=bad)
        for node in sim.nodes.values():
            if node is not proposer:
                assert node.handle_consensus(msg).discards == ["InvalidBlock"]
        assert executions == [bad.txs]
        assert sim.executions[1][block_hash(bad)] is None

        # the proposer's own block was recorded when it was built
        assert all(node.validate_block(honest) for node in sim.nodes.values())
        assert executions == [bad.txs]


def flood(sim, n_txs=200, rate=4.0, seed=0):
    """Open-loop Poisson arrivals of the organization's transactions: a
    mix of addRecipient, registerBankAccount, addFunds and sendAllowance,
    the last sometimes to an unknown recipient."""
    rng = random.Random(seed)
    sim.schedule_tx(0, ORG, Deploy())
    recipients, tick, count = [], 0, 1
    while count < n_txs:
        tick += 1
        gap = rng.expovariate(rate)
        while gap < 1.0 and count < n_txs:
            roll = rng.random()
            if roll < 0.4 or not recipients:
                recipients.append(Address(rng.randbytes(20)))
                payload = AddRecipient(recipients[-1])
            elif roll < 0.55:
                payload = RegisterBankAccount(rng.choice(recipients), f"IBAN-{count}")
            elif roll < 0.75:
                payload = AddFunds(Amount(rng.randrange(100, 10_000)))
            elif roll < 0.97:
                payload = SendAllowance(rng.choice(recipients), Amount(rng.randrange(1, 50)))
            else:
                payload = SendAllowance(Address(rng.randbytes(20)), Amount(1))
            sim.schedule_tx(tick, ORG, payload)
            count += 1
            gap += rng.expovariate(rate)


def flood_run(checked, seed=5):
    """A 200-transaction flood with V3 silent, run until every transaction
    is final."""
    sim = Simulation(make_genesis(seed=seed, gst=0, pre_gst_max_delay=0,
                                  pre_gst_loss_prob=0.0), horizon=250)
    sim.inject_fault(ByzantineSpec(sim.config.validators[3], Behavior.SILENT))
    flood(sim)
    checked(sim)
    sim.run()
    assert sum(len(b.txs) for b in sim.reference_node().chain.blocks) == 200
    return sim


def equivocation_run(checked, seed=8):
    """An equivocating V0 with pre-GST loss, run to height 30."""
    sim = Simulation(make_genesis(seed=seed), horizon=10_000)
    sim.inject_fault(ByzantineSpec(sim.config.validators[0], Behavior.EQUIVOCATE))
    for i, tick in enumerate(range(0, 400, 40)):
        sim.schedule_tx(tick, ORG, Deploy() if i == 0 else AddFunds(Amount(i)))
    checked(sim)
    assert sim.run_until_min_height(30)
    return sim


def outputs(sim):
    """What a run shows: every honest node's chain and receipts, every
    validator's chain block hashes and both traces."""
    chains = {}
    for address in sim.honest_addresses():
        chain = sim.nodes[address].chain
        chains[address] = ([block_to_json(b) for b in chain.blocks],
                           [[receipt_to_json(r) for r in receipts]
                            for receipts in chain.receipts_by_height])
    hashes = {address: [block_hash(b) for b in node.chain.blocks]
              for address, node in sim.nodes.items()}
    return chains, hashes, sim.consensus_trace, sim.net_trace


@pytest.mark.parametrize("run", [flood_run, equivocation_run])
class TestSharedTable:
    def test_outputs_equal_those_of_private_tables(self, run, monkeypatch):
        shared = run(lambda sim: None)
        with monkeypatch.context() as patch:
            private_tables(patch)
            private = run(lambda sim: None)
        assert len({id(n.executions) for n in private.nodes.values()}) == 4
        assert not private.executions  # no node wrote to the simulation's table
        assert outputs(shared) == outputs(private)

    def test_no_height_at_or_below_the_lowest_head_stays(self, run):
        seen = []

        def checked(sim):
            def then_check(node, cause, now, result, sent):
                if result.finalized is None:
                    return
                lowest = min(n.chain.head_height for n in sim.nodes.values())
                assert all(h > lowest for h in sim.executions)
                seen.append(lowest)

            sim.observers.append(then_check)

        sim = run(checked)
        assert seen[-1] >= 11
        assert all(n.executions is sim.executions for n in sim.nodes.values())


def check_honest_floor(sim, seen):
    """After every finalization, require that the table is evicted up to the
    lowest honest head and holds no height at or below it; `seen` gets that
    head."""
    def then_check(node, cause, now, result, sent):
        if result.finalized is None:
            return
        lowest = sim.min_honest_height()
        assert sim.executions.floor == lowest
        assert all(h > lowest for h in sim.executions)
        seen.append(lowest)

    sim.observers.append(then_check)


def stalled_silent_run(checked):
    """A flood whose silent V3 misses height 2 and never catches up: it
    sends nothing, so no peer ever shows it a sealed block."""
    return flood_run(checked, seed=0)


def lagging_equivocator_run(checked):
    """An equivocating V0 that falls behind and is shown sealed blocks at
    or below the lowest honest head, which it then executes."""
    return equivocation_run(checked, seed=10)


class TestHonestFloor:
    """A height leaves the table once every honest head has reached it,
    whatever a faulty node's head, and no writer puts it back."""

    def test_a_stalled_silent_node_pins_no_height(self):
        seen = []
        sim = stalled_silent_run(lambda s: check_honest_floor(s, seen))
        stalled = sim.config.validators[3]
        assert sim.finalized_height(stalled) == 1
        assert seen[-1] >= 10
        assert sorted(sim.executions) == [seen[-1] + 1]

    def test_a_lagging_faulty_node_executes_below_the_floor_on_its_own(self,
                                                                       monkeypatch):
        kept_out = []  # (node, height) of every execution the floor kept out
        checked, build = ValidatorNode._checked_execution, ValidatorNode.build_block

        def kept(node, height):
            if height <= node.executions.floor:
                kept_out.append((node.address, height))

        def counted_check(node, block):
            kept(node, block.height)
            return checked(node, block)

        def counted_build(node, height, round_):
            kept(node, height)
            return build(node, height, round_)

        monkeypatch.setattr(ValidatorNode, "_checked_execution", counted_check)
        monkeypatch.setattr(ValidatorNode, "build_block", counted_build)
        seen = []
        sim = lagging_equivocator_run(lambda s: check_honest_floor(s, seen))
        assert len(kept_out) >= 3
        assert {address for address, _ in kept_out} == {sim.config.validators[0]}

    def test_with_no_honest_node_every_head_counts(self):
        sim = Simulation(make_genesis(n_validators=1, gst=0), horizon=100)
        sim.inject_fault(ByzantineSpec(sim.config.validators[0], Behavior.SILENT))
        sim.run()
        assert sim.executions.floor == sim.finalized_height(sim.config.validators[0]) > 1
        assert not sim.executions

    @pytest.mark.parametrize("run", [stalled_silent_run, lagging_equivocator_run])
    def test_outputs_equal_those_of_private_tables(self, run, monkeypatch):
        shared = run(lambda sim: None)
        with monkeypatch.context() as patch:
            private_tables(patch)
            private = run(lambda sim: None)
        assert outputs(shared) == outputs(private)
