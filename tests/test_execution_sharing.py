"""What a block's execution slot promises.

Execution and the content check are pure functions of a block and its
parent's ledger, so a block keeps what executing it gave, a failed
verdict included, and every node that one proposal object reaches reads
it there: each proposal is executed once. The twin tests run the same
simulations with every node executing every block itself and require
the same chains, receipts, finalized hashes and traces. A chain lets go
of its blocks' executions, so it pins no ledger but its head's.
"""

import gc
import random
import weakref
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
from ledgersim.node import Chain, ValidatorNode
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


def executing_alone(monkeypatch):
    """Make every node execute every block itself: empty the block's
    execution slot before each `_checked_execution`."""
    checked = ValidatorNode._checked_execution

    def alone(node, block):
        object.__setattr__(block, "_execution", None)
        return checked(node, block)

    monkeypatch.setattr(ValidatorNode, "_checked_execution", alone)


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
        assert bad._execution == ()  # the refusal, not "not executed yet"

        # the proposer's own block was filled when it was built
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


def silent_v3(seed, horizon):
    """A loss-free simulation with V3 silent from the start."""
    sim = Simulation(make_genesis(seed=seed, gst=0, pre_gst_max_delay=0,
                                  pre_gst_loss_prob=0.0), horizon=horizon)
    sim.inject_fault(ByzantineSpec(sim.config.validators[3], Behavior.SILENT))
    return sim


def long_flood(seed):
    """A 600-transaction flood at 2 per tick with V3 silent, run to
    `flood_run`'s horizon, which leaves some of it pending."""
    sim = silent_v3(seed, horizon=250)
    flood(sim, n_txs=600, rate=2.0)
    sim.run()
    return sim


def flood_run(seed=5):
    """A 200-transaction flood with V3 silent, run until every transaction
    is final."""
    sim = silent_v3(seed, horizon=250)
    flood(sim)
    sim.run()
    assert sum(len(b.txs) for b in sim.reference_node().chain.blocks) == 200
    return sim


def equivocation_run(seed=8):
    """An equivocating V0 with pre-GST loss, run to height 30."""
    sim = Simulation(make_genesis(seed=seed), horizon=10_000)
    sim.inject_fault(ByzantineSpec(sim.config.validators[0], Behavior.EQUIVOCATE))
    for i, tick in enumerate(range(0, 400, 40)):
        sim.schedule_tx(tick, ORG, Deploy() if i == 0 else AddFunds(Amount(i)))
    assert sim.run_until_min_height(30)
    return sim


def stalled_silent_run():
    """A flood whose silent V3 misses height 2 and never catches up: it
    sends nothing, so no peer ever shows it a sealed block."""
    sim = flood_run(seed=0)
    assert sim.finalized_height(sim.config.validators[3]) == 1
    return sim


def lagging_equivocator_run():
    """An equivocating V0 that falls behind and adopts the sealed blocks
    that a catch-up brings, executing each itself."""
    return equivocation_run(seed=10)


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
    return chains, hashes, sim.traces.consensus, sim.traces.network


class TestSharedExecution:
    @pytest.mark.parametrize("run", [flood_run, equivocation_run, stalled_silent_run,
                                     lagging_equivocator_run])
    def test_outputs_match_solo(self, run, executions, monkeypatch):
        """A run's outputs equal those of its twin whose nodes each execute
        every block alone."""
        shared = run()
        once = len(executions)
        with monkeypatch.context() as patch:
            executing_alone(patch)
            alone = run()
        assert len(executions) - once > 2 * once
        assert outputs(shared) == outputs(alone)

    def test_each_built_block_is_executed_once(self, executions, monkeypatch):
        built = []
        build = ValidatorNode.build_block
        monkeypatch.setattr(ValidatorNode, "build_block",
                            lambda node, *args: built.append(args) or build(node, *args))
        sim = long_flood(5)
        assert len(executions) == len(built) >= 10 and sim.min_honest_height() >= 10


class TestLifetime:
    """An adopted ledger lives as long as a chain's head, or a proposal
    object that carries it, and no longer."""

    @pytest.mark.parametrize("seed, stalled", [(5, False), (0, True)])
    def test_no_ledger_but_a_head_stays_alive(self, seed, stalled, monkeypatch):
        adopted = []  # (height, weak reference to the ledger after it)
        append = Chain.append

        def watched(chain, block, ledger, receipts):
            adopted.append((block.height, weakref.ref(ledger)))
            append(chain, block, ledger, receipts)

        monkeypatch.setattr(Chain, "append", watched)
        sim = long_flood(seed)
        assert (sim.finalized_height(sim.config.validators[3]) == 1) == stalled
        assert sim.min_honest_height() >= 10
        gc.collect()
        heads = [node.chain.head_ledger for node in sim.nodes.values()]
        alive = {height for height, ref in adopted
                 if ref() is not None and not any(ref() is head for head in heads)}
        assert alive == set()
        assert all(block._execution is None
                   for node in sim.nodes.values() for block in node.chain.blocks)
