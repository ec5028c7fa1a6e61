"""Event queue ordering, delay/loss regimes, Byzantine transforms."""

import random

import pytest

from ledgersim import simulation
from ledgersim.consensus import (
    ConsensusMessage, MsgKind, Phase, proposer_for, verify_message,
)
from ledgersim.errors import EmptyQueue, InternalInvariantViolation
from ledgersim.model import AddFunds, Address, Amount, Deploy, block_hash, hx
from ledgersim.netsim import (
    Behavior, ByzantineSpec, EventQueue, Network, byzantine_transform, rng_stream,
)
from ledgersim.node import BlockAnnounce
from ledgersim.simulation import Simulation

from conftest import make_genesis

A = Address(b"\x0a" * 20)
B = Address(b"\x0b" * 20)


def network(**overrides):
    """A network on `make_genesis`'s fields (gst 100, delta 5, pre-GST
    delay up to 50, loss 0.1) and the stream of seed 7."""
    return Network(make_genesis(**overrides), 7, EventQueue())


class TestEventQueue:
    def test_tie_break_by_seq(self):
        q = EventQueue()
        first = q.schedule(3, A, "x")
        second = q.schedule(3, A, "y")
        assert first.seq < second.seq
        assert q.next_event().payload == "x"
        assert q.next_event().payload == "y"

    def test_clock_advances_to_popped_time(self):
        q = EventQueue()
        q.schedule(7, A, "x")
        q.next_event()
        assert q.now == 7

    def test_cannot_schedule_into_the_past(self):
        q = EventQueue()
        q.schedule(5, A, "x")
        q.next_event()
        with pytest.raises(ValueError):
            q.schedule(3, A, "y")

    def test_empty_queue_raises(self):
        with pytest.raises(EmptyQueue):
            EventQueue().next_event()

    def test_random_interleaving_pops_sorted(self):
        rng = random.Random(4)
        q = EventQueue()
        times = [rng.randrange(0, 500) for _ in range(1000)]
        for t in times:
            q.schedule(t, A, t)
        popped = [q.next_event() for _ in range(1000)]
        keys = [(ev.time, ev.seq) for ev in popped]
        assert keys == sorted(keys)  # sort oracle
        assert [ev.time for ev in popped] == sorted(times)

    def test_pending_lists_the_pop_order_without_popping(self):
        rng = random.Random(5)
        q = EventQueue()
        for i in range(200):
            q.schedule(rng.randrange(0, 20), A, i)
        pending = q.pending()
        assert len(q) == 200
        assert pending == [q.next_event() for _ in range(200)]


class TestDelayRegimes:
    def test_post_gst_delivery_within_delta(self):
        net = network(gst=0)
        for _ in range(10_000):
            ev = net.send("m", A, B, now=50)
            assert ev is not None
            assert 50 < ev.time <= 55

    def test_post_gst_delay_over_delta_is_an_invariant_violation(self, monkeypatch):
        """Raised, not asserted, so `python -O` keeps the bound."""
        net = network(gst=0)
        monkeypatch.setattr(net.rng, "randint", lambda lo, hi: hi + 1)
        with pytest.raises(InternalInvariantViolation, match="exceeds delta 5"):
            net.send("m", A, B, now=50)

    def test_pre_gst_loss_probability_one_always_drops(self):
        net = network(pre_gst_loss_prob=1.0)
        for _ in range(200):
            assert net.send("m", A, B, now=10) is None

    def test_pre_gst_delay_bounded_by_max(self):
        net = network(pre_gst_loss_prob=0.0)
        for _ in range(2000):
            ev = net.send("m", A, B, now=0)
            assert ev is not None and 0 < ev.time <= 50

    def test_set_gst_now_switches_regime(self):
        net = network(gst=10**9, pre_gst_loss_prob=1.0)
        assert net.send("m", A, B, now=0) is None
        net.set_gst_now()
        assert net.send("m", A, B, now=0) is not None

    def test_twin_runs_produce_identical_schedules(self):
        def run():
            net = network()
            sent = [net.send(f"m{i}", A, B, now=i) for i in range(500)]
            return [None if ev is None else (ev.time, ev.seq) for ev in sent]
        assert run() == run()


class TestRngStreams:
    def test_same_label_reproduces(self):
        a = rng_stream(1, "net")
        b = rng_stream(1, "net")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_labels_are_independent(self):
        a = rng_stream(1, "node:0")
        b = rng_stream(1, "node:1")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_seed_changes_stream(self):
        assert rng_stream(1, "net").random() != rng_stream(2, "net").random()


def _sim():
    return Simulation(make_genesis(seed=1, gst=0), horizon=400)


class TestByzantineTransform:
    """The adversary hook, applied to nodes of a real Simulation."""

    def test_silent_drops_everything(self):
        sim = _sim()
        node = sim.nodes[sim.config.validators[1]]
        outbound = [*node.start().outbound,  # its height-1 proposal and prepare
                    (BlockAnnounce(node.chain.head), node.peers[1])]
        assert [type(p) for p, _ in outbound] == \
            [ConsensusMessage, ConsensusMessage, BlockAnnounce]
        spec = ByzantineSpec(node.address, Behavior.SILENT)
        assert byzantine_transform(spec, node, outbound, set()) == []

    def test_equivocate_splits_peers_two_and_one(self):
        payloads = [Deploy(), AddFunds(Amount(5))]
        for n_txs in range(3):
            sim = _sim()
            node = sim.nodes[sim.config.validators[1]]  # proposes height 1, round 0
            for payload in payloads[:n_txs]:
                node.submit_transaction(sim.build_tx(sim.validator_keys[0], payload))
            proposal, prepare = [m for m, _ in node.start().outbound]
            assert (proposal.kind, prepare.kind) == (MsgKind.PRE_PREPARE, MsgKind.PREPARE)
            announce = (BlockAnnounce(node.chain.head), node.peers[2])
            spec = ByzantineSpec(node.address, Behavior.EQUIVOCATE)
            out = byzantine_transform(
                spec, node, [(proposal, None), (prepare, None), announce], set())

            assert len(node.peers) == 3
            alt = out[2][0]
            assert out == [(proposal, node.peers[0]), (proposal, node.peers[1]),
                           (alt, node.peers[2]), (prepare, None), announce]
            assert (alt.kind, alt.height, alt.round, alt.sender) == \
                (MsgKind.PRE_PREPARE, 1, 0, node.address)
            assert verify_message(alt, sim.registry)
            assert alt.block_hash == block_hash(alt.proposal) != proposal.block_hash
            txs = proposal.proposal.txs
            assert alt.proposal.txs == (tuple(reversed(txs)) if n_txs == 2 else ())
            # a variant with transactions is valid on its own; an empty
            # block's variant carries a tampered state root
            honest = sim.nodes[sim.config.validators[2]]
            assert honest.validate_block(alt.proposal) is (n_txs > 0)

    def test_invalid_proposer_forges_once_per_foreign_round(self, monkeypatch):
        sim = _sim()
        faulty = sim.config.validators[0]
        sim.inject_fault(ByzantineSpec(faulty, Behavior.INVALID_PROPOSER))
        forged, foreign, own = [], set(), set()

        def recording_hook(spec, node, outbound, seen):
            out = byzantine_transform(spec, node, outbound, seen)
            assert out[:len(outbound)] == outbound
            at = (node.engine.height, node.engine.round)
            if node.engine.phase is not Phase.FINALIZED:
                mine = proposer_for(*at, sim.config) == faulty
                (own if mine else foreign).add(at)
                if mine:
                    assert len(out) == len(outbound)
            forged.extend(m for m, _ in out[len(outbound):])
            return out

        monkeypatch.setattr(simulation, "byzantine_transform", recording_hook)
        sim.start()
        first = forged[0]
        assert (first.height, first.round) == (1, 0)
        for address in sim.honest_addresses():
            step = sim.nodes[address].engine.handle_message(first)
            assert step.discards == ["InvalidProposer"] and not step.outbound
        sim.run()
        assert own and foreign
        assert all(m.kind is MsgKind.PRE_PREPARE and m.sender == faulty
                   for m in forged)
        rounds = [(m.height, m.round) for m in forged]
        assert len(rounds) == len(set(rounds))
        assert set(rounds) == foreign
        assert any("InvalidProposer" in entry["discards"]
                   for entry in sim.traces.consensus if entry["node"] != hx(faulty))
