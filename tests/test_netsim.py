"""Event queue ordering, delay/loss regimes, Byzantine transforms."""

import random

import pytest

from ledgersim import contract
from ledgersim.consensus import MsgKind, make_message
from ledgersim.errors import EmptyQueue, InternalInvariantViolation
from ledgersim.model import Address, Block, Hash256, ZERO_HASH, block_hash
from ledgersim.netsim import (
    Behavior, ByzantineSpec, EvKind, EventQueue, Network, NetworkParams,
    byzantine_transform, rng_stream,
)

A = Address(b"\x0a" * 20)
B = Address(b"\x0b" * 20)


def params(**overrides):
    base = dict(gst=100, delta=5, pre_gst_max_delay=50,
                pre_gst_loss_prob=0.1, seed=7)
    base.update(overrides)
    return NetworkParams(**base)


class TestParams:
    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            params(delta=0)

    def test_loss_probability_range(self):
        with pytest.raises(ValueError):
            params(pre_gst_loss_prob=1.5)

    def test_loss_probability_one_allowed(self):
        assert params(pre_gst_loss_prob=1.0).pre_gst_loss_prob == 1.0


class TestEventQueue:
    def test_tie_break_by_seq(self):
        q = EventQueue()
        first = q.schedule(3, EvKind.TIMER, A, "x")
        second = q.schedule(3, EvKind.TIMER, A, "y")
        assert first.seq < second.seq
        assert q.next_event().payload == "x"
        assert q.next_event().payload == "y"

    def test_clock_advances_to_popped_time(self):
        q = EventQueue()
        q.schedule(7, EvKind.TIMER, A, "x")
        q.next_event()
        assert q.now == 7

    def test_cannot_schedule_into_the_past(self):
        q = EventQueue()
        q.schedule(5, EvKind.TIMER, A, "x")
        q.next_event()
        with pytest.raises(ValueError):
            q.schedule(3, EvKind.TIMER, A, "y")

    def test_empty_queue_raises(self):
        with pytest.raises(EmptyQueue):
            EventQueue().next_event()

    def test_random_interleaving_pops_sorted(self):
        rng = random.Random(4)
        q = EventQueue()
        times = [rng.randrange(0, 500) for _ in range(1000)]
        for t in times:
            q.schedule(t, EvKind.TIMER, A, t)
        popped = [q.next_event() for _ in range(1000)]
        keys = [(ev.time, ev.seq) for ev in popped]
        assert keys == sorted(keys)  # sort oracle
        assert [ev.time for ev in popped] == sorted(times)


class TestDelayRegimes:
    def test_post_gst_delivery_within_delta(self):
        net = Network(params(gst=0), EventQueue())
        for _ in range(10_000):
            ev = net.send("m", A, B, now=50)
            assert ev is not None
            assert 50 < ev.time <= 55

    def test_post_gst_delay_over_delta_is_an_invariant_violation(self, monkeypatch):
        """Raised, not asserted, so `python -O` keeps the bound."""
        net = Network(params(gst=0), EventQueue())
        monkeypatch.setattr(net.rng, "randint", lambda lo, hi: hi + 1)
        with pytest.raises(InternalInvariantViolation, match="exceeds delta 5"):
            net.send("m", A, B, now=50)

    def test_pre_gst_loss_probability_one_always_drops(self):
        net = Network(params(pre_gst_loss_prob=1.0), EventQueue())
        for _ in range(200):
            assert net.send("m", A, B, now=10) is None

    def test_pre_gst_delay_bounded_by_max(self):
        net = Network(params(pre_gst_loss_prob=0.0), EventQueue())
        for _ in range(2000):
            ev = net.send("m", A, B, now=0)
            assert ev is not None and 0 < ev.time <= 50

    def test_set_gst_now_switches_regime(self):
        q = EventQueue()
        net = Network(params(gst=10**9, pre_gst_loss_prob=1.0), q)
        assert net.send("m", A, B, now=0) is None
        net.set_gst_now()
        assert net.send("m", A, B, now=0) is not None

    def test_twin_runs_produce_identical_schedules(self):
        def run():
            trace = []
            net = Network(params(), EventQueue(), trace)
            for i in range(500):
                net.send(f"m{i}", A, B, now=i)
            return trace
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


def _proposal(key, txs=()):
    root = contract.state_root(contract.fresh_state())
    block = Block(1, 0, ZERO_HASH, key.address, tuple(txs), root, ())
    return make_message(key, MsgKind.PRE_PREPARE, 1, 0, block_hash(block),
                        proposal=block)


class TestByzantineTransform:
    def test_silent_drops_everything(self, keys):
        key = keys[0]
        spec = ByzantineSpec(key.address, Behavior.SILENT)
        msgs = [make_message(key, MsgKind.PREPARE, 1, 0, ZERO_HASH)
                for _ in range(3)]
        out = byzantine_transform(spec, msgs, key=key,
                                  peers=[k.address for k in keys[1:4]])
        assert out == []

    def test_no_spec_is_identity_broadcast(self, keys):
        key = keys[0]
        msgs = [make_message(key, MsgKind.COMMIT, 1, 0, ZERO_HASH)]
        out = byzantine_transform(None, msgs, key=key,
                                  peers=[k.address for k in keys[1:4]])
        assert out == [(msgs[0], None)]

    def test_equivocate_splits_peers_two_and_one(self, keys):
        key = keys[0]
        spec = ByzantineSpec(key.address, Behavior.EQUIVOCATE)
        peers = [k.address for k in keys[1:4]]
        msg = _proposal(key)

        def tampered_variant(block):
            return Block(block.height, block.round, block.parent_hash,
                         block.proposer, block.txs,
                         Hash256(b"\x77" * 32), block.commit_seals)

        out = byzantine_transform(spec, [msg], key=key,
                                  peers=peers, variant_factory=tampered_variant)
        assert len(out) == 3
        recipients = [to for _, to in out]
        assert recipients == peers
        hashes = [m.block_hash for m, _ in out]
        assert hashes[0] == hashes[1] != hashes[2]

    def test_equivocate_without_factory_passes_through(self, keys):
        key = keys[0]
        spec = ByzantineSpec(key.address, Behavior.EQUIVOCATE)
        msg = _proposal(key)
        out = byzantine_transform(spec, [msg], key=key,
                                  peers=[k.address for k in keys[1:4]])
        assert out == [(msg, None)]
