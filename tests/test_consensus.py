"""Consensus state machine: quorum math, voting rounds, locking, seals."""

import inspect
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ledgersim import contract
from ledgersim.consensus import (
    ConsensusConfig, ConsensusMessage, Engine, MsgKind, Phase, StepResult,
    fault_tolerance, make_message, message_payload, proposer_for, quorum_size,
    validate_finalized_block, verify_message,
)
from ledgersim.crypto import Registry
from ledgersim.model import Address, Block, Hash256, Signature, ZERO_HASH, block_hash
from ledgersim.netsim import Behavior, ByzantineSpec, Network
from ledgersim.node import ValidatorNode
from ledgersim.simulation import Simulation, make_genesis_block

from bft_monitor import install as install_monitor, install_watchdog
from conftest import make_genesis

GENESIS = make_genesis_block()


class TestQuorumMath:
    def test_paper_configuration(self):
        assert fault_tolerance(4) == 1
        assert quorum_size(4) == 3

    def test_degenerate_single_validator(self):
        assert fault_tolerance(1) == 0
        assert quorum_size(1) == 1

    def test_seven_validators(self):
        assert fault_tolerance(7) == 2

    def test_quorum_matches_bruteforce_enumeration(self):
        for n in range(1, 101):
            smallest = next(q for q in range(1, n + 1) if 3 * q > 2 * n)
            assert quorum_size(n) == smallest

    def test_consensus_inequality_holds_when_n_at_least_3f_plus_1(self):
        for n in range(1, 101):
            f = fault_tolerance(n)
            if n >= 3 * f + 1:
                assert n - f > 2 * f

    def test_rejects_zero_validators(self):
        with pytest.raises(ValueError):
            quorum_size(0)
        with pytest.raises(ValueError):
            fault_tolerance(0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_config_sets_its_counts_from_the_validators(self, n):
        validators = tuple(Address(bytes([i]) * 20) for i in range(n))
        config = ConsensusConfig(validators, 30)
        assert (config.n, config.f, config.quorum) == \
            (len(validators), fault_tolerance(n), quorum_size(n))


class TestProposerRotation:
    def _config(self, keys, n):
        return ConsensusConfig(tuple(k.address for k in keys[:n]), 30)

    def test_first_slot(self, keys):
        config = self._config(keys, 4)
        assert proposer_for(0, 0, config) == keys[0].address

    def test_height_plus_round_mod_n(self, keys):
        config = self._config(keys, 4)
        assert proposer_for(5, 2, config) == keys[3].address

    def test_pure_function(self, keys):
        config = self._config(keys, 4)
        for h in range(10):
            for r in range(5):
                assert proposer_for(h, r, config) == proposer_for(h, r, config)


class TestMessageSignatures:
    def test_round_trip(self, keys, registry):
        msg = make_message(keys[0], MsgKind.PREPARE, 3, 1, Hash256(b"\x01" * 32))
        assert verify_message(msg, registry)

    def test_tampered_round_fails(self, keys, registry):
        msg = make_message(keys[0], MsgKind.PREPARE, 3, 1, Hash256(b"\x01" * 32))
        assert not verify_message(replace(msg, round=2), registry)

    def test_payload_covers_kind(self):
        h = Hash256(b"\x01" * 32)
        assert message_payload(MsgKind.PREPARE, 1, 0, h) != \
            message_payload(MsgKind.COMMIT, 1, 0, h)


@pytest.fixture()
def verifies(monkeypatch):
    """Every `Registry.verify_by_address` call, as its (registry, address)."""
    calls = []
    verify = Registry.verify_by_address

    def counted(self, address, msg, sig):
        calls.append((self, address))
        return verify(self, address, msg, sig)

    monkeypatch.setattr(Registry, "verify_by_address", counted)
    return calls


class TestVerdictCache:
    """`verify_message` keeps a pass on the message, per registry object."""

    def _vote(self, key):
        return make_message(key, MsgKind.PREPARE, 1, 0, Hash256(b"\x01" * 32))

    def test_a_broadcast_is_checked_once_for_every_recipient(self, keys, registry,
                                                             verifies):
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
        msg = self._vote(keys[0])
        for key in keys[1:4]:
            engine = _make_engine(key, config, registry)
            engine.start_height(1)
            assert "InvalidSignature" not in engine.handle_message(msg).discards
        assert verifies == [(registry, keys[0].address)]
        assert msg._verified is registry

    def test_a_tampered_signature_is_never_kept(self, keys, registry, verifies):
        msg = self._vote(keys[0])
        forged = replace(msg, signature=Signature(bytes(32)))
        for _ in range(2):
            assert not verify_message(forged, registry)
        assert len(verifies) == 2 and forged._verified is None
        assert verify_message(msg, registry) and msg._verified is registry

    def test_an_unregistered_sender_is_never_kept(self, keys, verifies):
        partial = Registry()
        for key in keys[1:]:
            partial.register(key)
        msg = self._vote(keys[0])
        for _ in range(2):
            assert not verify_message(msg, partial)
        assert len(verifies) == 2 and msg._verified is None

    def test_a_non_validator_sender_is_never_kept(self, keys, registry, verifies):
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
        engine = _make_engine(keys[0], config, registry)
        engine.start_height(1)
        msg = self._vote(keys[6])  # registered, but not a validator
        assert engine.handle_message(msg).discards == ["NotValidator"]
        assert verifies == [] and msg._verified is None

    def test_another_registry_checks_again(self, keys, registry, verifies):
        msg = self._vote(keys[0])
        assert verify_message(msg, registry)
        other = Registry()
        assert not verify_message(msg, other)  # it does not know the sender
        assert msg._verified is registry
        other.register(keys[0])
        assert verify_message(msg, other) and msg._verified is other
        assert verifies == [(registry, keys[0].address), (other, keys[0].address),
                            (other, keys[0].address)]

    def test_the_verdict_is_no_part_of_the_value(self, keys, registry):
        msg = self._vote(keys[0])
        twin = replace(msg)
        assert verify_message(msg, registry)
        assert twin._verified is None
        assert msg == twin and hash(msg) == hash(twin) and repr(msg) == repr(twin)
        assert "_verified" not in repr(msg)
        assert "_verified" not in inspect.signature(ConsensusMessage).parameters
        with pytest.raises(TypeError):
            ConsensusMessage(*(getattr(msg, f) for f in (
                "kind", "height", "round", "block_hash", "sender", "signature",
                "proposal", "certificate")), registry)


def _make_engine(key, config, registry):
    def build_block(height, round_):
        root = contract.state_root(contract.fresh_state())
        return Block(height, round_, block_hash(GENESIS), key.address, (),
                     root, ())
    return Engine(config, key, registry, build_block, lambda b: True)


class Pump:
    """Synchronous message pump between engines; no delays, no loss."""

    def __init__(self, keys, registry, n):
        self.config = ConsensusConfig(tuple(k.address for k in keys[:n]), 30)
        self.engines = {k.address: _make_engine(k, self.config, registry)
                        for k in keys[:n]}
        self.queue: deque = deque()
        self.timers: dict[Address, tuple[int, int]] = {}
        self.finalized: dict[Address, Block] = {}
        self.muted: set[Address] = set()

    def start_all(self, height=1):
        for addr, engine in self.engines.items():
            self._absorb(addr, engine.start_height(height))
        self.deliver_all()

    def _absorb(self, sender, step: StepResult):
        if step.timer is not None:
            self.timers[sender] = step.timer
        if step.finalized is not None:
            self.finalized.setdefault(sender, step.finalized)
        if sender in self.muted:
            return
        for msg, _ in step.outbound:
            self.queue.append((sender, msg))

    def deliver_all(self, limit=10_000):
        while self.queue and limit:
            limit -= 1
            sender, msg = self.queue.popleft()
            for addr, engine in self.engines.items():
                if addr == sender:
                    continue
                self._absorb(addr, engine.handle_message(msg))
        assert limit, "message storm"

    def fire_timer(self, addr):
        _, epoch = self.timers[addr]
        self._absorb(addr, self.engines[addr].handle_timer(epoch))


class TestSingleValidator:
    def test_start_height_finalizes_immediately(self, keys, registry):
        pump = Pump(keys, registry, 1)
        addr = keys[0].address
        step = pump.engines[addr].start_height(1)
        assert step.finalized is not None
        assert step.finalized.height == 1
        assert len(step.finalized.commit_seals) == 1
        assert pump.engines[addr].phase is Phase.FINALIZED


class TestHonestRun:
    def test_four_validators_finalize_with_three_seals(self, keys, registry):
        pump = Pump(keys, registry, 4)
        pump.start_all(height=1)
        assert set(pump.finalized) == set(pump.config.validators)
        hashes = {block_hash(b) for b in pump.finalized.values()}
        assert len(hashes) == 1
        for block in pump.finalized.values():
            assert len(block.commit_seals) >= 3
            assert validate_finalized_block(block, pump.config, registry,
                                            parent=GENESIS)

    def test_proposer_for_height_1_round_0_proposes(self, keys, registry):
        pump = Pump(keys, registry, 4)
        proposer = proposer_for(1, 0, pump.config)
        step = pump.engines[proposer].start_height(1)
        kinds = [m.kind for m, _ in step.outbound]
        assert MsgKind.PRE_PREPARE in kinds and MsgKind.PREPARE in kinds


class TestSilentProposer:
    def test_round_change_recovers_in_round_one(self, keys, registry):
        pump = Pump(keys, registry, 4)
        silent = proposer_for(1, 0, pump.config)
        pump.muted.add(silent)
        pump.start_all(height=1)
        assert not pump.finalized  # nothing can finalize without a proposal

        # every live validator times out and broadcasts ROUND_CHANGE(1)
        for addr in pump.config.validators:
            if addr != silent:
                pump.fire_timer(addr)
        pump.deliver_all()

        live = [a for a in pump.config.validators if a != silent]
        assert all(pump.engines[a].round == 1 for a in live)
        assert all(a in pump.finalized for a in live)
        for addr in live:
            assert pump.finalized[addr].round == 1

    def test_finalized_block_passes_validation(self, keys, registry):
        pump = Pump(keys, registry, 4)
        silent = proposer_for(1, 0, pump.config)
        pump.muted.add(silent)
        pump.start_all(height=1)
        for addr in pump.config.validators:
            if addr != silent:
                pump.fire_timer(addr)
        pump.deliver_all()
        block = next(iter(pump.finalized.values()))
        assert validate_finalized_block(block, pump.config, registry,
                                        parent=GENESIS)


class TestDiscards:
    def test_wrong_proposer_pre_prepare_discarded(self, keys, registry):
        pump = Pump(keys, registry, 4)
        victim = proposer_for(1, 0, pump.config)
        intruder = next(k for k in keys[:4] if k.address != victim)
        engine = pump.engines[victim]
        engine.start_height(1)
        root = contract.state_root(contract.fresh_state())
        block = Block(1, 0, block_hash(GENESIS), intruder.address, (), root, ())
        msg = make_message(intruder, MsgKind.PRE_PREPARE, 1, 0,
                           block_hash(block), proposal=block)
        step = engine.handle_message(msg)
        assert "InvalidProposer" in step.discards
        assert engine.accepted is None or engine.accepted.proposer == victim

    @staticmethod
    def proposal_at_a_peer(keys, registry):
        """The proposer of height 1, round 0, its block, and a started
        engine of another validator."""
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
        proposer = next(k for k in keys if k.address == proposer_for(1, 0, config))
        peer = next(k for k in keys[:4] if k is not proposer)
        engine = _make_engine(peer, config, registry)
        engine.start_height(1)
        return proposer, _make_engine(proposer, config, registry).build_block(1, 0), engine

    @pytest.mark.parametrize("proposal", ["none", "other_block"])
    def test_malformed_pre_prepare_discarded(self, keys, registry, proposal):
        """A PRE_PREPARE with no block, or with a block that does not hash
        to the one it names."""
        proposer, block, engine = self.proposal_at_a_peer(keys, registry)
        other = replace(block, state_root=Hash256(b"\x07" * 32))
        msg = make_message(proposer, MsgKind.PRE_PREPARE, 1, 0, block_hash(block),
                           proposal=None if proposal == "none" else other)
        step = engine.handle_message(msg)
        assert step.discards == ["MalformedProposal"] and not step.outbound
        assert engine.accepted is None

    def test_second_pre_prepare_in_a_round_discarded(self, keys, registry):
        proposer, block, engine = self.proposal_at_a_peer(keys, registry)
        other = replace(block, state_root=Hash256(b"\x07" * 32))
        first, second = (make_message(proposer, MsgKind.PRE_PREPARE, 1, 0, block_hash(b),
                                      proposal=b) for b in (block, other))
        assert [m.kind for m, _ in engine.handle_message(first).outbound] == [MsgKind.PREPARE]
        step = engine.handle_message(second)
        assert step.discards == ["DuplicateMessage"] and not step.outbound
        assert engine.accepted == block

    def test_duplicate_prepare_discarded(self, keys, registry):
        pump = Pump(keys, registry, 4)
        target = pump.config.validators[0]
        engine = pump.engines[target]
        engine.start_height(1)
        voter = keys[2]
        msg = make_message(voter, MsgKind.PREPARE, 1, 0, Hash256(b"\x09" * 32))
        first = engine.handle_message(msg)
        assert "DuplicateMessage" not in first.discards
        second = engine.handle_message(msg)
        assert "DuplicateMessage" in second.discards

    def test_stale_round_message_discarded(self, keys, registry):
        pump = Pump(keys, registry, 4)
        silent = proposer_for(1, 0, pump.config)
        pump.muted.add(silent)
        pump.start_all(height=1)
        for addr in pump.config.validators:
            if addr != silent:
                pump.fire_timer(addr)
        pump.deliver_all()
        live = next(a for a in pump.config.validators if a != silent)
        engine = pump.engines[live]
        # a fresh height keeps the example self-contained
        engine.start_height(2)
        engine._round_changes.setdefault(1, {})
        engine.round = 1  # pretend round already advanced
        voter = next(k for k in keys[:4] if k.address != live)
        stale = make_message(voter, MsgKind.PREPARE, 2, 0, Hash256(b"\x01" * 32))
        step = engine.handle_message(stale)
        assert "StaleRound" in step.discards

    def test_a_flipped_signature_bit_counts_toward_no_quorum(self, keys, registry):
        """V0 holds the proposal and two prepares, its own and the
        proposer's; V2's prepare would make the quorum of three."""
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
        engine = _make_engine(keys[0], config, registry)
        engine.start_height(1)
        proposer = next(k for k in keys if k.address == proposer_for(1, 0, config))
        block = _make_engine(proposer, config, registry).build_block(1, 0)
        bh = block_hash(block)
        for msg in (make_message(proposer, MsgKind.PRE_PREPARE, 1, 0, bh, proposal=block),
                    make_message(proposer, MsgKind.PREPARE, 1, 0, bh)):
            assert not engine.handle_message(msg).discards
        assert len(engine._prepares[(0, bh)]) == 2

        vote = make_message(keys[2], MsgKind.PREPARE, 1, 0, bh)
        sig = bytearray(vote.signature)
        sig[5] ^= 0x10
        step = engine.handle_message(replace(vote, signature=Signature(bytes(sig))))
        assert step.discards == ["InvalidSignature"] and not step.outbound
        assert keys[2].address not in engine._prepares[(0, bh)]
        assert engine.phase is Phase.AWAITING_PROPOSAL and engine.locked_hash is None

        step = engine.handle_message(vote)
        assert [m.kind for m, _ in step.outbound] == [MsgKind.COMMIT]
        assert engine.phase is Phase.PREPARED and engine.locked_hash == bh

    def test_unknown_sender_rejected(self, keys, registry):
        pump = Pump(keys, registry, 4)
        outsider = keys[6]  # registered key, but not a validator
        engine = pump.engines[pump.config.validators[0]]
        engine.start_height(1)
        msg = make_message(outsider, MsgKind.PREPARE, 1, 0, ZERO_HASH)
        step = engine.handle_message(msg)
        assert "NotValidator" in step.discards


class TestLocking:
    def test_prepared_node_only_commits_locked_hash(self, keys, registry):
        pump = Pump(keys, registry, 4)
        pump.start_all(height=1)
        for engine in pump.engines.values():
            sent_commits = set()
            # inspect the seals recorded for this height
            for (r, bh), seals in engine._commits.items():
                if engine.key.address in seals:
                    sent_commits.add(bh)
            assert len(sent_commits) <= 1
            if sent_commits and engine.locked_hash is not None:
                assert sent_commits == {engine.locked_hash}


class TestFutureRoundVotes:
    def test_kept_votes_finalize_on_entering_their_round(self, keys, registry):
        """PREPAREs and COMMITs for a later round are kept without a
        discard; once the engine enters that round and accepts the
        proposal it commits and finalizes with no further votes."""
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
        engine = _make_engine(keys[0], config, registry)
        engine.start_height(1)
        proposer = keys[2]
        assert proposer_for(1, 1, config) == proposer.address
        block = _make_engine(proposer, config, registry).build_block(1, 1)
        bh = block_hash(block)
        for kind in (MsgKind.PREPARE, MsgKind.COMMIT):
            for voter in keys[1:4]:
                step = engine.handle_message(make_message(voter, kind, 1, 1, bh))
                assert not step.discards and not step.outbound
                assert step.finalized is None
        for voter in keys[1:4]:
            engine.handle_message(
                make_message(voter, MsgKind.ROUND_CHANGE, 1, 1, ZERO_HASH))
        assert engine.round == 1 and engine.phase is Phase.AWAITING_PROPOSAL

        step = engine.handle_message(make_message(
            proposer, MsgKind.PRE_PREPARE, 1, 1, bh, proposal=block))
        assert [m.kind for m, _ in step.outbound] == [MsgKind.PREPARE, MsgKind.COMMIT]
        assert engine.locked_hash == bh
        assert step.finalized is not None and block_hash(step.finalized) == bh
        assert step.finalized.round == 1 and len(step.finalized.commit_seals) == 4
        assert validate_finalized_block(step.finalized, config, registry, parent=GENESIS)

    def test_a_later_round_commit_quorum_waits_for_its_round(self, keys, registry):
        """Only a commit quorum of the engine's current round finalizes. V0
        holds V1's round-0 block when round 1's COMMITs for it arrive; it
        finalizes on entering round 1, with no further message."""
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
        engine = _make_engine(keys[0], config, registry)
        engine.start_height(1)
        block = _make_engine(keys[1], config, registry).build_block(1, 0)
        bh = block_hash(block)
        engine.handle_message(make_message(keys[1], MsgKind.PRE_PREPARE, 1, 0, bh, block))
        for voter in keys[1:4]:
            step = engine.handle_message(make_message(voter, MsgKind.COMMIT, 1, 1, bh))
            assert step.finalized is None and not step.discards
        assert engine.phase is Phase.AWAITING_PROPOSAL
        for voter in keys[1:3]:
            step = engine.handle_message(
                make_message(voter, MsgKind.ROUND_CHANGE, 1, 1, ZERO_HASH))
        assert engine.round == 1 and engine.phase is Phase.FINALIZED
        assert step.finalized is not None and block_hash(step.finalized) == bh
        assert step.finalized.round == 1 and len(step.finalized.commit_seals) == 3
        assert validate_finalized_block(step.finalized, config, registry, parent=GENESIS)


# a ROUND_CHANGE as (sender index, target round), or None for a timer fire
_ROUND_CHANGE_STEPS = st.lists(st.none() | st.tuples(st.integers(0, 6), st.integers(1, 6)),
                               max_size=40)


class TestRoundChangeQuorum:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(n=st.sampled_from([4, 7]), steps=_ROUND_CHANGE_STEPS)
    # the echo requests round 1, then a quorum for round 2 enters round 2
    @example(n=4, steps=[(1, 2), (2, 1), (2, 2), (3, 2)])
    def test_no_round_above_the_current_one_holds_a_quorum(self, keys, n, steps):
        """The message that completes a quorum of ROUND_CHANGEs for a round
        above the current one moves the engine to that round at once, so
        `_on_round_change` need only look at the bucket it just filled.
        And `rc_target` never falls below the round, so a timer's target
        `rc_target + 1` is always a later round."""
        registry = Registry()
        for key in keys[:n]:
            registry.register(key)
        config = ConsensusConfig(tuple(k.address for k in keys[:n]), 30)
        engine = _make_engine(keys[0], config, registry)
        engine.start_height(1)
        for step in steps:
            if step is None:
                engine.handle_timer(engine.timer_epoch)
            else:
                sender, target = step
                engine.handle_message(make_message(
                    keys[sender % n], MsgKind.ROUND_CHANGE, 1, target, ZERO_HASH))
            assert all(len(bucket) < config.quorum
                       for target, bucket in engine._round_changes.items()
                       if target > engine.round)
            assert engine.rc_target >= engine.round


class TestRoundTimeoutSchedule:
    """Round r times out `base_round_timeout · 2^r` ticks after it is armed.
    The engine returns each timer as (timeout, epoch), and the simulation
    fires it that many ticks after the step that armed it."""

    BASE = 30

    def engine(self, keys, registry):
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), self.BASE)
        return _make_engine(keys[0], config, registry)

    def test_start_height_arms_round_zero(self, keys, registry):
        engine = self.engine(keys, registry)
        for height in (1, 2):
            assert engine.start_height(height).timer == (self.BASE, engine.timer_epoch)

    @pytest.mark.parametrize("target", [1, 2, 3])
    def test_a_round_change_quorum_arms_the_round_entered(self, keys, registry, target):
        engine = self.engine(keys, registry)
        engine.start_height(1)
        for voter in keys[1:4]:
            step = engine.handle_message(
                make_message(voter, MsgKind.ROUND_CHANGE, 1, target, ZERO_HASH))
            if engine.round == target:
                break
        assert engine.round == target
        assert step.timer == (self.BASE * 2 ** target, engine.timer_epoch)

    def test_a_timer_rearms_for_the_round_it_requests(self, keys, registry):
        engine = self.engine(keys, registry)
        engine.start_height(1)
        for target in range(1, 6):
            step = engine.handle_timer(engine.timer_epoch)
            assert engine.rc_target == target and engine.round == 0
            assert step.timer == (self.BASE * 2 ** target, engine.timer_epoch)

    def test_a_simulation_fires_each_round_timer_at_entry_plus_timeout(self, monkeypatch):
        """V1, the proposer of height 1 round 0, is silent, and messages
        are lost before GST, so rounds above 0 are entered too."""
        sim = Simulation(make_genesis(seed=5, gst=150, base_round_timeout=self.BASE))
        sim.inject_fault(ByzantineSpec(sim.config.validators[1], Behavior.SILENT))
        deadlines: dict[tuple[Address, int], int] = {}  # (node, epoch) -> due time
        entered: dict[Address, tuple[int, int]] = {}  # node -> (height, round)
        rounds: set[int] = set()  # every round entered
        fired: list[tuple[Address, int, int]] = []  # (node, epoch, time)

        def observe(node, cause, now, result, sent):
            engine = node.engine
            if entered.get(node.address) != (engine.height, engine.round):
                entered[node.address] = (engine.height, engine.round)
                rounds.add(engine.round)
                assert result.timer == (self.BASE * 2 ** engine.round, engine.timer_epoch)
            if result.timer is not None:
                timeout, epoch = result.timer
                deadlines[node.address, epoch] = now + timeout
        sim.observers.append(observe)

        handle_timer = ValidatorNode.handle_timer

        def timed(node, epoch):
            fired.append((node.address, epoch, sim.queue.now))
            return handle_timer(node, epoch)
        monkeypatch.setattr(ValidatorNode, "handle_timer", timed)

        assert sim.run_until_min_height(5)
        assert max(rounds) >= 1
        assert fired and all(deadlines[a, epoch] == t for a, epoch, t in fired)


def _seals(signers, round_, block):
    """(sender, PREPARE seal) pairs over `block` at height 1, `round_`."""
    return tuple(sorted((k.address, make_message(
        k, MsgKind.PREPARE, 1, round_, block_hash(block)).signature) for k in signers))


class TestJustifiedProposal:
    """IBFT 2.0's prepared certificate, (round, PREPARE seals). A locked
    node's ROUND_CHANGE carries its locked block and its certificate; a
    proposer re-proposes the block with the highest certificate it holds;
    a locked node prepares another block only on a valid certificate for
    it, of a round in [lock round, proposal round). At height 1, V1, V2
    and V3 propose rounds 0, 1 and 2, and V0 proposes round 3."""

    @pytest.fixture()
    def setup(self, keys, registry):
        """V0's started engine, and the block each round's proposer builds."""
        config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
        blocks = [_make_engine(keys[(1 + r) % 4], config, registry).build_block(1, r)
                  for r in range(4)]
        engine = _make_engine(keys[0], config, registry)
        engine.start_height(1)
        return engine, blocks

    @staticmethod
    def move(engine, keys, round_, carried=(None, None)):
        """Deliver V1's and V2's ROUND_CHANGEs to `round_`, each with the
        (block, certificate) given, or none. V0's own ROUND_CHANGE, an echo
        of the second unless it sent one before, completes the quorum.
        Returns the step that entered the round."""
        for key, held in zip(keys[1:3], carried):
            block, certificate = held or (None, None)
            step = engine.handle_message(make_message(
                key, MsgKind.ROUND_CHANGE, 1, round_,
                block_hash(block) if block else ZERO_HASH, block, certificate))
        assert engine.round == round_
        return step

    @staticmethod
    def lock(engine, keys, blocks, round_):
        """Lock V0 on `round_`'s block in that round: the proposal, then the
        PREPAREs of its proposer and of one other validator."""
        if engine.round < round_:
            TestJustifiedProposal.move(engine, keys, round_)
        proposer = keys[(1 + round_) % 4]
        bh = block_hash(blocks[round_])
        engine.handle_message(make_message(proposer, MsgKind.PRE_PREPARE, 1, round_, bh,
                                           blocks[round_]))
        for key in (proposer, keys[3] if proposer is not keys[3] else keys[1]):
            engine.handle_message(make_message(key, MsgKind.PREPARE, 1, round_, bh))
        assert engine.locked_hash == bh and engine.lock_certificate[0] == round_

    @staticmethod
    def proposal(step):
        (msg,) = [m for m, _ in step.outbound if m.kind is MsgKind.PRE_PREPARE]
        return msg

    @pytest.mark.parametrize("lock_round, held", [(0, (1, 2)), (2, (0, 1)), (1, (2, 0))],
                             ids=["the_second_sender", "the_own_lock", "the_first_sender"])
    def test_the_highest_certificate_wins(self, keys, setup, lock_round, held):
        """V0 is locked in `lock_round`; V1 and V2 send round 3's
        ROUND_CHANGEs with certificates of the rounds in `held`."""
        engine, blocks = setup
        self.lock(engine, keys, blocks, lock_round)
        signers = keys[1:4]
        step = self.move(engine, keys, 3, [(blocks[r], (r, _seals(signers, r, blocks[r])))
                                           for r in held])
        best = max(lock_round, *held)
        msg = self.proposal(step)
        assert msg.sender == keys[0].address
        assert msg.proposal == blocks[best] and msg.certificate[0] == best

    def test_the_own_lock_counts_without_its_own_round_change(self, keys, setup):
        """V0 asks for round 3 before it locks in round 2, so no stored
        ROUND_CHANGE carries its certificate: its lock alone justifies it."""
        engine, blocks = setup
        self.move(engine, keys, 2)
        engine.handle_timer(engine.timer_epoch)
        assert engine._round_changes[3][keys[0].address].certificate is None
        self.lock(engine, keys, blocks, 2)
        step = self.move(engine, keys, 3)
        msg = self.proposal(step)
        assert msg.proposal == blocks[2] and msg.certificate == engine.lock_certificate

    def test_no_certificate_means_a_fresh_block(self, keys, setup):
        """A ROUND_CHANGE that names a block with no certificate, as a
        lock hint once did, justifies nothing."""
        engine, blocks = setup
        step = self.move(engine, keys, 3, [(blocks[0], None), None])
        msg = self.proposal(step)
        assert msg.certificate is None and msg.proposal not in blocks[:3]
        assert (msg.proposal.proposer, msg.proposal.round) == (keys[0].address, 3)

    # each certificate justifies nothing: (block index, round, signers)
    BAD = {
        "under_quorum": (2, 1, (1, 2)),
        "duplicate_signer": (2, 1, (1, 1, 2)),
        "non_validator_signer": (2, 1, (1, 2, 5)),
        "bad_seal": (2, 1, "flipped"),
        "another_block": (1, 1, (1, 2, 3)),
        "round_of_the_message": (2, 2, (1, 2, 3)),
        "round_above_the_message": (2, 3, (1, 2, 3)),
    }

    @staticmethod
    def certificate(keys, blocks, case):
        index, round_, signers = TestJustifiedProposal.BAD.get(case, (2, 1, (1, 2, 3)))
        if signers == "flipped":
            (addr, seal), *rest = _seals(keys[1:4], round_, blocks[index])
            return round_, ((addr, Signature(bytes(seal[:-1]) + bytes([seal[-1] ^ 1]))),
                            *rest)
        return round_, _seals([keys[i] for i in signers], round_, blocks[index])

    @pytest.mark.parametrize("case", ["valid", *BAD])
    def test_a_bad_certificate_conflicts_with_the_lock(self, keys, setup, case):
        """V0, locked in round 0, is in round 2, whose proposer V3
        proposes its own block with a certificate."""
        engine, blocks = setup
        self.lock(engine, keys, blocks, 0)
        self.move(engine, keys, 2)
        step = engine.handle_message(make_message(
            keys[3], MsgKind.PRE_PREPARE, 1, 2, block_hash(blocks[2]), blocks[2],
            self.certificate(keys, blocks, case)))
        if case == "valid":
            assert not step.discards and engine.accepted == blocks[2]
        else:
            assert step.discards == ["ConflictsWithLock"] and engine.accepted is None

    @pytest.mark.parametrize("case", ["valid", *BAD, "proposal_not_named"])
    def test_a_bad_certificate_voids_a_round_change(self, keys, setup, case):
        """V1 asks for round 2 with round 2's block and a certificate; for
        `proposal_not_named` the message names that block but carries
        round 1's."""
        engine, blocks = setup
        carried = blocks[1] if case == "proposal_not_named" else blocks[2]
        step = engine.handle_message(make_message(
            keys[1], MsgKind.ROUND_CHANGE, 1, 2, block_hash(blocks[2]), carried,
            self.certificate(keys, blocks, case)))
        stored = keys[1].address in engine._round_changes.get(2, {})
        if case == "valid":
            assert not step.discards and stored
        else:
            assert step.discards == ["InvalidCertificate"] and not stored

    @pytest.mark.parametrize("certificate_round", [0, 1])
    def test_a_certificate_below_the_lock_conflicts_with_it(self, keys, setup,
                                                           certificate_round):
        """V0, locked in round 1, is in round 2: a certificate of round 0
        is older than its lock, one of round 1 is not."""
        engine, blocks = setup
        self.lock(engine, keys, blocks, 1)
        self.move(engine, keys, 2)
        step = engine.handle_message(make_message(
            keys[3], MsgKind.PRE_PREPARE, 1, 2, block_hash(blocks[2]), blocks[2],
            (certificate_round, _seals(keys[1:4], certificate_round, blocks[2]))))
        if certificate_round == 0:
            assert step.discards == ["ConflictsWithLock"] and engine.accepted is None
        else:
            assert not step.discards and engine.accepted == blocks[2]


class TestLockSplit:
    """ROADMAP item 1's schedule. V1 is silent except for scripted
    messages, and before t=100 the network drops every consensus message
    but a chosen few, as pre-GST loss may. That leaves V0 locked on V1's
    round-0 block B1, and V2 and V3 on V2's round-1 block B2."""

    ALLOWED = {  # (kind, round, sender index, recipient index)
        (MsgKind.PREPARE, 0, 2, 0),
        (MsgKind.ROUND_CHANGE, 1, 2, 3), (MsgKind.ROUND_CHANGE, 1, 3, 2),
        (MsgKind.PRE_PREPARE, 1, 2, 3),
        (MsgKind.PREPARE, 1, 2, 3), (MsgKind.PREPARE, 1, 3, 2),
    }

    @pytest.fixture()
    def split(self, monkeypatch):
        sim = Simulation(make_genesis(seed=1, gst=0, delta=1, pre_gst_loss_prob=0))
        v = sim.config.validators
        sim.inject_fault(ByzantineSpec(v[1], Behavior.SILENT))
        monitor = install_monitor(sim)
        send = Network.send

        def lossy_send(net, payload, frm, to, now):
            if now < 100 and isinstance(payload, ConsensusMessage) and (
                    payload.kind, payload.round, v.index(frm), v.index(to)
            ) not in self.ALLOWED:
                return None
            return send(net, payload, frm, to, now)
        monkeypatch.setattr(Network, "send", lossy_send)

        v1 = sim.validator_keys[1]
        b1 = sim.nodes[v[1]].build_block(1, 0)
        b2 = sim.nodes[v[2]].build_block(1, 1)
        script = [
            (1, make_message(v1, MsgKind.PRE_PREPARE, 1, 0, block_hash(b1), b1), (0, 2)),
            (2, make_message(v1, MsgKind.PREPARE, 1, 0, block_hash(b1)), (0,)),
            (31, make_message(v1, MsgKind.ROUND_CHANGE, 1, 1, ZERO_HASH), (2, 3)),
            (33, make_message(v1, MsgKind.PREPARE, 1, 1, block_hash(b2)), (2, 3)),
        ]
        for at, msg, recipients in script:
            for i in recipients:
                sim.queue.schedule(at, v[i], msg)
        sim.run(until=100)
        return sim, monitor, block_hash(b1), block_hash(b2)

    def test_schedule_splits_the_honest_locks(self, split):
        sim, monitor, b1, b2 = split
        locks = [sim.nodes[a].engine.locked_hash for a in sim.config.validators]
        assert (locks[0], locks[2], locks[3]) == (b1, b2, b2)
        assert sim.min_honest_height() == 0
        assert monitor.violations == []

    def test_split_locks_stay_safe_at_every_step(self, split):
        sim, monitor, _, _ = split
        sim.run(until=20_000)
        assert monitor.violations == [] and sim.safety_violation is None

    def test_split_locks_finalize_after_gst(self, split):
        sim, _, _, _ = split
        watchdog = install_watchdog(sim, gst=100)  # the scripted loss ends at t=100
        sim.run(until=20_000)
        assert sim.safety_violation is None
        assert sim.min_honest_height() >= 1
        assert watchdog.violations == []


class TestValidateFinalizedBlock:
    def _finalized_block(self, keys, registry):
        pump = Pump(keys, registry, 4)
        pump.start_all(height=1)
        return next(iter(pump.finalized.values())), pump.config

    def test_three_valid_seals_pass(self, keys, registry):
        block, config = self._finalized_block(keys, registry)
        assert validate_finalized_block(block, config, registry, parent=GENESIS)

    def test_two_seals_fail(self, keys, registry):
        block, config = self._finalized_block(keys, registry)
        from dataclasses import replace
        trimmed = replace(block, commit_seals=block.commit_seals[:2])
        assert not validate_finalized_block(trimmed, config, registry,
                                            parent=GENESIS)

    def test_duplicated_signer_fails(self, keys, registry):
        block, config = self._finalized_block(keys, registry)
        from dataclasses import replace
        seals = block.commit_seals
        forged = replace(block, commit_seals=(seals[0], seals[0], seals[1]))
        assert not validate_finalized_block(forged, config, registry,
                                            parent=GENESIS)

    def test_wrong_parent_fails(self, keys, registry):
        block, config = self._finalized_block(keys, registry)
        other_parent = Block(0, 0, ZERO_HASH, Address(bytes(20)), (),
                             Hash256(b"\x55" * 32), ())
        assert not validate_finalized_block(block, config, registry,
                                            parent=other_parent)
