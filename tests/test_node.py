"""Mempool, block assembly, execution, event feeds, replication."""

from dataclasses import replace

import pytest

from ledgersim import contract
from ledgersim.consensus import (
    ConsensusConfig, MsgKind, make_message, message_payload,
)
from ledgersim.crypto import KeyPair, sign
from ledgersim.errors import InternalInvariantViolation
from ledgersim.model import (
    AddFunds, AddRecipient, Amount, Deploy, Hash256, SendAllowance,
    Signature, Transaction, block_hash, tx_hash,
)
from ledgersim.netsim import Behavior, ByzantineSpec
from ledgersim.node import (
    CATCH_UP_BLOCKS, BlockAnnounce, ExecutionTable, ValidatorNode,
)
from ledgersim.simulation import Simulation, make_genesis_block

from conftest import make_genesis


def _sealed(block, signers):
    """`block` with a commit seal from each key in `signers`."""
    payload = message_payload(MsgKind.COMMIT, block.height, block.round, block_hash(block))
    return replace(block, commit_seals=tuple((k.address, sign(k, payload)) for k in signers))


def _tx(key, nonce, payload, gas_limit=None):
    gas = contract.gas_for(payload) if gas_limit is None else gas_limit
    unsigned = Transaction(key.address, nonce, payload, gas, 0, Signature(b""))
    return Transaction(key.address, nonce, payload, gas, 0,
                       sign(key, tx_hash(unsigned)))


@pytest.fixture()
def node(keys, registry):
    config = ConsensusConfig(tuple(k.address for k in keys[:4]), 30)
    return ValidatorNode(keys[0], config, registry, make_genesis_block(),
                         4_500_000, ExecutionTable())


class TestMempool:
    def test_fresh_valid_tx_accepted(self, node, keys):
        tx = _tx(keys[0], 0, Deploy())
        assert node.submit_transaction(tx) == (True, None)
        assert list(node.mempool.pending.values()) == [tx]

    def test_duplicate_rejected(self, node, keys):
        tx = _tx(keys[0], 0, Deploy())
        node.submit_transaction(tx)
        accepted, reason = node.submit_transaction(tx)
        assert not accepted and reason == "DuplicateTx"

    def test_unregistered_key_rejected(self, node):
        stranger = KeyPair.from_seed(b"\x99" * 32)
        tx = _tx(stranger, 0, Deploy())
        accepted, reason = node.submit_transaction(tx)
        assert not accepted and reason == "InvalidSignature"

    def test_bad_signature_rejected(self, node, keys):
        tx = _tx(keys[0], 0, Deploy())
        forged = Transaction(tx.sender, tx.nonce, tx.payload, tx.gas_limit,
                             tx.gas_price, Signature(b"\x00" * 32))
        accepted, reason = node.submit_transaction(forged)
        assert not accepted and reason == "InvalidSignature"


class TestBuildBlock:
    def test_three_small_txs_all_included(self, node, keys):
        node.submit_transaction(_tx(keys[0], 0, Deploy()))
        node.submit_transaction(_tx(keys[0], 1, AddFunds(Amount(5))))
        node.submit_transaction(_tx(keys[0], 2, AddFunds(Amount(6))))
        block = node.build_block(1, 0)
        assert len(block.txs) == 3

    def test_gas_limit_cuts_at_214_of_215(self, node, keys):
        for nonce in range(215):
            node.submit_transaction(_tx(keys[0], nonce, AddFunds(Amount(nonce)),
                                        gas_limit=21_000))
        block = node.build_block(1, 0)
        assert len(block.txs) == 214
        assert sum(t.gas_limit for t in block.txs) == 4_494_000

    def test_empty_mempool_heartbeat_keeps_parent_root(self, node):
        block = node.build_block(1, 0)
        assert block.txs == ()
        assert block.state_root == node.chain.head.state_root

    def test_a_height_off_the_head_is_an_invariant_violation(self, node):
        """Raised, not asserted, so `python -O` keeps the check."""
        with pytest.raises(InternalInvariantViolation, match="height 2"):
            node.build_block(2, 0)


class TestValidateBlock:
    def test_honest_block_validates(self, node):
        block = node.build_block(1, 0)
        assert node.validate_block(block)

    def test_tampered_state_root_refused(self, node):
        block = node.build_block(1, 0)
        bad = replace(block, state_root=Hash256(b"\x13" * 32))
        assert not node.validate_block(bad)

    def test_wrong_height_refused(self, node):
        block = node.build_block(1, 0)
        assert not node.validate_block(replace(block, height=2))

    def test_wrong_parent_refused(self, node):
        block = node.build_block(1, 0)
        assert not node.validate_block(replace(block, parent_hash=Hash256(b"\x13" * 32)))

    def test_proposer_outside_the_validators_refused(self, node, keys):
        block = node.build_block(1, 0)
        assert not node.validate_block(replace(block, proposer=keys[5].address))

    def test_overweight_block_refused(self, node, keys):
        txs = tuple(_tx(keys[0], n, AddFunds(Amount(1)), gas_limit=2_000_000)
                    for n in range(3))
        base = node.build_block(1, 0)
        fat = replace(base, txs=txs)
        assert not node.validate_block(fat)

    def test_flipped_tx_signature_refused(self, node, keys):
        tx = _tx(keys[0], 0, Deploy())
        node.submit_transaction(tx)
        block = node.build_block(1, 0)
        sig = tx.signature
        forged = replace(tx, signature=Signature(bytes([sig[0] ^ 1]) + sig[1:]))
        # execution ignores the signature, so the state root still matches
        assert not node.validate_block(replace(block, txs=(forged,)))

    def test_tx_from_unknown_sender_refused(self, node):
        tx = _tx(KeyPair.from_seed(b"\x99" * 32), 0, Deploy())
        ledger, _ = contract.execute_block_txs(node.chain.head_ledger, (tx,))
        block = replace(node.build_block(1, 0), txs=(tx,),
                        state_root=contract.state_root(ledger.contract))
        assert not node.validate_block(block)


class TestAnnounceRefusals:
    """A `BlockAnnounce` of the next block is adopted only with a quorum
    of genuine commit seals."""

    @staticmethod
    def announce(keys, node, seals):
        config = node.config
        builder = ValidatorNode(keys[1], config, node.registry, make_genesis_block(),
                                4_500_000, ExecutionTable())
        builder.submit_transaction(_tx(keys[0], 0, Deploy()))
        sealed = _sealed(builder.build_block(1, 0), keys[1:4])
        return sealed, node.handle_payload(BlockAnnounce(seals(sealed)))

    def test_a_quorum_of_seals_is_adopted(self, node, keys):
        block, result = self.announce(keys, node, lambda b: b)
        assert result.finalized == block and node.chain.head == block

    def test_seals_short_of_a_quorum_are_refused(self, node, keys):
        _, result = self.announce(
            keys, node, lambda b: replace(b, commit_seals=b.commit_seals[:2]))
        assert result.finalized is None and not result.outbound
        assert node.chain.head_height == 0 and not node.executions

    def test_one_forged_seal_is_refused(self, node, keys):
        def forge(block):
            seals = list(block.commit_seals)
            addr, sig = seals[1]
            seals[1] = (addr, Signature(bytes([sig[0] ^ 1]) + sig[1:]))
            return replace(block, commit_seals=tuple(seals))

        _, result = self.announce(keys, node, forge)
        assert result.finalized is None and not result.outbound
        assert node.chain.head_height == 0 and not node.executions


class TestCatchUpReply:
    """A ROUND_CHANGE for a height the receiver has finalized is answered
    with the sealed blocks from that height to its head, at most
    `CATCH_UP_BLOCKS`, one `BlockAnnounce` each, to the sender alone."""

    @staticmethod
    def peer_ahead(keys, node, heights):
        """keys[1]'s node with `heights` sealed empty blocks on its chain."""
        peer = ValidatorNode(keys[1], node.config, node.registry,
                             make_genesis_block(), 4_500_000, ExecutionTable())
        for h in range(1, heights + 1):
            sealed = _sealed(peer.build_block(h, 0), keys[1:4])
            assert peer.handle_payload(BlockAnnounce(sealed)).finalized == sealed
        return peer

    @staticmethod
    def old_message(keys, kind, height):
        return make_message(keys[0], kind, height, 1, Hash256(b"\x00" * 32))

    def test_a_round_change_brings_the_laggard_to_the_head(self, node, keys):
        peer = self.peer_ahead(keys, node, 3)
        result = peer.handle_payload(self.old_message(keys, MsgKind.ROUND_CHANGE, 1))
        assert result.outbound == [(BlockAnnounce(b), keys[0].address)
                                   for b in peer.chain.blocks[1:4]]
        for announce, _ in result.outbound:
            node.handle_payload(announce)
        assert node.chain.head_height == 3 and node.chain.head == peer.chain.head

    def test_the_reply_is_capped(self, node, keys):
        peer = self.peer_ahead(keys, node, 40)
        result = peer.handle_payload(self.old_message(keys, MsgKind.ROUND_CHANGE, 1))
        assert CATCH_UP_BLOCKS == 32
        assert [a.block for a, _ in result.outbound] == peer.chain.blocks[1:33]

    @pytest.mark.parametrize("kind", [MsgKind.PREPARE, MsgKind.COMMIT])
    def test_a_late_vote_gets_no_reply(self, node, keys, kind):
        peer = self.peer_ahead(keys, node, 3)
        assert not peer.handle_payload(self.old_message(keys, kind, 1)).outbound

    def test_an_unsigned_round_change_gets_no_reply(self, node, keys):
        """A validator's address on a ROUND_CHANGE whose signature does not
        check brings back nothing."""
        peer = self.peer_ahead(keys, node, 3)
        forged = replace(self.old_message(keys, MsgKind.ROUND_CHANGE, 1),
                         signature=Signature(b"\x00" * 32))
        assert not peer.handle_payload(forged).outbound


def run_paper_flow_sim(seed=11, gst=0, horizon=600):
    genesis = make_genesis(seed=seed, gst=gst)
    sim = Simulation(genesis, horizon=horizon)
    org, r1 = sim.validator_keys[0], sim.validator_keys[1]
    sim.schedule_tx(0, org, Deploy(), label=0)
    sim.schedule_tx(2, org, AddRecipient(r1.address), label=1)
    sim.schedule_tx(4, org, AddFunds(Amount(1000)), label=2)
    sim.schedule_tx(6, org, SendAllowance(r1.address, Amount(300)), label=3)
    sim.run()
    return sim, org, r1


class TestReplication:
    def test_txs_finalize_and_replicate(self):
        sim, org, r1 = run_paper_flow_sim()
        for addr in sim.config.validators:
            state = sim.nodes[addr].chain.head_ledger.contract
            assert state.deployed and state.organization == org.address
            assert int(state.balances[org.address]) == 700

    def test_all_heights_agree_on_state(self):
        sim, _, _ = run_paper_flow_sim()
        reference = sim.reference_node()
        common = min(sim.finalized_height(a) for a in sim.config.validators)
        for addr in sim.config.validators:
            node = sim.nodes[addr]
            for h in range(common + 1):
                assert node.chain.blocks[h].state_root == \
                    reference.chain.blocks[h].state_root

    def test_chain_replay_from_genesis_matches_live_state(self):
        sim, _, _ = run_paper_flow_sim()
        node = sim.reference_node()
        ledger = contract.genesis_ledger()
        for block in node.chain.blocks[1:]:
            for tx in block.txs:
                ledger, _ = contract.execute_block_txs(ledger, (tx,))
        live = node.chain.head_ledger
        assert contract.state_root(ledger.contract) == \
            contract.state_root(live.contract)
        assert ledger.nonces == live.nonces

    def test_every_included_tx_appears_exactly_once(self):
        sim, _, _ = run_paper_flow_sim()
        node = sim.reference_node()
        seen = {}
        for block in node.chain.blocks:
            for tx in block.txs:
                h = tx_hash(tx)
                assert h not in seen
                seen[h] = block.height
        assert len(seen) == 4

    def test_chain_is_append_only(self):
        sim, _, _ = run_paper_flow_sim(horizon=300)
        node = sim.reference_node()
        snapshot = [block_hash(b) for b in node.chain.blocks]
        sim.horizon = 600
        sim.run(600)
        later = [block_hash(b) for b in node.chain.blocks]
        assert later[:len(snapshot)] == snapshot


class TestEvents:
    def test_allowance_event_visible_on_every_node(self):
        sim, org, r1 = run_paper_flow_sim()
        for addr in sim.config.validators:
            events = sim.nodes[addr].poll_events(0)
            kinds = [type(ev).__name__ for _, ev in events]
            assert kinds == ["FundsAdded", "AllowanceSent"]

    def test_cursor_at_head_returns_empty(self):
        sim, _, _ = run_paper_flow_sim()
        node = sim.reference_node()
        events = node.poll_events(0)
        head_cursor = events[-1][0]
        assert node.poll_events(head_cursor) == []

    def test_cursors_are_monotone(self):
        sim, _, _ = run_paper_flow_sim()
        node = sim.reference_node()
        cursors = [c for c, _ in node.poll_events(0)]
        assert cursors == sorted(cursors)

    def test_events_identical_across_honest_nodes(self):
        sim, _, _ = run_paper_flow_sim()
        reference = [(c, ev) for c, ev in sim.reference_node().poll_events(0)]
        for addr in sim.honest_addresses():
            assert sim.nodes[addr].poll_events(0) == reference


class TestLockContentionRecovery:
    def test_locked_minority_recovers_via_certificates(self):
        # regression: pre-GST losses left two nodes locked on a proposal
        # whose commit quorum never completed; fresh proposals from the
        # other validators then stalled against the locks for several
        # exponential-backoff rounds. The locked nodes' ROUND_CHANGEs carry
        # their prepared certificates, so the next proposer re-proposes
        # the certified block instead.
        genesis = make_genesis(seed=2, gst=150, delta=4, pre_gst_max_delay=40,
                               pre_gst_loss_prob=0.3, base_round_timeout=25)
        sim = Simulation(genesis, horizon=900, collect_traces=False)
        sim.inject_fault(ByzantineSpec(sim.config.validators[2],
                                       Behavior.INVALID_PROPOSER))
        org, r1 = sim.validator_keys[0], sim.validator_keys[1]
        sim.schedule_tx(0, org, Deploy())
        sim.schedule_tx(20, org, AddRecipient(r1.address))
        sim.schedule_tx(40, org, AddFunds(Amount(100)))
        sim.schedule_tx(60, org, SendAllowance(r1.address, Amount(30)))
        sim.run()
        assert sim.safety_violation is None
        assert min(sim.finalized_height(a) for a in sim.honest_addresses()) >= 5


class TestLaggardRescue:
    def test_equivocation_victim_catches_up(self):
        genesis = make_genesis(seed=3, gst=0)
        sim = Simulation(genesis, horizon=1200)
        sim.inject_fault(ByzantineSpec(sim.config.validators[0],
                                       Behavior.EQUIVOCATE))
        org = sim.validator_keys[0]
        # a pending tx lets the equivocator craft two *valid* variants
        sim.schedule_tx(0, org, Deploy(), label=0)
        sim.schedule_tx(50, org, AddFunds(Amount(5)), label=1)
        sim.schedule_tx(120, org, AddFunds(Amount(5)), label=2)
        sim.run()
        assert sim.safety_violation is None
        heights = [sim.finalized_height(a) for a in sim.honest_addresses()]
        assert min(heights) >= 30
        common = min(heights)
        roots = {sim.nodes[a].chain.blocks[common].state_root
                 for a in sim.honest_addresses()}
        assert len(roots) == 1
