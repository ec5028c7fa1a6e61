"""Contract operation semantics, guard ordering, receipts, invariants."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ledgersim import contract
from ledgersim.crypto import sign
from ledgersim.errors import InternalInvariantViolation, NotDeployed
from ledgersim.keccak import keccak256
from ledgersim.model import (
    AMOUNT_MAX, Address, AddFunds, AddRecipient, AllowanceSent, Amount,
    BankAccountRegistered, Deploy, ErrorCode, FundsAdded, RegisterBankAccount,
    RemoveRecipient, SendAllowance, Signature, Transaction, TxStatus, tx_hash,
)

import differential
from differential import run_op
from keccak_reference import keccak256_reference

ORG = Address(b"\x01" * 20)
OTHER = Address(b"\x02" * 20)
R1 = Address(b"\x03" * 20)
R2 = Address(b"\x04" * 20)


def deployed():
    state, receipt = run_op(contract.fresh_state(), ORG, Deploy())
    assert receipt.status is TxStatus.SUCCESS
    return state


class TestDeploy:
    def test_first_deploy_sets_organization(self):
        state, receipt = run_op(contract.fresh_state(), ORG, Deploy())
        assert receipt.status is TxStatus.SUCCESS
        assert state.deployed and state.organization == ORG
        assert state.recipients == {} and state.balances == {}

    def test_second_deploy_fails_and_keeps_owner(self):
        state = deployed()
        after, receipt = run_op(state, OTHER, Deploy())
        assert receipt.error is ErrorCode.ALREADY_DEPLOYED
        assert after is state and after.organization == ORG

    def test_deployer_passes_the_organization_check(self):
        state = deployed()
        _, receipt = run_op(state, ORG, AddRecipient(R1))
        assert receipt.status is TxStatus.SUCCESS


class TestAddRemoveRecipient:
    def test_org_adds_recipient(self):
        state, receipt = run_op(deployed(), ORG, AddRecipient(R1))
        assert receipt.status is TxStatus.SUCCESS and state.recipients[R1] is True
        assert receipt.events == ()  # no event for recipient management

    def test_non_org_is_unauthorized(self):
        state = deployed()
        after, receipt = run_op(state, OTHER, AddRecipient(R1))
        assert receipt.error is ErrorCode.UNAUTHORIZED
        assert after is state

    def test_double_add_is_idempotent(self):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        again, receipt = run_op(state, ORG, AddRecipient(R1))
        assert receipt.status is TxStatus.SUCCESS and again.recipients == state.recipients

    def test_remove_after_add(self):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        state, receipt = run_op(state, ORG, RemoveRecipient(R1))
        assert receipt.status is TxStatus.SUCCESS and state.recipients[R1] is False

    def test_remove_never_added_stores_false(self):
        state, receipt = run_op(deployed(), ORG, RemoveRecipient(R2))
        assert receipt.status is TxStatus.SUCCESS and state.recipients[R2] is False

    def test_remove_unauthorized(self):
        _, receipt = run_op(deployed(), OTHER, RemoveRecipient(R1))
        assert receipt.error is ErrorCode.UNAUTHORIZED

    def test_not_deployed(self):
        _, receipt = run_op(contract.fresh_state(), ORG, AddRecipient(R1))
        assert receipt.error is ErrorCode.NOT_DEPLOYED


class TestRegisterBankAccount:
    def test_register_hashes_the_account(self):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        state, receipt = run_op(state, ORG, RegisterBankAccount(R1, "IBAN-001"))
        assert receipt.status is TxStatus.SUCCESS
        assert state.bank_accounts[R1] == keccak256(b"IBAN-001")
        assert receipt.events == (BankAccountRegistered(R1, state.bank_accounts[R1]),)

    def test_empty_account_string_rejected(self):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        after, receipt = run_op(state, ORG, RegisterBankAccount(R1, ""))
        assert receipt.error is ErrorCode.EMPTY_ACCOUNT_STRING
        assert after is state

    def test_unadded_recipient_rejected(self):
        _, receipt = run_op(deployed(), ORG, RegisterBankAccount(R2, "IBAN"))
        assert receipt.error is ErrorCode.UNKNOWN_RECIPIENT

    def test_guard_order_authorization_first(self):
        # non-org caller with an unknown recipient and empty account:
        # the authorization guard decides the error code
        _, receipt = run_op(deployed(), OTHER, RegisterBankAccount(R2, ""))
        assert receipt.error is ErrorCode.UNAUTHORIZED

    def test_guard_order_recipient_before_length(self):
        _, receipt = run_op(deployed(), ORG, RegisterBankAccount(R2, ""))
        assert receipt.error is ErrorCode.UNKNOWN_RECIPIENT


class TestAddFunds:
    def test_org_adds_funds(self):
        state, receipt = run_op(deployed(), ORG, AddFunds(Amount(1000)))
        assert receipt.status is TxStatus.SUCCESS
        assert state.balances[ORG] == 1000
        assert receipt.events == (FundsAdded(Amount(1000)),)

    def test_non_org_unauthorized(self):
        _, receipt = run_op(deployed(), OTHER, AddFunds(Amount(1)))
        assert receipt.error is ErrorCode.UNAUTHORIZED

    def test_adding_zero_succeeds_and_emits(self):
        state, receipt = run_op(deployed(), ORG, AddFunds(Amount(0)))
        assert receipt.status is TxStatus.SUCCESS and state.balances[ORG] == 0
        assert receipt.events == (FundsAdded(Amount(0)),)

    def test_overflow_rejected(self):
        top = Amount((1 << 128) - 1)
        state, receipt = run_op(deployed(), ORG, AddFunds(top))
        assert receipt.status is TxStatus.SUCCESS
        after, receipt = run_op(state, ORG, AddFunds(Amount(1)))
        assert receipt.error is ErrorCode.OVERFLOW
        assert after is state


class TestSendAllowance:
    def _funded(self, balance=1000):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        state, _ = run_op(state, ORG, AddFunds(Amount(balance)))
        return state

    def test_send_debits_org_without_crediting_recipient(self):
        state, receipt = run_op(self._funded(), ORG, SendAllowance(R1, Amount(300)))
        assert receipt.status is TxStatus.SUCCESS
        assert state.balances[ORG] == 700
        assert state.balances.get(R1, Amount(0)) == 0
        assert receipt.events == (AllowanceSent(R1, Amount(300)),)

    def test_insufficient_funds(self):
        state = self._funded(balance=100)
        after, receipt = run_op(state, ORG, SendAllowance(R1, Amount(300)))
        assert receipt.error is ErrorCode.INSUFFICIENT_FUNDS
        assert after is state and after.balances[ORG] == 100

    def test_removed_recipient_rejected(self):
        state = self._funded()
        state, _ = run_op(state, ORG, RemoveRecipient(R1))
        _, receipt = run_op(state, ORG, SendAllowance(R1, Amount(1)))
        assert receipt.error is ErrorCode.UNKNOWN_RECIPIENT

    def test_exact_balance_spendable(self):
        state, receipt = run_op(self._funded(100), ORG, SendAllowance(R1, Amount(100)))
        assert receipt.status is TxStatus.SUCCESS and state.balances[ORG] == 0


class TestGetBalance:
    def test_balance_after_funding(self):
        state, _ = run_op(deployed(), ORG, AddFunds(Amount(1000)))
        assert contract.get_balance(state, ORG) == 1000

    def test_unknown_address_reads_zero(self):
        assert contract.get_balance(deployed(), OTHER) == 0

    def test_fund_then_send_arithmetic(self):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        state, _ = run_op(state, ORG, AddFunds(Amount(1000)))
        state, _ = run_op(state, ORG, SendAllowance(R1, Amount(300)))
        assert contract.get_balance(state, ORG) == 700

    def test_not_deployed_raises(self):
        with pytest.raises(NotDeployed):
            contract.get_balance(contract.fresh_state(), ORG)


def make_tx(key, nonce, payload):
    unsigned = Transaction(key.address, nonce, payload,
                           contract.gas_for(payload), 0, Signature(b""))
    return Transaction(key.address, nonce, payload, contract.gas_for(payload),
                       0, sign(key, tx_hash(unsigned)))


class TestApplyTransaction:
    def test_add_funds_tx_success(self, keys):
        org = keys[0]
        ledger = contract.genesis_ledger()
        ledger, (r0,) = contract.execute_block_txs(ledger, (make_tx(org, 0, Deploy()),))
        assert r0.status is TxStatus.SUCCESS and r0.gas_used == 200_000
        ledger, (r1,) = contract.execute_block_txs(
            ledger, (make_tx(org, 1, AddFunds(Amount(5))),))
        assert r1.status is TxStatus.SUCCESS
        assert r1.events == (FundsAdded(Amount(5)),)
        assert r1.gas_used == 21_000

    def test_same_nonce_twice_is_bad_nonce(self, keys):
        org = keys[0]
        ledger = contract.genesis_ledger()
        ledger, _ = contract.execute_block_txs(ledger, (make_tx(org, 0, Deploy()),))
        replay = make_tx(org, 0, AddFunds(Amount(1)))
        after, (receipt,) = contract.execute_block_txs(ledger, (replay,))
        assert receipt.status is TxStatus.FAILED
        assert receipt.error is ErrorCode.BAD_NONCE
        assert after.contract is ledger.contract
        assert after.nonces == ledger.nonces

    def test_guard_failure_still_consumes_nonce_and_charges_gas(self, keys):
        org, outsider = keys[0], keys[1]
        ledger = contract.genesis_ledger()
        ledger, _ = contract.execute_block_txs(ledger, (make_tx(org, 0, Deploy()),))
        bad = make_tx(outsider, 0, AddFunds(Amount(9)))
        after, (receipt,) = contract.execute_block_txs(ledger, (bad,))
        assert receipt.status is TxStatus.FAILED
        assert receipt.error is ErrorCode.UNAUTHORIZED
        assert receipt.gas_used == 21_000
        assert after.nonces[outsider.address] == 1
        assert after.contract is ledger.contract


def unsigned_tx(sender, nonce, payload):
    """Block execution checks no signature, so none is made."""
    return Transaction(sender, nonce, payload, contract.gas_for(payload), 0, Signature(b""))


def funded_ledger():
    """ORG's deployed contract, with R1 a recipient and a balance of 100."""
    ledger, receipts = contract.execute_block_txs(contract.genesis_ledger(), (
        unsigned_tx(ORG, 0, Deploy()), unsigned_tx(ORG, 1, AddRecipient(R1)),
        unsigned_tx(ORG, 2, AddFunds(Amount(100)))))
    assert all(r.status is TxStatus.SUCCESS for r in receipts)
    return ledger


class TestBlockDraft:
    """A block runs on one draft; a failed transaction must leave it unwritten."""

    @pytest.mark.parametrize("sender, payload, error", [
        (ORG, Deploy(), ErrorCode.ALREADY_DEPLOYED),
        (OTHER, AddFunds(Amount(5)), ErrorCode.UNAUTHORIZED),
        (ORG, AddFunds(Amount(AMOUNT_MAX)), ErrorCode.OVERFLOW),
        (ORG, RegisterBankAccount(R2, "IBAN"), ErrorCode.UNKNOWN_RECIPIENT),
        (ORG, RegisterBankAccount(R1, ""), ErrorCode.EMPTY_ACCOUNT_STRING),
        (ORG, SendAllowance(R1, Amount(101)), ErrorCode.INSUFFICIENT_FUNDS),
        (OTHER, RemoveRecipient(R1), ErrorCode.UNAUTHORIZED),
    ])
    def test_failed_op_leaves_the_draft_unwritten(self, sender, payload, error):
        ledger = funded_ledger()
        parent = ledger.contract
        draft = contract.Draft(ledger)
        receipt = contract.apply_transaction(
            draft, unsigned_tx(sender, ledger.nonces.get(sender, 0), payload))
        assert receipt.error is error
        assert draft.written == []
        assert (draft.recipients, draft.bank_accounts, draft.balances) == (
            parent.recipients, parent.bank_accounts, parent.balances)
        assert draft.nonces[sender] == ledger.nonces.get(sender, 0) + 1
        after = draft.commit()
        assert after.contract is parent and after.nonces == draft.nonces

    def test_an_op_that_writes_and_reports_failure_raises(self, monkeypatch):
        def leaky(draft, sender, amt):
            draft.write("balances", sender, amt)
            return ErrorCode.UNAUTHORIZED

        monkeypatch.setitem(contract._OPS, AddFunds, leaky)
        ledger = contract.LedgerState(deployed(), {})
        with pytest.raises(InternalInvariantViolation, match="changed contract state"):
            contract.execute_block_txs(ledger, (unsigned_tx(ORG, 0, AddFunds(Amount(5))),))

    def test_a_deploy_reported_as_failed_raises(self, monkeypatch):
        """The deploy writes only the organization and deployed fields."""
        apply = contract.apply_transaction

        def leaky(draft, tx):
            receipt = apply(draft, tx)
            return contract.Receipt(receipt.tx_hash, TxStatus.FAILED,
                                    ErrorCode.ALREADY_DEPLOYED, receipt.gas_used, ())

        monkeypatch.setattr(contract, "apply_transaction", leaky)
        with pytest.raises(InternalInvariantViolation, match="changed contract state"):
            contract.execute_block_txs(contract.genesis_ledger(),
                                       (unsigned_tx(ORG, 0, Deploy()),))


class TestCommitCost:
    """A commit rebuilds the leaf of each bucket its block wrote, and no other."""

    # recipients in 40 buckets, none of them ORG's bucket 0x01
    ACCOUNTS = [Address(bytes([b]) + bytes([b ^ 0x55]) * 19) for b in range(0, 240, 6)]

    @pytest.fixture()
    def leaf_builds(self, monkeypatch):
        built = []
        leaf = contract._leaf

        def counted(state, members):
            built.append(members[0][0])
            return leaf(state, members)

        monkeypatch.setattr(contract, "_leaf", counted)
        return built

    def parent(self):
        state = contract.ContractState(ORG, {a: True for a in self.ACCOUNTS}, {},
                                       {ORG: Amount(1000)}, True)
        contract.state_root(state)  # builds every leaf
        return contract.LedgerState(state, {})

    def test_a_block_rebuilds_one_leaf_per_written_bucket(self, leaf_builds):
        ledger = self.parent()
        leaf_builds.clear()
        new = [Address(b"\x10" + bytes([k]) * 19) for k in (1, 2)]  # one new bucket
        txs = (unsigned_tx(ORG, 0, AddRecipient(new[0])),
               unsigned_tx(ORG, 1, AddRecipient(new[1])),
               unsigned_tx(ORG, 2, RemoveRecipient(self.ACCOUNTS[0])),      # bucket 0x00
               unsigned_tx(ORG, 3, AddFunds(Amount(5))),                   # ORG's bucket
               unsigned_tx(ORG, 4, SendAllowance(self.ACCOUNTS[1], Amount(7))),
               unsigned_tx(ORG, 5, SendAllowance(R2, Amount(1))))          # fails
        after, receipts = contract.execute_block_txs(ledger, txs)
        assert [r.status for r in receipts] == [TxStatus.SUCCESS] * 5 + [TxStatus.FAILED]
        assert sorted(leaf_builds) == [0x00, 0x01, 0x10]  # 4 accounts in 3 buckets
        parent_leaves, leaves = ledger.contract._leaves, after.contract._leaves
        assert all(leaves[i] is parent_leaves[i] for i in range(256) if i not in (0, 1, 0x10))
        assert after.contract.bank_accounts is ledger.contract.bank_accounts  # never written
        rebuilt = contract.ContractState(ORG, after.contract.recipients, {},
                                         after.contract.balances, True)
        assert contract.state_root(after.contract) == contract.state_root(rebuilt)

    def test_a_block_that_writes_nothing_keeps_the_parent_state(self, leaf_builds):
        ledger = self.parent()
        leaf_builds.clear()
        assert contract.execute_block_txs(ledger, ()) == (ledger, [])
        bad_nonces = tuple(unsigned_tx(ORG, 7, AddFunds(Amount(k))) for k in (1, 2))
        after, receipts = contract.execute_block_txs(ledger, bad_nonces)
        assert [r.error for r in receipts] == [ErrorCode.BAD_NONCE] * 2
        assert after.contract is ledger.contract
        assert leaf_builds == []


class TestStateEncoding:
    def test_failed_ops_keep_state_root(self):
        state = deployed()
        root = contract.state_root(state)
        after, receipt = run_op(state, OTHER, AddRecipient(R1))
        assert receipt.status is TxStatus.FAILED
        assert contract.state_root(after) == root

    def test_state_json_shape(self):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        state, _ = run_op(state, ORG, RegisterBankAccount(R1, "acct"))
        state, _ = run_op(state, ORG, AddFunds(Amount(7)))
        obj = contract.state_to_json(state)
        assert set(obj) == {"organization", "recipients", "bankAccounts", "balances"}
        assert obj["organization"] == "0x" + "01" * 20
        assert obj["recipients"] == {"0x" + "03" * 20: True}
        assert obj["balances"] == {"0x" + "01" * 20: "7"}


class TestDifferential:
    SENDERS = (bytes(ORG), bytes(OTHER))
    RECIPIENTS = (bytes(R1), bytes(R2))

    def test_exhaustive_short_sequences(self):
        symbols = differential.alphabet(self.SENDERS, self.RECIPIENTS)
        for length in (1, 2):
            for seq in itertools.product(symbols, repeat=length):
                differential.run_sequence(self.SENDERS[0], seq)

    def test_bfs_transition_closure_small(self):
        symbols = differential.alphabet(self.SENDERS, self.RECIPIENTS)
        states, transitions = differential.bfs_equivalence(
            self.SENDERS[0], symbols, max_depth=3)
        assert states > 10 and transitions >= states

    def test_random_long_sequences(self):
        symbols = differential.alphabet(self.SENDERS, self.RECIPIENTS)
        rng = random.Random(13)
        for _ in range(30):
            seq = [rng.choice(symbols) for _ in range(100)]
            observed = differential.run_sequence(self.SENDERS[0], seq)
            # conservation: org balance equals funds added minus allowances sent
            balance = observed[-1][1]["balances"].get(self.SENDERS[0], 0)
            total = 0
            for result, _ in observed:
                for ev in result[2]:
                    if ev[0] == "FundsAdded":
                        total += ev[1]
                    elif ev[0] == "AllowanceSent":
                        total -= ev[2]
            assert balance == total

    def test_event_log_replay_reproduces_balance(self):
        symbols = differential.alphabet(self.SENDERS, self.RECIPIENTS)
        rng = random.Random(29)
        seq = [rng.choice(symbols) for _ in range(200)]
        observed = differential.run_sequence(self.SENDERS[0], seq)
        replayed = 0
        for result, _ in observed:
            for ev in result[2]:
                if ev[0] == "FundsAdded":
                    replayed += ev[1]
                elif ev[0] == "AllowanceSent":
                    replayed -= ev[2]
        final = observed[-1][1]["balances"].get(self.SENDERS[0], 0)
        assert final == replayed

    def test_only_org_ever_mutates(self):
        symbols = differential.alphabet(self.SENDERS, self.RECIPIENTS)
        rng = random.Random(31)
        for _ in range(10):
            seq = [rng.choice(symbols) for _ in range(80)]
            observed = differential.run_sequence(self.SENDERS[0], seq)
            for sym, (result, _) in zip(seq, observed):
                if sym[1] != self.SENDERS[0]:
                    assert result[0] is False

    def test_bank_account_values_are_keccak_of_submitted_strings(self):
        state, _ = run_op(deployed(), ORG, AddRecipient(R1))
        state, receipt = run_op(state, ORG, RegisterBankAccount(R1, "acct-9"))
        assert receipt.status is TxStatus.SUCCESS
        assert state.bank_accounts[R1] == keccak256_reference(b"acct-9")
        assert len(state.bank_accounts[R1]) == 32


_symbols = differential.alphabet((bytes(ORG), bytes(OTHER)),
                                 (bytes(R1), bytes(R2)))


class TestSequenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(seq=st.lists(st.sampled_from(_symbols), max_size=40))
    def test_state_matches_reference_on_arbitrary_sequences(self, seq):
        differential.run_sequence(bytes(ORG), seq)

    @settings(max_examples=60, deadline=None)
    @given(seq=st.lists(st.sampled_from(_symbols), max_size=40))
    def test_failed_ops_never_mutate(self, seq):
        state = differential.impl_initial(bytes(ORG))
        for sym in seq:
            new_state, result = differential.impl_apply(state, sym)
            if not result[0]:
                assert new_state is state
                assert contract.state_root(new_state) == contract.state_root(state)
            state = new_state

    @settings(max_examples=60, deadline=None)
    @given(seq=st.lists(st.sampled_from(_symbols), max_size=40))
    def test_bank_account_entries_always_32_byte_hashes(self, seq):
        state = differential.impl_initial(bytes(ORG))
        for sym in seq:
            state, _ = differential.impl_apply(state, sym)
        for value in state.bank_accounts.values():
            assert len(value) == 32
            assert value == keccak256(differential.ACCOUNT.encode())
