"""Deterministic state machine for the financial-distribution contract.

Five mutating operations guarded by the organization role, plus a local
balance read. Guard failures produce FAILED receipts with the first
failing guard's error code and leave state untouched; the algorithms'
silent skips become observable this way without changing state
semantics. Guards are evaluated in textual order: the
`_organization_only` modifier (deployment, then authorization), then
recipient membership, then funds or account-string checks.

A block runs on one `Draft`: `execute_block_txs` copies its parent
ledger's nonces, and each of its three account tables on the first write
to it, `apply_transaction` applies each transaction to the draft in
place, and every operation writes through `Draft.write`, which records
the address written. The block then commits one new `ContractState`,
which shares the tables it did not write with its parent, or the
parent's own object if nothing was written. A committed state is never mutated, apart from
filling its slots. The public operations (`deploy`, `add_funds`, ...)
are pure functions that run their operation on a draft of its own.

The state root is a two-level Keccak tree. Each account is one record:
its address, a flags byte saying which of recipient, recipient-active,
bank hash and balance it has, then the bank hash (32 bytes) and the
balance (u128) if present. The records sit in 256 buckets by the first
byte of the address, in address order; a bucket's leaf is its joined
records, and its digest is the Keccak of the leaf. Each run of 16 bucket
digests is hashed into a group digest, and the root is

    Keccak(organization ‖ deployed ‖ 16 group digests)

Each state keeps its 256 leaves in the `_leaves` slot, `b""` for an
empty bucket. A commit copies its parent's leaves and rebuilds only the
buckets that hold a written address, finding a bucket's other members by
parsing the parent's leaf, where each record's flags byte gives its
length. A state built directly from its tables (genesis, tests) fills
`_leaves` on first use, by building every non-empty bucket with the same
encoder.

`root_levels` hashes the roots of any number of states as three levels
of one `keccak.run_levels` pipeline: all their leaves, then all their
groups, then their roots; `state_roots` runs it alone, and a built
block runs it beside its transaction groups. An unchanged leaf is the
parent's bytes object, so its digest is a cheap memo hit, and so is an
unchanged group. Groups and roots are
memoized under the tuple of their parts, which the memo holds anyway,
rather than under their joined bytes. A state keeps its root in a slot
once computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from .crypto import Registry
from .errors import InternalInvariantViolation, NotDeployed
from .keccak import keccak256, run_levels
from .model import (
    Address, AddFunds, AddRecipient, Amount, Block, Deploy, ErrorCode, Event,
    AllowanceSent, BankAccountRegistered, FundsAdded, Hash256, KIND_BY_TYPE, Receipt,
    RegisterBankAccount, RemoveRecipient, SendAllowance, Transaction,
    TxPayload, TxStatus, ZERO_ADDRESS, _u, hx, tx_hash,
)

GAS_DEPLOY = 200_000
GAS_OP = 21_000


def gas_for(payload: TxPayload) -> int:
    return GAS_DEPLOY if isinstance(payload, Deploy) else GAS_OP


@dataclass(frozen=True)
class ContractState:
    organization: Address
    recipients: dict[Address, bool]
    bank_accounts: dict[Address, Hash256]
    balances: dict[Address, Amount]
    deployed: bool
    _root: Optional[Hash256] = field(default=None, init=False, repr=False, compare=False)
    _leaves: Optional[tuple[bytes, ...]] = field(default=None, init=False, repr=False,
                                                 compare=False)


def fresh_state() -> ContractState:
    return ContractState(ZERO_ADDRESS, {}, {}, {}, False)


@dataclass(frozen=True)
class LedgerState:
    """Contract state plus per-sender nonce bookkeeping."""
    contract: ContractState
    nonces: dict[Address, int]


def genesis_ledger() -> LedgerState:
    return LedgerState(fresh_state(), {})


class Draft:
    """One block's working copy of a ledger, written in place. Each account
    table is the parent's own until its first write, which copies it, so a
    committed state shares the tables its block did not write. `written`
    holds the address of every account write in order, and None for a
    write of the organization and deployed fields."""

    __slots__ = ("parent", "organization", "deployed", "recipients", "bank_accounts",
                 "balances", "nonces", "written")

    def __init__(self, parent: LedgerState) -> None:
        state = parent.contract
        self.parent = parent
        self.organization, self.deployed = state.organization, state.deployed
        self.recipients, self.bank_accounts, self.balances = (
            state.recipients, state.bank_accounts, state.balances)
        self.nonces = dict(parent.nonces)
        self.written: list[Optional[Address]] = []

    def write(self, name: str, addr: Address, value) -> None:
        """Set `addr` in the account table called `name`."""
        table = getattr(self, name)
        if table is getattr(self.parent.contract, name):
            table = dict(table)
            setattr(self, name, table)
        table[addr] = value
        self.written.append(addr)

    def commit(self) -> LedgerState:
        """The ledger after the draft's writes: the parent's ContractState
        if nothing was written, and the parent ledger itself if no nonce
        moved either."""
        parent = self.parent
        state = parent.contract
        if self.written:
            state = ContractState(self.organization, self.recipients, self.bank_accounts,
                                  self.balances, self.deployed)
            object.__setattr__(state, "_leaves",
                               _committed_leaves(parent.contract, state, self.written))
        if state is parent.contract and self.nonces == parent.nonces:
            return parent
        return LedgerState(state, self.nonces)


@dataclass(frozen=True, slots=True)
class OpResult:
    error: Optional[ErrorCode]
    events: tuple[Event, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None


_OK = OpResult(None)


# --- the operations, each writing a draft in place ---------------------------

def _deploy(draft: Draft, sender: Address) -> OpResult:
    if draft.deployed:
        return OpResult(ErrorCode.ALREADY_DEPLOYED)
    # a fresh contract holds no accounts
    draft.written += [*draft.recipients, *draft.bank_accounts, *draft.balances, None]
    draft.recipients, draft.bank_accounts, draft.balances = {}, {}, {}
    draft.organization, draft.deployed = sender, True
    return _OK


def _organization_only(op: Callable[..., OpResult]):
    """The guard modifier, as a Solidity contract would write it: `op` runs
    only on a deployed contract, NOT_DEPLOYED otherwise, and only for its
    organization, UNAUTHORIZED otherwise. Called as op(draft, sender, *fields)."""
    def guarded(draft: Draft, sender: Address, *fields) -> OpResult:
        if not draft.deployed:
            return OpResult(ErrorCode.NOT_DEPLOYED)
        if sender != draft.organization:
            return OpResult(ErrorCode.UNAUTHORIZED)
        return op(draft, sender, *fields)
    return guarded


def _recipient_setter(active: bool):
    """The one body of add_recipient (True) and remove_recipient (False)."""
    @_organization_only
    def set_recipient(draft: Draft, sender: Address, recipient: Address) -> OpResult:
        draft.write("recipients", recipient, active)
        return _OK
    return set_recipient


def account_hash_input(account: str) -> bytes:
    """The bytes `register_bank_account` hashes; batching callers hash them ahead."""
    return account.encode("utf-8")


@_organization_only
def _register_bank_account(draft: Draft, sender: Address, recipient: Address,
                           account: str) -> OpResult:
    if not draft.recipients.get(recipient, False):
        return OpResult(ErrorCode.UNKNOWN_RECIPIENT)
    raw = account_hash_input(account)
    if len(raw) == 0:
        return OpResult(ErrorCode.EMPTY_ACCOUNT_STRING)
    account_hash = Hash256(keccak256(raw))
    draft.write("bank_accounts", recipient, account_hash)
    return OpResult(None, (BankAccountRegistered(recipient, account_hash),))


@_organization_only
def _add_funds(draft: Draft, sender: Address, amt: Amount) -> OpResult:
    try:
        balance = draft.balances.get(draft.organization, Amount(0)) + amt
    except OverflowError:
        return OpResult(ErrorCode.OVERFLOW)
    draft.write("balances", draft.organization, balance)
    # the event reports the amount actually credited
    return OpResult(None, (FundsAdded(amt),))


@_organization_only
def _send_allowance(draft: Draft, sender: Address, recipient: Address,
                    amount: Amount) -> OpResult:
    if not draft.recipients.get(recipient, False):
        return OpResult(ErrorCode.UNKNOWN_RECIPIENT)
    balance = draft.balances.get(draft.organization, Amount(0))
    if not balance >= amount:
        return OpResult(ErrorCode.INSUFFICIENT_FUNDS)
    draft.write("balances", draft.organization, balance - amount)
    # the payout itself is off-ledger: the recipient is notified by the
    # event and is never credited on-chain
    return OpResult(None, (AllowanceSent(recipient, amount),))


# each called as op(draft, sender, *the payload's fields in declaration order)
_OPS = {Deploy: _deploy, AddRecipient: _recipient_setter(True),
        RemoveRecipient: _recipient_setter(False),
        RegisterBankAccount: _register_bank_account, AddFunds: _add_funds,
        SendAllowance: _send_allowance}


def _on_state(op: Callable[..., OpResult]):
    """`op` as a pure function of a ContractState, run on a draft of its
    own: op(state, sender, *fields) returns (new state, OpResult)."""
    def run(state: ContractState, sender: Address, *fields
            ) -> tuple[ContractState, OpResult]:
        draft = Draft(LedgerState(state, {}))
        result = op(draft, sender, *fields)
        return draft.commit().contract, result
    return run


# in _OPS order
deploy, add_recipient, remove_recipient, register_bank_account, add_funds, send_allowance = (
    _on_state(op) for op in _OPS.values())


def get_balance(state: ContractState, caller: Address) -> Amount:
    """Node-local read; never a consensus transaction."""
    if not state.deployed:
        raise NotDeployed("contract not deployed")
    return state.balances.get(caller, Amount(0))


# --- transaction dispatch ---------------------------------------------------

def apply_transaction(draft: Draft, tx: Transaction) -> Receipt:
    """Route a transaction, written to the draft in place, and return its
    receipt; gas is charged per the flat table either way.

    A wrong nonce fails the whole transaction without consuming the
    nonce; any other guard failure still consumes it (the transaction
    was validly sequenced, it just did nothing).
    """
    gas = gas_for(tx.payload)
    expected = draft.nonces.get(tx.sender, 0)
    if tx.nonce != expected:
        return Receipt(tx_hash(tx), TxStatus.FAILED, ErrorCode.BAD_NONCE, gas, ())

    cls = type(tx.payload)
    result = _OPS[cls](draft, tx.sender, *KIND_BY_TYPE[cls].values(tx.payload))
    draft.nonces[tx.sender] = expected + 1
    if result.ok:
        return Receipt(tx_hash(tx), TxStatus.SUCCESS, None, gas, result.events)
    return Receipt(tx_hash(tx), TxStatus.FAILED, result.error, gas, ())


# --- state commitment --------------------------------------------------------

_RECIPIENT, _ACTIVE, _BANK, _BALANCE = 1, 2, 4, 8  # record flags
_FLAGS = [bytes([f]) for f in range(16)]
# the length of a record by its flags: address, flags byte, bank hash, balance
_RECORD_LEN = [21 + (32 if f & _BANK else 0) + (16 if f & _BALANCE else 0)
               for f in range(16)]
_GROUP = 16  # bucket digests per group


def _leaf(state: ContractState, members: list[bytes]) -> bytes:
    """One bucket's leaf: the records of its members, addresses given in
    order. An address in none of the tables has no record."""
    recipients, banks, balances = state.recipients, state.bank_accounts, state.balances
    records = []
    for addr in members:
        active = recipients.get(addr)
        bank = banks.get(addr)
        balance = balances.get(addr)
        flags = ((0 if active is None else _RECIPIENT | (_ACTIVE if active else 0))
                 | (0 if bank is None else _BANK) | (0 if balance is None else _BALANCE))
        if flags:
            records.append(addr + _FLAGS[flags] + (bank or b"")
                           + (b"" if balance is None else _u(balance, 16)))
    return b"".join(records)


def _leaves_of(state: ContractState) -> tuple[bytes, ...]:
    """The state's 256 leaves; on first use of a state built from its
    tables, every non-empty bucket is built."""
    leaves = state._leaves
    if leaves is None:
        members: list[list[bytes]] = [[] for _ in range(256)]
        for addr in sorted(state.recipients.keys() | state.bank_accounts.keys()
                           | state.balances.keys()):
            members[addr[0]].append(addr)
        leaves = tuple(_leaf(state, m) if m else b"" for m in members)
        object.__setattr__(state, "_leaves", leaves)
    return leaves


def _committed_leaves(parent: ContractState, state: ContractState,
                      written: list[Optional[Address]]) -> tuple[bytes, ...]:
    """`parent`'s leaves, with each bucket that holds a written address
    rebuilt from `state`'s tables."""
    leaves = list(_leaves_of(parent))
    touched: dict[int, set[bytes]] = {}
    for addr in written:
        if addr is not None:
            touched.setdefault(addr[0], set()).add(addr)
    for i, members in touched.items():
        leaf, at = leaves[i], 0
        while at < len(leaf):  # the parent's members of the bucket
            members.add(leaf[at:at + 20])
            at += _RECORD_LEN[leaf[at + 20]]
        leaves[i] = _leaf(state, sorted(members))
    return tuple(leaves)


def root_levels(states: list[ContractState]) -> Generator:
    """The levels of the roots of the states not yet rooted, filling their
    slots (a pipeline of `keccak.run_levels`): their leaves, from each
    one's `_leaves` slot, then their groups, then their roots."""
    todo = [s for s in states if s._root is None]
    if not todo:
        return
    digests = yield [leaf for s in todo for leaf in _leaves_of(s)]
    group_digests = yield [tuple(digests[i:i + _GROUP]) for i in range(0, len(digests), _GROUP)]
    heads = [(s.organization, _FLAGS[s.deployed],  # deployed as one byte
              *group_digests[k * _GROUP:(k + 1) * _GROUP]) for k, s in enumerate(todo)]
    for s, root in zip(todo, (yield heads)):
        object.__setattr__(s, "_root", Hash256(root))


def state_roots(states: list[ContractState]) -> list[Hash256]:
    """The root of every state, filling its slot; states already rooted are
    slot reads."""
    run_levels(root_levels(states))
    return [s._root for s in states]


def state_root(state: ContractState) -> Hash256:
    root = state._root
    if root is None:
        root = state_roots([state])[0]
    return root


def state_to_json(state: ContractState) -> dict:
    return {
        "organization": hx(state.organization),
        "recipients": {hx(a): state.recipients[a] for a in sorted(state.recipients)},
        "bankAccounts": {hx(a): hx(state.bank_accounts[a])
                         for a in sorted(state.bank_accounts)},
        "balances": {hx(a): str(int(state.balances[a]))
                     for a in sorted(state.balances)},
    }


# --- blocks, as validators and the replay audit execute and check them -----

def execute_block_txs(ledger: LedgerState, txs: tuple[Transaction, ...]
                      ) -> tuple[LedgerState, list[Receipt]]:
    """Apply a block's transactions in order to one draft of `ledger`, each
    through this module's `apply_transaction`, and commit the draft once.
    A failed transaction that wrote anything raises InternalInvariantViolation."""
    draft = Draft(ledger)
    receipts = []
    for tx in txs:
        before = len(draft.written)
        receipt = apply_transaction(draft, tx)
        if receipt.status is not TxStatus.SUCCESS and len(draft.written) != before:
            raise InternalInvariantViolation(
                f"failed transaction {hx(receipt.tx_hash)} changed contract state")
        receipts.append(receipt)
    return draft.commit(), receipts


def block_content_error(block: Block, ledger: LedgerState, registry: Registry,
                        gas_limit: int) -> Optional[str]:
    """Why a block's content is invalid, or None. `ledger` is the block
    executed on its parent's ledger. Checks gas, then transaction
    signatures, then the state root."""
    if sum(t.gas_limit for t in block.txs) > gas_limit:
        return "block gas limit exceeded"
    for tx in block.txs:
        if registry.key_for_address(tx.sender) is None:
            return "transaction from unknown sender"
        if not registry.verify_by_address(tx.sender, tx_hash(tx), tx.signature):
            return "bad transaction signature"
    if state_root(ledger.contract) != block.state_root:
        return "state root mismatch"
    return None
