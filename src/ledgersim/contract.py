"""Deterministic state machine for the financial-distribution contract.

Five mutating operations guarded by the organization role, plus a local
balance read. Guard failures produce FAILED receipts with the first
failing guard's error code and leave state untouched; the algorithms'
silent skips become observable this way without changing state
semantics. Guards are evaluated in textual order: the
`_organization_only` modifier (deployment, then authorization), then
recipient membership, then funds or account-string checks.

The transition function is pure: apply_transaction returns a new
LedgerState and never mutates its input.

The state root is a two-level Keccak tree. Each account is one record:
its address, a flags byte saying which of recipient, recipient-active,
bank hash and balance it has, then the bank hash (32 bytes) and the
balance (u128) if present. The records sit in 256 buckets by the first
byte of the address, in address order; a bucket's digest is the Keccak
of its joined records. Each run of 16 bucket digests is hashed into a
group digest, and the root is

    Keccak(organization ‖ deployed ‖ 16 group digests)

`state_roots` takes states 16 at a time and hashes their buckets in one
`keccak256_many` batch, their groups in a second and their roots in a
third, so an unchanged bucket or group is a memo hit. Groups and roots
are memoized under the tuple of their parts, which the memo holds
anyway, rather than under their joined bytes. A state keeps its root in
a slot once computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .crypto import Registry
from .errors import InternalInvariantViolation, NotDeployed
from .keccak import keccak256, keccak256_many
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


def fresh_state() -> ContractState:
    return ContractState(ZERO_ADDRESS, {}, {}, {}, False)


@dataclass(frozen=True, slots=True)
class OpResult:
    error: Optional[ErrorCode]
    events: tuple[Event, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None


_OK = OpResult(None)


def deploy(state: ContractState, sender: Address) -> tuple[ContractState, OpResult]:
    if state.deployed:
        return state, OpResult(ErrorCode.ALREADY_DEPLOYED)
    return ContractState(sender, {}, {}, {}, True), _OK


def _organization_only(op: Callable[..., tuple[ContractState, OpResult]]):
    """The guard modifier, as a Solidity contract would write it: `op` runs
    only on a deployed contract, NOT_DEPLOYED otherwise, and only for its
    organization, UNAUTHORIZED otherwise. Called as op(state, sender, *fields)."""
    def guarded(state: ContractState, sender: Address, *fields):
        if not state.deployed:
            return state, OpResult(ErrorCode.NOT_DEPLOYED)
        if sender != state.organization:
            return state, OpResult(ErrorCode.UNAUTHORIZED)
        return op(state, sender, *fields)
    return guarded


def _recipient_setter(active: bool):
    """The one body of add_recipient (True) and remove_recipient (False)."""
    @_organization_only
    def set_recipient(state: ContractState, sender: Address, recipient: Address):
        return replace(state, recipients={**state.recipients, recipient: active}), _OK
    return set_recipient


add_recipient = _recipient_setter(True)
remove_recipient = _recipient_setter(False)


def account_hash_input(account: str) -> bytes:
    """The bytes `register_bank_account` hashes; batching callers hash them ahead."""
    return account.encode("utf-8")


@_organization_only
def register_bank_account(state: ContractState, sender: Address, recipient: Address,
                          account: str) -> tuple[ContractState, OpResult]:
    if not state.recipients.get(recipient, False):
        return state, OpResult(ErrorCode.UNKNOWN_RECIPIENT)
    raw = account_hash_input(account)
    if len(raw) == 0:
        return state, OpResult(ErrorCode.EMPTY_ACCOUNT_STRING)
    account_hash = Hash256(keccak256(raw))
    bank_accounts = dict(state.bank_accounts)
    bank_accounts[recipient] = account_hash
    event = BankAccountRegistered(recipient, account_hash)
    return replace(state, bank_accounts=bank_accounts), OpResult(None, (event,))


@_organization_only
def add_funds(state: ContractState, sender: Address,
              amt: Amount) -> tuple[ContractState, OpResult]:
    balances = dict(state.balances)
    try:
        balances[state.organization] = balances.get(state.organization, Amount(0)) + amt
    except OverflowError:
        return state, OpResult(ErrorCode.OVERFLOW)
    # the event reports the amount actually credited
    return replace(state, balances=balances), OpResult(None, (FundsAdded(amt),))


@_organization_only
def send_allowance(state: ContractState, sender: Address, recipient: Address,
                   amount: Amount) -> tuple[ContractState, OpResult]:
    if not state.recipients.get(recipient, False):
        return state, OpResult(ErrorCode.UNKNOWN_RECIPIENT)
    balance = state.balances.get(state.organization, Amount(0))
    if not balance >= amount:
        return state, OpResult(ErrorCode.INSUFFICIENT_FUNDS)
    balances = dict(state.balances)
    balances[state.organization] = balance - amount
    # the payout itself is off-ledger: the recipient is notified by the
    # event and is never credited on-chain
    event = AllowanceSent(recipient, amount)
    return replace(state, balances=balances), OpResult(None, (event,))


def get_balance(state: ContractState, caller: Address) -> Amount:
    """Node-local read; never a consensus transaction."""
    if not state.deployed:
        raise NotDeployed("contract not deployed")
    return state.balances.get(caller, Amount(0))


# --- transaction dispatch ---------------------------------------------------

@dataclass(frozen=True)
class LedgerState:
    """Contract state plus per-sender nonce bookkeeping."""
    contract: ContractState
    nonces: dict[Address, int]


def genesis_ledger() -> LedgerState:
    return LedgerState(fresh_state(), {})


# each called as handler(state, sender, *the payload's fields in declaration order)
_HANDLERS = {Deploy: deploy, AddRecipient: add_recipient, RemoveRecipient: remove_recipient,
             RegisterBankAccount: register_bank_account, AddFunds: add_funds,
             SendAllowance: send_allowance}


def apply_transaction(ledger: LedgerState, tx: Transaction) -> tuple[LedgerState, Receipt]:
    """Route a transaction; gas is charged per the flat table either way.

    A wrong nonce fails the whole transaction without consuming the
    nonce; any other guard failure still consumes it (the transaction
    was validly sequenced, it just did nothing).
    """
    gas = gas_for(tx.payload)
    expected = ledger.nonces.get(tx.sender, 0)
    if tx.nonce != expected:
        receipt = Receipt(tx_hash(tx), TxStatus.FAILED, ErrorCode.BAD_NONCE, gas, ())
        return ledger, receipt

    cls = type(tx.payload)
    new_contract, result = _HANDLERS[cls](ledger.contract, tx.sender,
                                          *KIND_BY_TYPE[cls].values(tx.payload))
    nonces = dict(ledger.nonces)
    nonces[tx.sender] = expected + 1
    new_ledger = LedgerState(new_contract, nonces)
    if result.ok:
        receipt = Receipt(tx_hash(tx), TxStatus.SUCCESS, None, gas, result.events)
    else:
        receipt = Receipt(tx_hash(tx), TxStatus.FAILED, result.error, gas, ())
    return new_ledger, receipt


# --- state commitment --------------------------------------------------------

_RECIPIENT, _ACTIVE, _BANK, _BALANCE = 1, 2, 4, 8  # record flags
_FLAGS = [bytes([f]) for f in range(16)]
_GROUP = 16  # bucket digests per group
# the digest of an empty bucket, keccak256(b""), a published test vector
_EMPTY = bytes.fromhex("c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470")


def _buckets(state: ContractState) -> dict[int, bytes]:
    """The leaves of the non-empty buckets: their account records, in
    address order, by bucket."""
    recipients, banks, balances = state.recipients, state.bank_accounts, state.balances
    buckets: dict[int, list[bytes]] = {}
    for addr in sorted(recipients.keys() | banks.keys() | balances.keys()):
        active = recipients.get(addr)
        bank = banks.get(addr)
        balance = balances.get(addr)
        flags = ((0 if active is None else _RECIPIENT | (_ACTIVE if active else 0))
                 | (0 if bank is None else _BANK) | (0 if balance is None else _BALANCE))
        buckets.setdefault(addr[0], []).append(
            addr + _FLAGS[flags] + (bank or b"") + (b"" if balance is None else _u(balance, 16)))
    return {i: b"".join(records) for i, records in buckets.items()}


def state_roots(states: list[ContractState]) -> list[Hash256]:
    """The root of every state, filling its slot. States already rooted are
    slot reads; the rest are taken 16 at a time, whose 256 groups fill one
    batch, and share one batch of buckets, one of groups and one of roots."""
    todo = [s for s in states if s._root is None]
    for start in range(0, len(todo), _GROUP):
        chunk = todo[start:start + _GROUP]
        leaves: dict[bytes, int] = {}  # each distinct bucket, by first position
        per_state = [{i: leaves.setdefault(leaf, len(leaves)) for i, leaf in _buckets(s).items()}
                     for s in chunk]
        digests = keccak256_many(list(leaves))
        groups = []
        for positions in per_state:
            row = [_EMPTY] * 256
            for i, p in positions.items():
                row[i] = digests[p]
            groups += [tuple(row[i:i + _GROUP]) for i in range(0, 256, _GROUP)]
        group_digests = keccak256_many(groups)
        heads = [(s.organization, _FLAGS[s.deployed],  # deployed as one byte
                  *group_digests[k * _GROUP:(k + 1) * _GROUP]) for k, s in enumerate(chunk)]
        for s, root in zip(chunk, keccak256_many(heads)):
            object.__setattr__(s, "_root", Hash256(root))
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
    """Sequentially apply a block's transactions."""
    receipts = []
    for tx in txs:
        before = ledger.contract
        ledger, receipt = apply_transaction(ledger, tx)
        if receipt.status is not TxStatus.SUCCESS and ledger.contract is not before:
            raise InternalInvariantViolation(
                f"failed transaction {hx(receipt.tx_hash)} changed contract state")
        receipts.append(receipt)
    return ledger, receipts


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
