"""Core ledger data model and its canonical binary encoding.

Value types are immutable and hashable; every type serializes through a
bespoke fixed-order format (integers big-endian fixed-width, lists and
text length-prefixed) so that any two nodes agree byte-for-byte on
hashes. Deliberately not RLP or any wire-compatible encoding. It is only
written; its decoder is the test oracle `tests/codec_reference.py`.

Widths: amounts are u128, heights/rounds/nonces/gas are u64, lengths are
u32, enum tags and booleans are u8.

A block hash is the root of a two-level Keccak tree. Its transactions,
in block order, form groups of up to 16 entries, each entry the
transaction hash followed by the length-prefixed signature; a group's
digest is the Keccak of its joined entries. The hashing view is then

    height ‖ parent hash ‖ proposer ‖ tx count ‖ group digests ‖ state root

The round and the commit seals are left out, so a proposal keeps its
identity when it is re-proposed and sealed in a later round. The nodes
of many blocks are hashed together by `block_hashes`, level by level,
in `keccak256_many` batches; an unchanged group is a memo hit.

The six payload kinds are declared once, in `PAYLOAD_KINDS`: a kind's
position is its tag, its name is its JSON type and scenario action, and
its fields, in declaration order, are written by one codec per field
name. The codecs here, the contract and the scenario runner all read it.

A transaction and a block each keep their hash in a private slot filled
on first use. The values are immutable, so a digest never goes stale;
the slot takes no part in equality, `hash()` or `repr`.
`dataclasses.replace` starts the copy with it empty; `replace_unhashed`
changes only fields outside the hashing view and so keeps the hash.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Optional, Union

from .keccak import keccak256, keccak256_many

AMOUNT_MAX = (1 << 128) - 1


class Address(bytes):
    """20-byte account identifier, rendered as 0x-prefixed lowercase hex."""

    def __new__(cls, value: bytes) -> "Address":
        if len(value) != 20:
            raise ValueError(f"address must be 20 bytes, got {len(value)}")
        return super().__new__(cls, value)

    def __repr__(self) -> str:
        return f"Address({hx(self)})"


class Hash256(bytes):
    """32-byte digest."""

    def __new__(cls, value: bytes) -> "Hash256":
        if len(value) != 32:
            raise ValueError(f"hash must be 32 bytes, got {len(value)}")
        return super().__new__(cls, value)

    def __repr__(self) -> str:
        return f"Hash256({hx(self)})"


class Amount(int):
    """Unsigned 128-bit currency amount; arithmetic errors instead of wrapping."""

    def __new__(cls, value: int) -> "Amount":
        if not 0 <= value <= AMOUNT_MAX:
            raise OverflowError(f"amount out of range: {value}")
        return super().__new__(cls, value)

    def __add__(self, other: int) -> "Amount":
        return Amount(int(self) + int(other))

    def __sub__(self, other: int) -> "Amount":
        return Amount(int(self) - int(other))


ZERO_ADDRESS = Address(bytes(20))
ZERO_HASH = Hash256(bytes(32))


def hx(data: bytes) -> str:
    return "0x" + data.hex()


def unhx(text: str) -> bytes:
    if not isinstance(text, str) or not text.startswith("0x"):
        raise ValueError(f"expected 0x prefix: {text!r}")
    return bytes.fromhex(text[2:])


class Signature(bytes):
    """Opaque signature bytes; length is scheme-defined (32 for the mock)."""

    def __repr__(self) -> str:
        return f"Signature({hx(self)})"


# --- transaction payloads ------------------------------------------------

@dataclass(frozen=True, slots=True)
class Deploy:
    pass


@dataclass(frozen=True, slots=True)
class AddRecipient:
    recipient: Address


@dataclass(frozen=True, slots=True)
class RemoveRecipient:
    recipient: Address


@dataclass(frozen=True, slots=True)
class RegisterBankAccount:
    recipient: Address
    account: str


@dataclass(frozen=True, slots=True)
class AddFunds:
    amt: Amount


@dataclass(frozen=True, slots=True)
class SendAllowance:
    recipient: Address
    amount: Amount


TxPayload = Union[Deploy, AddRecipient, RemoveRecipient,
                  RegisterBankAccount, AddFunds, SendAllowance]


@dataclass(frozen=True, slots=True)
class Transaction:
    sender: Address
    nonce: int
    payload: TxPayload
    gas_limit: int
    gas_price: int
    signature: Signature
    _hash: Optional[Hash256] = field(default=None, init=False, repr=False, compare=False)


class TxStatus(enum.Enum):
    SUCCESS = "SUCCESS"
    FAILED = "FAILED"


class ErrorCode(enum.Enum):
    ALREADY_DEPLOYED = "AlreadyDeployed"
    NOT_DEPLOYED = "NotDeployed"
    UNAUTHORIZED = "Unauthorized"
    UNKNOWN_RECIPIENT = "UnknownRecipient"
    EMPTY_ACCOUNT_STRING = "EmptyAccountString"
    INSUFFICIENT_FUNDS = "InsufficientFunds"
    OVERFLOW = "Overflow"
    BAD_NONCE = "BadNonce"


@dataclass(frozen=True, slots=True)
class FundsAdded:
    value: Amount


@dataclass(frozen=True, slots=True)
class AllowanceSent:
    recipient: Address
    amount: Amount


@dataclass(frozen=True, slots=True)
class BankAccountRegistered:
    recipient: Address
    account_hash: Hash256


Event = Union[FundsAdded, AllowanceSent, BankAccountRegistered]


@dataclass(frozen=True, slots=True)
class Receipt:
    tx_hash: Hash256
    status: TxStatus
    error: Optional[ErrorCode]
    gas_used: int
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        if self.status is TxStatus.FAILED:
            if self.error is None or self.events:
                raise ValueError("failed receipts carry an error and no events")
        elif self.error is not None:
            raise ValueError("success receipts carry no error code")


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    round: int
    parent_hash: Hash256
    proposer: Address
    txs: tuple[Transaction, ...]
    state_root: Hash256
    commit_seals: tuple[tuple[Address, Signature], ...]
    _hash: Optional[Hash256] = field(default=None, init=False, repr=False, compare=False)


# --- canonical serialization ---------------------------------------------

def _u(value: int, width: int) -> bytes:
    if value < 0:
        raise ValueError("unsigned field is negative")
    return value.to_bytes(width, "big")


def _text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _u(len(raw), 4) + raw


def _var_bytes(b: bytes) -> bytes:
    return _u(len(b), 4) + b


# --- the payload table -----------------------------------------------------

def _json_amount(value: object) -> Amount:
    """An amount, written as its canonical decimal string."""
    if type(value) is not str or str(int(value)) != value:
        raise ValueError(f"expected a decimal amount string, got {value!r}")
    return Amount(int(value))


def _json_account(value: object) -> str:
    """An account, a JSON string that has a UTF-8 encoding."""
    if type(value) is not str:
        raise ValueError(f"expected an account string, got {value!r}")
    value.encode("utf-8")  # a lone surrogate has none
    return value


# A payload field's binary write, and its JSON write and read. One codec
# per field name: a 20-byte address or 0x-hex, a length-prefixed UTF-8
# string or a JSON string, a u128 or a canonical decimal string.
_Codec = namedtuple("_Codec", "write to_json from_json")
_AMOUNT = _Codec(lambda v: _u(v, 16), lambda v: str(int(v)), _json_amount)
_CODECS = {
    "recipient": _Codec(lambda v: v, hx, lambda v: Address(unhx(v))),
    "account": _Codec(_text, lambda v: v, _json_account),
    "amt": _AMOUNT,
    "amount": _AMOUNT,
}


# A row of the payload table: its tag byte (its position in PAYLOAD_KINDS),
# its JSON type and scenario action, its class, its field names in
# declaration order, their codecs, and a function giving a payload's field
# values in that order.
PayloadKind = namedtuple("PayloadKind", "tag name cls fields codecs values")


def _kind(tag: int, name: str, cls: type) -> PayloadKind:
    names = tuple(f.name for f in fields(cls))
    # attrgetter gives a tuple only for two or more names
    get = attrgetter(*names) if names else lambda p: ()
    return PayloadKind(bytes([tag]), name, cls, names, tuple(_CODECS[n] for n in names),
                       (lambda p: (get(p),)) if len(names) == 1 else get)


PAYLOAD_KINDS = tuple(_kind(tag, name, cls) for tag, (name, cls) in enumerate((
    ("deploy", Deploy), ("addRecipient", AddRecipient),
    ("removeRecipient", RemoveRecipient), ("registerBankAccount", RegisterBankAccount),
    ("addFunds", AddFunds), ("sendAllowance", SendAllowance))))
KIND_BY_TYPE = {k.cls: k for k in PAYLOAD_KINDS}
KIND_BY_NAME = {k.name: k for k in PAYLOAD_KINDS}


def serialize_payload(p: TxPayload) -> bytes:
    kind = KIND_BY_TYPE[type(p)]
    return kind.tag + b"".join([c.write(v) for c, v in zip(kind.codecs, kind.values(p))])


def serialize_tx(tx: Transaction, *, with_signature: bool = True) -> bytes:
    out = (tx.sender + _u(tx.nonce, 8) + serialize_payload(tx.payload)
           + _u(tx.gas_limit, 8) + _u(tx.gas_price, 8))
    return out + _var_bytes(tx.signature) if with_signature else out


def tx_hash(tx: Transaction) -> Hash256:
    h = tx._hash
    if h is None:
        h = Hash256(keccak256(serialize_tx(tx, with_signature=False)))
        object.__setattr__(tx, "_hash", h)
    return h


def serialize_block(block: Block) -> bytes:
    """Full encoding, seals and round included."""
    parts = [_u(block.height, 8), _u(block.round, 8), block.parent_hash,
             block.proposer, _u(len(block.txs), 4)]
    parts.extend(serialize_tx(t) for t in block.txs)
    parts.append(block.state_root)
    parts.append(_u(len(block.commit_seals), 4))
    for addr, sig in block.commit_seals:
        parts.append(addr)
        parts.append(_var_bytes(sig))
    return b"".join(parts)


_TX_GROUP = 16  # transactions per group of the block hash tree


def block_hashes(blocks: list[Block]) -> list[Hash256]:
    """The hash of every block, filling its slot. Blocks already hashed
    are slot reads; the rest share three batches: hashes of transactions
    not yet hashed, then tx groups, then hashing views."""
    todo = [b for b in blocks if b._hash is None]
    if todo:
        cold = [tx for b in todo for tx in b.txs if tx._hash is None]
        hashes = keccak256_many([serialize_tx(tx, with_signature=False) for tx in cold])
        for tx, h in zip(cold, hashes):
            object.__setattr__(tx, "_hash", Hash256(h))
        groups = []
        for b in todo:
            entries = [tx._hash + _var_bytes(tx.signature) for tx in b.txs]
            groups += [b"".join(entries[i:i + _TX_GROUP])
                       for i in range(0, len(entries), _TX_GROUP)]
        digests = iter(keccak256_many(groups))
        views = []
        for b in todo:
            joined = b"".join(next(digests) for _ in range(0, len(b.txs), _TX_GROUP))
            views.append(_u(b.height, 8) + b.parent_hash + b.proposer
                         + _u(len(b.txs), 4) + joined + b.state_root)
        for b, h in zip(todo, keccak256_many(views)):
            object.__setattr__(b, "_hash", Hash256(h))
    return [b._hash for b in blocks]


def block_hash(block: Block) -> Hash256:
    h = block._hash
    if h is None:
        h = block_hashes([block])[0]
    return h


# Fields outside each type's hashing view.
_UNHASHED = {Transaction: {"signature"}, Block: {"round", "commit_seals"}}


def replace_unhashed(value, **changes):
    """`dataclasses.replace` of fields outside the hashing view (a
    transaction's signature, a block's round and seals); the copy keeps
    the hash slot of `value`."""
    if not changes.keys() <= _UNHASHED[type(value)]:
        raise ValueError(f"{sorted(changes)} are hashed fields of {type(value).__name__}")
    copy = replace(value, **changes)
    object.__setattr__(copy, "_hash", value._hash)
    return copy


# --- JSON codecs for chain artifacts ---------------------------------------

def payload_to_json(p: TxPayload) -> dict:
    kind = KIND_BY_TYPE[type(p)]
    return {"type": kind.name, **{name: c.to_json(v) for name, c, v
                                  in zip(kind.fields, kind.codecs, kind.values(p))}}


def payload_from_json(obj: dict) -> TxPayload:
    kind = KIND_BY_NAME.get(obj["type"])
    if kind is None:
        raise ValueError(f"unknown payload type {obj['type']!r}")
    return kind.cls(*[c.from_json(obj[n]) for n, c in zip(kind.fields, kind.codecs)])


def _json_int(value: object, what: str = "value",
              error: type[Exception] = ValueError) -> int:
    """A JSON integer; a bool, float or numeric string is not one."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def _json_object(value: object, required: tuple[str, ...], optional: tuple[str, ...],
                 where: str, error: type[Exception],
                 missing: Optional[type[Exception]] = None) -> dict:
    """A JSON object that holds every `required` key and no key outside
    `required` and `optional`. A missing key raises `missing`, or `error`
    if that is None; anything else wrong raises `error`."""
    if not isinstance(value, dict):
        raise error(f"{where} must be a JSON object")
    for name in required:
        if name not in value:
            raise (missing or error)(f"{where}: missing field {name!r}")
    for name in value:
        if name not in required and name not in optional:
            raise error(f"{where}: unknown field {name!r}")
    return value


def _json_document(data: bytes, what: str, error: type[Exception]) -> object:
    """`data` read as one UTF-8 JSON document."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{what} is nested too deeply") from None


def tx_to_json(tx: Transaction) -> dict:
    return {
        "sender": hx(tx.sender),
        "nonce": tx.nonce,
        "payload": payload_to_json(tx.payload),
        "gasLimit": tx.gas_limit,
        "gasPrice": tx.gas_price,
        "signature": hx(tx.signature),
        "hash": hx(tx_hash(tx)),
    }


def tx_from_json(obj: dict) -> Transaction:
    return Transaction(
        sender=Address(unhx(obj["sender"])),
        nonce=_json_int(obj["nonce"]),
        payload=payload_from_json(obj["payload"]),
        gas_limit=_json_int(obj["gasLimit"]),
        gas_price=_json_int(obj["gasPrice"]),
        signature=Signature(unhx(obj["signature"])),
    )


def block_to_json(block: Block) -> dict:
    return {
        "height": block.height,
        "round": block.round,
        "parentHash": hx(block.parent_hash),
        "proposer": hx(block.proposer),
        "txs": [tx_to_json(t) for t in block.txs],
        "stateRoot": hx(block.state_root),
        "commitSeals": [[hx(a), hx(s)] for a, s in block.commit_seals],
        "hash": hx(block_hash(block)),
    }


def block_from_json(obj: dict) -> Block:
    return Block(
        height=_json_int(obj["height"]),
        round=_json_int(obj["round"]),
        parent_hash=Hash256(unhx(obj["parentHash"])),
        proposer=Address(unhx(obj["proposer"])),
        txs=tuple(tx_from_json(t) for t in obj["txs"]),
        state_root=Hash256(unhx(obj["stateRoot"])),
        commit_seals=tuple((Address(unhx(a)), Signature(unhx(s)))
                           for a, s in obj["commitSeals"]),
    )


# each event type's JSON fields; its "kind" is the type's name
_EVENT_FIELDS = {
    FundsAdded: lambda ev: {"value": str(int(ev.value))},
    AllowanceSent: lambda ev: {"recipient": hx(ev.recipient), "amount": str(int(ev.amount))},
    BankAccountRegistered: lambda ev: {"recipient": hx(ev.recipient),
                                       "accountHash": hx(ev.account_hash)},
}


def event_to_json(ev: Event) -> dict:
    return {"kind": type(ev).__name__, **_EVENT_FIELDS[type(ev)](ev)}


def receipt_to_json(r: Receipt) -> dict:
    return {
        "txHash": hx(r.tx_hash),
        "status": r.status.value,
        "error": None if r.error is None else r.error.value,
        "gasUsed": r.gas_used,
        "events": [event_to_json(e) for e in r.events],
    }
