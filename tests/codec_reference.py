"""Reference decoder for the canonical binary encoding of ledgersim.model.

The simulator only ever writes this encoding: it hashes it, while the
network carries objects and every dump and artifact is JSON. Decoding an
encoding back to the value it came from is the evidence that the
encoding is injective, so the decoder lives here, beside the tests that
use it, with its own read per payload field name.
"""

from ledgersim.model import (
    PAYLOAD_KINDS, Address, Amount, Block, Hash256, Signature, Transaction,
)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated input")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def var_bytes(self) -> bytes:
        return self.take(self.u(4))

    def finish(self, what: str) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"trailing bytes after {what}")


# The binary read of each payload field, by field name: an address as its
# 20 bytes, a string as a u32 byte length and its UTF-8, an amount as a
# big-endian u128.
READS = {
    "recipient": lambda r: Address(r.take(20)),
    "account": lambda r: r.var_bytes().decode("utf-8"),
    "amt": lambda r: Amount(r.u(16)),
    "amount": lambda r: Amount(r.u(16)),
}


def read_payload(r: Reader):
    tag = r.u(1)
    if tag >= len(PAYLOAD_KINDS):
        raise ValueError(f"bad payload tag {tag}")
    kind = PAYLOAD_KINDS[tag]
    return kind.cls(*[READS[name](r) for name in kind.fields])


def read_tx(r: Reader) -> Transaction:
    sender = Address(r.take(20))
    nonce = r.u(8)
    payload = read_payload(r)
    gas_limit = r.u(8)
    gas_price = r.u(8)
    return Transaction(sender, nonce, payload, gas_limit, gas_price,
                       Signature(r.var_bytes()))


def deserialize_tx(data: bytes) -> Transaction:
    r = Reader(data)
    tx = read_tx(r)
    r.finish("transaction")
    return tx


def deserialize_block(data: bytes) -> Block:
    r = Reader(data)
    height = r.u(8)
    round_ = r.u(8)
    parent = Hash256(r.take(32))
    proposer = Address(r.take(20))
    txs = tuple(read_tx(r) for _ in range(r.u(4)))
    state_root = Hash256(r.take(32))
    seals = tuple((Address(r.take(20)), Signature(r.var_bytes()))
                  for _ in range(r.u(4)))
    r.finish("block")
    return Block(height, round_, parent, proposer, txs, state_root, seals)
