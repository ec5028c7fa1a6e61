"""Key material and the deterministic mock signature scheme.

The network is permissioned and the simulator owns every key, so a
signature is a keyed hash: sign(key, msg) = BLAKE2b-256 keyed with the
secret. Besu signs with secp256k1, so Keccak would be no more faithful,
and stdlib BLAKE2b costs a fraction of the pure-Python Keccak, which is
kept for commitments (tx and block hashes, state roots, addresses, public
ids). Transactions sign their 32-byte hash and consensus messages their
49-byte payload, so the two signed inputs never coincide. Verification
re-derives the tag from the registered secret; an unknown signer fails
it. The scheme sits behind sign()/Registry.verify() so a real one could
be swapped in without touching consensus or contract code.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import UnknownPublicId
from .keccak import keccak256
from .model import Address, Hash256, Signature


@dataclass(frozen=True, slots=True)
class KeyPair:
    secret: bytes
    public_id: Hash256
    address: Address

    @classmethod
    def from_seed(cls, secret: bytes) -> "KeyPair":
        if len(secret) != 32:
            raise ValueError("key seed must be 32 bytes")
        public_id = Hash256(keccak256(secret))
        address = Address(keccak256(public_id)[-20:])
        return cls(secret, public_id, address)


def sign(key: KeyPair, msg: bytes) -> Signature:
    return Signature(hashlib.blake2b(msg, key=key.secret, digest_size=32).digest())


class Registry:
    """Genesis-known key registry; maps public ids and addresses to keys."""

    def __init__(self) -> None:
        self._by_public_id: dict[Hash256, KeyPair] = {}
        self._by_address: dict[Address, KeyPair] = {}

    def register(self, key: KeyPair) -> None:
        self._by_public_id[key.public_id] = key
        self._by_address[key.address] = key

    def key_for_address(self, address: Address) -> KeyPair | None:
        return self._by_address.get(address)

    def verify(self, public_id: Hash256, msg: bytes, sig: Signature) -> bool:
        key = self._by_public_id.get(public_id)
        if key is None:
            raise UnknownPublicId(f"unregistered public id {public_id.hex()}")
        return sig == sign(key, msg)

    def verify_by_address(self, address: Address, msg: bytes, sig: Signature) -> bool:
        """Whether `sig` is `address`'s signature; False for an unregistered address."""
        key = self._by_address.get(address)
        return key is not None and sig == sign(key, msg)
