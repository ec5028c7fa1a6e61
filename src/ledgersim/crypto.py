"""Key material and the deterministic mock signature scheme.

The network is permissioned and the simulator owns every key, so
signatures are keyed hashes: sign(key, digest) = keccak256(secret || digest).
Verification re-derives the tag from the registered secret; an unknown
signer fails it. The scheme sits behind sign()/Registry.verify() so a
real one could be swapped in without touching consensus or contract code.
"""

from __future__ import annotations

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


def signing_input(key: KeyPair, digest: bytes) -> bytes:
    """The bytes sign() hashes, for callers that hash many at once."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    return key.secret + digest


def sign(key: KeyPair, digest: bytes) -> Signature:
    return Signature(keccak256(signing_input(key, digest)))


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

    def verify(self, public_id: Hash256, digest: bytes, sig: Signature) -> bool:
        key = self._by_public_id.get(public_id)
        if key is None:
            raise UnknownPublicId(f"unregistered public id {public_id.hex()}")
        return sig == sign(key, digest)

    def verify_by_address(self, address: Address, digest: bytes, sig: Signature) -> bool:
        """Whether `sig` is `address`'s signature; False for an unregistered address."""
        key = self._by_address.get(address)
        return key is not None and sig == sign(key, digest)
