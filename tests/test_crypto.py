"""Key derivation and the mock signature scheme."""

import random

import pytest

from ledgersim.crypto import KeyPair, sign
from ledgersim.errors import UnknownPublicId
from ledgersim.keccak import keccak256
from ledgersim.model import Hash256


def test_derivation_chain():
    secret = b"\x11" * 32
    kp = KeyPair.from_seed(secret)
    assert kp.public_id == keccak256(secret)
    assert kp.address == keccak256(kp.public_id)[-20:]


def test_rebuilding_from_seed_is_byte_identical():
    secret = b"\x42" * 32
    assert KeyPair.from_seed(secret) == KeyPair.from_seed(secret)
    assert KeyPair.from_seed(secret).address == KeyPair.from_seed(secret).address


def test_seed_must_be_32_bytes():
    with pytest.raises(ValueError):
        KeyPair.from_seed(b"short")


def test_sign_is_deterministic(keys):
    digest = Hash256(b"\x05" * 32)
    assert sign(keys[0], digest) == sign(keys[0], digest)


def test_distinct_keys_sign_distinctly(keys):
    rng = random.Random(1)
    for _ in range(50):
        digest = Hash256(rng.randbytes(32))
        k1, k2 = rng.sample(keys, 2)
        assert sign(k1, digest) != sign(k2, digest)


def test_sign_requires_32_byte_digest(keys):
    with pytest.raises(ValueError):
        sign(keys[0], b"too-short")


def test_verify_round_trip(registry, keys):
    digest = Hash256(b"\x09" * 32)
    sig = sign(keys[0], digest)
    assert registry.verify(keys[0].public_id, digest, sig)


def test_verify_rejects_tampered_digest(registry, keys):
    digest = Hash256(b"\x09" * 32)
    sig = sign(keys[0], digest)
    tampered = Hash256(b"\x0a" + digest[1:])
    assert not registry.verify(keys[0].public_id, tampered, sig)


def test_verify_unknown_public_id_raises(registry):
    stranger = KeyPair.from_seed(b"\xfe" * 32)
    with pytest.raises(UnknownPublicId):
        registry.verify(stranger.public_id, Hash256(bytes(32)), sign(stranger, Hash256(bytes(32))))


def test_verify_by_address_unknown_address_is_false(registry):
    stranger = KeyPair.from_seed(b"\xfe" * 32)
    digest = Hash256(bytes(32))
    assert registry.key_for_address(stranger.address) is None
    assert registry.verify_by_address(stranger.address, digest, sign(stranger, digest)) is False


def test_distinct_seeds_yield_distinct_addresses():
    rng = random.Random(77)
    seen = set()
    for _ in range(1000):
        addr = KeyPair.from_seed(rng.randbytes(32)).address
        assert addr not in seen
        seen.add(addr)
