"""Key derivation and the mock signature scheme."""

import hashlib
import random
from dataclasses import replace

import pytest

from ledgersim.consensus import MsgKind, make_message, message_payload, verify_message
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


def test_sign_is_keyed_blake2b():
    secret = bytes(range(32))
    msg = b"ledgersim signature vector"
    expected = hashlib.blake2b(msg, key=secret, digest_size=32).digest()
    assert sign(KeyPair.from_seed(secret), msg) == expected
    assert expected.hex() == \
        "5aa4a16dae0ef7a7b5a6b69eec00cb455c1d299b91f0b852f48a0f581ea518f1"


def test_commit_signature_does_not_sign_the_bare_block_hash(registry, keys):
    block_hash_ = Hash256(b"\x07" * 32)
    msg = make_message(keys[0], MsgKind.COMMIT, 5, 2, block_hash_)
    assert verify_message(msg, registry)
    assert not registry.verify(keys[0].public_id, block_hash_, msg.signature)


def test_flipping_any_payload_byte_fails_verify_message(registry, keys):
    msg = make_message(keys[1], MsgKind.PREPARE, 9, 3, Hash256(bytes(range(32))))
    payload = message_payload(msg.kind, msg.height, msg.round, msg.block_hash)
    assert len(payload) == 49
    kinds = {message_payload(k, 0, 0, Hash256(bytes(32)))[0]: k for k in MsgKind}
    for i in range(len(payload)):
        flipped = bytearray(payload)
        flipped[i] ^= 0x01 if i == 0 else 0xFF  # tag 1 is PREPARE; 0 is PRE_PREPARE
        kind = kinds[flipped[0]]
        forged = replace(msg, kind=kind, height=int.from_bytes(flipped[1:9], "big"),
                         round=int.from_bytes(flipped[9:17], "big"),
                         block_hash=Hash256(bytes(flipped[17:])))
        assert message_payload(forged.kind, forged.height, forged.round,
                               forged.block_hash) == bytes(flipped)
        assert not verify_message(forged, registry)


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
