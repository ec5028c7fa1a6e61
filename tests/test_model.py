"""Canonical serialization: round trips, injectivity, hash discipline."""

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from ledgersim import keccak
from ledgersim.keccak import keccak256
from ledgersim.model import (
    Address, AddFunds, AddRecipient, Amount, Block, Deploy, ErrorCode,
    FundsAdded, Hash256, Receipt, RegisterBankAccount, RemoveRecipient,
    SendAllowance, Signature, Transaction, TxStatus, ZERO_HASH,
    PAYLOAD_KINDS, block_from_json, block_hash, block_hashes, block_to_json, hx,
    payload_from_json, payload_to_json, replace_unhashed, serialize_block,
    serialize_payload, serialize_tx, tx_from_json, tx_hash, tx_to_json, unhx,
    _CODECS, _u,
)
from codec_reference import READS, deserialize_block, deserialize_tx
from keccak_reference import keccak256_reference

addresses = st.binary(min_size=20, max_size=20).map(Address)
hashes = st.binary(min_size=32, max_size=32).map(Hash256)
amounts = st.integers(min_value=0, max_value=(1 << 128) - 1).map(Amount)
signatures = st.binary(min_size=0, max_size=64).map(Signature)
texts = st.text(max_size=40)

payloads = st.one_of(
    st.just(Deploy()),
    addresses.map(AddRecipient),
    addresses.map(RemoveRecipient),
    st.builds(RegisterBankAccount, addresses, texts),
    amounts.map(AddFunds),
    st.builds(SendAllowance, addresses, amounts),
)

transactions = st.builds(
    Transaction,
    sender=addresses,
    nonce=st.integers(min_value=0, max_value=2**32),
    payload=payloads,
    gas_limit=st.integers(min_value=0, max_value=5_000_000),
    gas_price=st.integers(min_value=0, max_value=100),
    signature=signatures,
)

blocks = st.builds(
    Block,
    height=st.integers(min_value=0, max_value=2**32),
    round=st.integers(min_value=0, max_value=64),
    parent_hash=hashes,
    proposer=addresses,
    txs=st.lists(transactions, max_size=4).map(tuple),
    state_root=hashes,
    commit_seals=st.lists(st.tuples(addresses, signatures), max_size=4).map(tuple),
)


class TestScalars:
    def test_amount_zero_is_16_zero_bytes(self):
        assert _u(Amount(0), 16) == bytes(16)

    def test_address_must_be_20_bytes(self):
        with pytest.raises(ValueError):
            Address(b"\x01" * 19)

    def test_hash_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            Hash256(b"\x01" * 31)

    def test_hex_rendering_is_lowercase_0x(self):
        addr = Address(bytes.fromhex("ab" * 20))
        assert hx(addr) == "0x" + "ab" * 20
        assert unhx(hx(addr)) == addr

    @given(a=amounts, b=amounts)
    def test_amount_addition_errors_exactly_on_overflow(self, a, b):
        if int(a) + int(b) < (1 << 128):
            assert int(a + b) == int(a) + int(b)
        else:
            with pytest.raises(OverflowError):
                a + b

    @given(a=amounts, b=amounts)
    def test_amount_subtraction_errors_exactly_on_underflow(self, a, b):
        if int(a) - int(b) >= 0:
            assert int(a - b) == int(a) - int(b)
        else:
            with pytest.raises(OverflowError):
                a - b


class TestRoundTrips:
    @given(tx=transactions)
    def test_transaction_round_trips(self, tx):
        assert deserialize_tx(serialize_tx(tx)) == tx

    @given(block=blocks)
    def test_block_round_trips(self, block):
        assert deserialize_block(serialize_block(block)) == block

    @given(tx=transactions)
    def test_transaction_json_round_trips(self, tx):
        assert tx_from_json(tx_to_json(tx)) == tx

    @given(block=blocks)
    def test_block_json_round_trips(self, block):
        assert block_from_json(block_to_json(block)) == block


class TestInjectivity:
    def test_fuzzed_transaction_pairs_never_collide(self):
        rng = random.Random(99)
        seen = {}
        for _ in range(1000):
            tx = _random_tx(rng)
            blob = serialize_tx(tx)
            if blob in seen:
                assert seen[blob] == tx
            seen[blob] = tx

    def test_distinct_payload_variants_have_distinct_tags(self):
        a = serialize_payload(AddRecipient(Address(bytes(20))))
        r = serialize_payload(RemoveRecipient(Address(bytes(20))))
        assert a != r



# Each payload kind's exact encoding, written out by hand from the layout:
# a u8 tag, then the fields in declaration order, an address as its 20
# bytes, a string as a u32 byte length and its UTF-8, an amount as a
# big-endian u128. Then its JSON form, with amounts as decimal strings.
PAYLOAD_VECTORS = [
    (Deploy(), "00", {"type": "deploy"}),
    (AddRecipient(Address(b"\x11" * 20)), "01" + "11" * 20,
     {"type": "addRecipient", "recipient": "0x" + "11" * 20}),
    (RemoveRecipient(Address(b"\x22" * 20)), "02" + "22" * 20,
     {"type": "removeRecipient", "recipient": "0x" + "22" * 20}),
    (RegisterBankAccount(Address(b"\x33" * 20), "Z\u00fc-9"),
     "03" + "33" * 20 + "00000005" + "5a" + "c3bc" + "2d" + "39",
     {"type": "registerBankAccount", "recipient": "0x" + "33" * 20, "account": "Z\u00fc-9"}),
    (AddFunds(Amount(2**64 + 1)), "04" + "0000000000000001" + "0000000000000001",
     {"type": "addFunds", "amt": "18446744073709551617"}),
    (SendAllowance(Address(b"\x44" * 20), Amount(300)), "05" + "44" * 20 + "00" * 14 + "012c",
     {"type": "sendAllowance", "recipient": "0x" + "44" * 20, "amount": "300"}),
]


@pytest.mark.parametrize("payload, wire, obj", PAYLOAD_VECTORS,
                         ids=[obj["type"] for _, _, obj in PAYLOAD_VECTORS])
def test_payload_golden_vectors(payload, wire, obj):
    assert serialize_payload(payload).hex() == wire
    assert payload_to_json(payload) == obj
    assert payload_from_json(obj) == payload
    # sender, u64 nonce 7, the payload, u64 gas limit 21000, u64 gas price 1,
    # then the signature: a u32 length and its bytes
    tx_wire = ("aa" * 20 + "0000000000000007" + wire + "0000000000005208"
               + "0000000000000001" + "00000002" + "beef")
    tx = deserialize_tx(bytes.fromhex(tx_wire))
    assert tx == Transaction(Address(b"\xaa" * 20), 7, payload, 21000, 1, Signature(b"\xbe\xef"))
    assert serialize_tx(tx).hex() == tx_wire


class TestCodecReference:
    """The binary encoding is only written by the product; the test
    oracle `codec_reference` decodes it. A payload field cannot land
    without a read, so every encoding stays shown to be injective."""

    def test_reads_cover_exactly_the_product_codecs(self):
        assert READS.keys() == _CODECS.keys()

    def test_every_payload_tag_decodes(self):
        vectors = {type(payload): payload for payload, _, _ in PAYLOAD_VECTORS}
        for kind in PAYLOAD_KINDS:
            wire = _tx_wire(vectors[kind.cls])
            assert wire[28:29] == kind.tag  # after the sender and the nonce
            assert deserialize_tx(wire).payload == vectors[kind.cls]

    def test_an_unknown_tag_is_refused(self):
        wire = bytearray(_tx_wire(Deploy()))
        wire[28] = len(PAYLOAD_KINDS)
        with pytest.raises(ValueError, match="bad payload tag"):
            deserialize_tx(bytes(wire))

    def test_trailing_bytes_after_a_transaction_are_refused(self):
        with pytest.raises(ValueError, match="trailing bytes after transaction"):
            deserialize_tx(_tx_wire(Deploy()) + b"\x00")

    def test_trailing_bytes_after_a_block_are_refused(self):
        tx = deserialize_tx(_tx_wire(AddFunds(Amount(5))))
        wire = serialize_block(Block(1, 0, ZERO_HASH, Address(bytes(20)), (tx,), ZERO_HASH, ()))
        assert deserialize_block(wire).txs == (tx,)
        with pytest.raises(ValueError, match="trailing bytes after block"):
            deserialize_block(wire + b"\x00")


def _tx_wire(payload) -> bytes:
    return serialize_tx(Transaction(Address(b"\xaa" * 20), 7, payload, 21000, 1,
                                    Signature(b"\xbe\xef")))


def _random_tx(rng: random.Random) -> Transaction:
    payload_kind = rng.randrange(6)
    addr = Address(rng.randbytes(20))
    if payload_kind == 0:
        payload = Deploy()
    elif payload_kind == 1:
        payload = AddRecipient(addr)
    elif payload_kind == 2:
        payload = RemoveRecipient(addr)
    elif payload_kind == 3:
        payload = RegisterBankAccount(addr, rng.choice(["", "a", "IBAN-1", "x" * 30]))
    elif payload_kind == 4:
        payload = AddFunds(Amount(rng.randrange(1 << 64)))
    else:
        payload = SendAllowance(addr, Amount(rng.randrange(1 << 64)))
    return Transaction(Address(rng.randbytes(20)), rng.randrange(1 << 16),
                       payload, rng.randrange(5_000_000), 0,
                       Signature(rng.randbytes(32)))


class TestBlockHash:
    def test_identical_blocks_hash_identically(self):
        b1 = _empty_block()
        b2 = _empty_block()
        assert b1 is not b2 and block_hash(b1) == block_hash(b2)

    def test_adding_seals_never_changes_the_hash(self):
        base = _empty_block()
        sealed = Block(base.height, base.round, base.parent_hash, base.proposer,
                       base.txs, base.state_root,
                       ((Address(b"\x07" * 20), Signature(b"\x01" * 32)),))
        assert block_hash(base) == block_hash(sealed)

    def test_flipping_one_tx_bit_changes_the_hash(self):
        rng = random.Random(3)
        for _ in range(100):
            tx = _random_tx(rng)
            block = Block(1, 0, ZERO_HASH, Address(bytes(20)), (tx,),
                          Hash256(bytes(32)), ())
            blob = bytearray(serialize_tx(tx, with_signature=True))
            bit = rng.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            try:
                mutated = deserialize_tx(bytes(blob))
            except (ValueError, OverflowError):
                continue  # flip landed in a length prefix or range check
            if mutated == tx or mutated.signature != tx.signature:
                continue  # signature flips do not affect the tx hash
            other = Block(1, 0, ZERO_HASH, Address(bytes(20)), (mutated,),
                          Hash256(bytes(32)), ())
            assert block_hash(other) != block_hash(block)

    def test_genesis_hash_matches_independent_keccak_oracle(self):
        from ledgersim.simulation import make_genesis_block
        genesis = make_genesis_block()
        expected = keccak256_reference(_hashing_view(genesis, keccak256_reference))
        assert block_hash(genesis) == Hash256(expected)


def _hashing_view(block: Block, digest) -> bytes:
    """The block hashing view, built from the fields alone: height,
    parent, proposer, tx count, the digests of 16-tx groups of
    (tx hash, length-prefixed signature) entries, and the state root.
    `digest` is the Keccak implementation to use."""
    groups = b""
    for start in range(0, len(block.txs), 16):
        entries = b"".join(
            digest(serialize_tx(tx, with_signature=False))
            + len(tx.signature).to_bytes(4, "big") + tx.signature
            for tx in block.txs[start:start + 16])
        groups += digest(entries)
    return (block.height.to_bytes(8, "big") + block.parent_hash + block.proposer
            + len(block.txs).to_bytes(4, "big") + groups + block.state_root)


def _empty_block() -> Block:
    return Block(1, 0, ZERO_HASH, Address(b"\x01" * 20), (),
                 Hash256(b"\x02" * 32), ())


def _cold(value):
    """An equal copy built from the init fields, so no digest slot of it
    or of its transactions has been filled."""
    args = {f.name: getattr(value, f.name) for f in fields(value) if f.init}
    if isinstance(value, Block):
        args["txs"] = tuple(_cold(tx) for tx in value.txs)
    return type(value)(**args)


class TestDigestSlots:
    """Digests kept on the values match a from-scratch computation, and
    never leak into equality, hashing, repr or `replace` copies."""

    @given(tx=transactions)
    def test_tx_hash_and_encoding_match_a_cold_copy(self, tx):
        want_view = serialize_tx(_cold(tx), with_signature=False)
        want_hash = Hash256(keccak256(want_view))
        want_wire = serialize_tx(_cold(tx))
        assert tx._hash is None
        assert serialize_tx(tx) == want_wire  # the full encoding first
        for _ in range(2):
            assert tx_hash(tx) == want_hash
            assert serialize_tx(tx, with_signature=False) == want_view
            assert serialize_tx(tx) == want_wire
        assert tx._hash == want_hash

    @given(block=blocks)
    def test_block_hash_matches_a_cold_copy(self, block):
        want = Hash256(keccak256(_hashing_view(_cold(block), keccak256)))
        assert block._hash is None
        for _ in range(2):
            assert block_hash(block) == want
        assert block._hash == want
        assert serialize_block(block) == serialize_block(_cold(block))

    @given(block=blocks)
    def test_filled_slots_change_no_equality_hash_or_repr(self, block):
        fresh = _cold(block)
        text = repr(block)
        block_hash(block)
        for tx in block.txs:
            tx_hash(tx)
            serialize_tx(tx)
        assert block == fresh and hash(block) == hash(fresh)
        assert repr(block) == text == repr(fresh)
        for tx, cold in zip(block.txs, fresh.txs):
            assert tx == cold and hash(tx) == hash(cold) and repr(tx) == repr(cold)

    def test_replace_keeps_the_hash_only_if_the_hashing_view_is_kept(self):
        rng = random.Random(5)
        block = Block(3, 0, ZERO_HASH, Address(b"\x01" * 20),
                      (_random_tx(rng), _random_tx(rng)), Hash256(b"\x02" * 32), ())
        h = block_hash(block)
        sealed = replace(block, round=4,
                         commit_seals=((Address(b"\x07" * 20), Signature(b"\x01" * 32)),))
        assert block_hash(sealed) == h
        for other in (replace(block, txs=block.txs[:1]),
                      replace(block, state_root=Hash256(b"\x03" * 32))):
            assert block_hash(other) != h
            assert block_hash(other) == block_hash(_cold(other))

    def test_replace_of_a_transaction_re_encodes_it(self):
        tx = _random_tx(random.Random(6))
        h, wire = tx_hash(tx), serialize_tx(tx)
        resigned = replace(tx, signature=Signature(b"\x05" * 32))
        assert tx_hash(resigned) == h  # the signature is not hashed
        assert serialize_tx(resigned) != wire
        assert serialize_tx(resigned) == serialize_tx(_cold(resigned))
        renonced = replace(tx, nonce=tx.nonce + 1)
        assert tx_hash(renonced) != h


class TestBlockHashes:
    """The batched entry point and the 16-transaction groups of the tree."""

    @pytest.mark.parametrize("n_txs", [0, 1, 16, 17, 257])
    def test_batched_and_singular_agree_on_a_cold_memo(self, n_txs):
        rng = random.Random(n_txs)
        txs = tuple(_random_tx(rng) for _ in range(n_txs))
        blocks = [Block(h, 0, Hash256(rng.randbytes(32)), Address(rng.randbytes(20)),
                        txs[h % 2:], Hash256(rng.randbytes(32)), ()) for h in range(1, 4)]
        keccak._memo.clear()
        together = block_hashes(blocks)
        for block, h in zip(blocks, together):
            keccak._memo.clear()
            assert block_hash(_cold(block)) == h == keccak256(_hashing_view(block, keccak256))
            assert block._hash == h
        assert len(set(together)) == len(together)

    def test_a_signature_is_committed(self):
        rng = random.Random(9)
        txs = tuple(_random_tx(rng) for _ in range(17))
        block = Block(1, 0, ZERO_HASH, Address(bytes(20)), txs, ZERO_HASH, ())
        resigned = replace_unhashed(txs[-1], signature=Signature(b"\x05" * 32))
        other = Block(1, 0, ZERO_HASH, Address(bytes(20)), txs[:-1] + (resigned,),
                      ZERO_HASH, ())
        assert tx_hash(resigned) == tx_hash(txs[-1])
        assert block_hash(other) != block_hash(block)


class TestReplaceUnhashed:
    """Copies that change only unhashed fields keep the hash slot."""

    def test_resigned_tx_keeps_its_hash_and_re_encodes(self):
        tx = _random_tx(random.Random(1))
        h = tx_hash(tx)
        serialize_tx(tx)
        resigned = replace_unhashed(tx, signature=Signature(b"\x05" * 32))
        assert resigned._hash == h == tx_hash(_cold(resigned))
        assert serialize_tx(resigned) == serialize_tx(_cold(resigned))

    def test_sealed_block_keeps_its_hash(self):
        block = Block(2, 0, ZERO_HASH, Address(bytes(20)), (_random_tx(random.Random(2)),),
                      ZERO_HASH, ())
        h = block_hash(block)
        sealed = replace_unhashed(block, round=3,
                                  commit_seals=((Address(b"\x07" * 20), Signature(b"\x01")),))
        assert sealed._hash == h == block_hash(_cold(sealed))

    def test_an_unhashed_copy_of_a_cold_value_stays_cold(self):
        assert replace_unhashed(_empty_block(), round=1)._hash is None

    @pytest.mark.parametrize("value, change", [
        (_random_tx(random.Random(3)), {"nonce": 7}),
        (_empty_block(), {"state_root": Hash256(b"\x01" * 32)}),
        (_empty_block(), {"round": 1, "txs": ()}),
    ])
    def test_hashed_fields_are_refused(self, value, change):
        with pytest.raises(ValueError):
            replace_unhashed(value, **change)

    def test_kept_slots_in_a_run_match_a_cold_recomputation(self):
        from conftest import make_genesis
        from ledgersim.crypto import KeyPair
        from ledgersim.simulation import Simulation
        sim = Simulation(make_genesis(seed=3), collect_traces=False)
        org = KeyPair.from_seed(sim.genesis.key_provider.private_keys[0])
        for payload in (Deploy(), AddRecipient(Address(b"\x09" * 20))):
            tx = sim.build_tx(org, payload)
            assert tx._hash == tx_hash(_cold(tx))
            sim.submit_to_all(tx)
        assert sim.run_until_min_height(2)
        for node in sim.nodes.values():
            for block in node.chain.blocks[1:]:
                assert block.commit_seals and block._hash == block_hash(_cold(block))


class TestJsonNumbers:
    """Dump fields are JSON integers, and amounts canonical decimal
    strings; nothing else is coerced."""

    def _tx_json(self):
        tx = Transaction(Address(b"\x01" * 20), 3, AddFunds(Amount(700)), 21000, 0,
                         Signature(b"\x02" * 32))
        return tx_to_json(tx)

    @pytest.mark.parametrize("key,value", [
        ("nonce", "3"), ("nonce", 3.0), ("nonce", True), ("nonce", None),
        ("gasLimit", 21000.0), ("gasLimit", "21000"), ("gasPrice", False),
    ])
    def test_tx_integer_fields_must_be_json_integers(self, key, value):
        obj = self._tx_json()
        obj[key] = value
        with pytest.raises(ValueError):
            tx_from_json(obj)

    @pytest.mark.parametrize("value", [
        700, 700.0, "0700", "+700", " 700", "7_00", "700.0", "", "0x2bc",
    ])
    def test_amounts_must_be_canonical_decimal_strings(self, value):
        obj = self._tx_json()
        obj["payload"]["amt"] = value
        with pytest.raises(ValueError):
            tx_from_json(obj)

    @pytest.mark.parametrize("key,value", [
        ("height", 1.7), ("height", "1"), ("round", 0.0), ("round", False),
    ])
    def test_block_integer_fields_must_be_json_integers(self, key, value):
        obj = block_to_json(_empty_block())
        obj[key] = value
        with pytest.raises(ValueError):
            block_from_json(obj)

    def test_canonical_values_are_accepted(self):
        obj = self._tx_json()
        assert obj["payload"]["amt"] == "700"
        assert tx_to_json(tx_from_json(obj)) == obj
        obj["payload"]["amt"] = "0"
        assert tx_from_json(obj).payload.amt == 0


class TestReceiptInvariants:
    def test_failed_receipt_requires_error_and_no_events(self):
        with pytest.raises(ValueError):
            Receipt(Hash256(bytes(32)), TxStatus.FAILED, None, 21000, ())
        with pytest.raises(ValueError):
            Receipt(Hash256(bytes(32)), TxStatus.FAILED, ErrorCode.UNAUTHORIZED,
                    21000, (FundsAdded(Amount(1)),))

    def test_success_receipt_rejects_error_code(self):
        with pytest.raises(ValueError):
            Receipt(Hash256(bytes(32)), TxStatus.SUCCESS, ErrorCode.UNAUTHORIZED,
                    21000, ())
