"""Hash implementation against published vectors and the bit-level oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ledgersim import keccak
from ledgersim.keccak import keccak256, keccak256_many
from keccak_reference import keccak256_reference

# The first two are the widely published Keccak-256 anchors; the rest
# were computed with the independent bit-level reference implementation
# before the production code existed, and include both rate-boundary
# paddings and a multi-block input.
VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (b"hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"),
    (b"The quick brown fox jumps over the lazy dog",
     "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "45d3b367a6904e6e8d502ee04999a7c27647f91fa845d456525fd352ae3d7371"),
    (b"\x00" * 135, "29e3704feeca7fb9ba229f0fa04d9b36449cf3ad6e1d85d9cfff3a10df9abc3e"),
    (b"\x00" * 136, "3a5912a7c5faa06ee4fe906253e339467a9ce87d533c65be3c15cb231cdb25f9"),
    (b"\xa3" * 200, "3a57666b048777f2c953dc4456f45a2588e1cb6f2da760122d530ac2ce607d4a"),
]


@pytest.mark.parametrize("data,expected", VECTORS,
                         ids=[f"len{len(d)}" for d, _ in VECTORS])
def test_published_vectors(data, expected):
    assert keccak256(data).hex() == expected


@pytest.mark.parametrize("data,expected", VECTORS[:4])
def test_oracle_agrees_on_vectors(data, expected):
    assert keccak256_reference(data).hex() == expected


def test_matches_oracle_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(0, 450))
        assert keccak256(data) == keccak256_reference(data)


def test_no_collisions_at_desk_scale():
    rng = random.Random(5)
    seen = {}
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(0, 64))
        digest = keccak256(data)
        if digest in seen:
            assert seen[digest] == data
        seen[digest] = data


def test_digest_is_32_bytes():
    assert len(keccak256(b"x")) == 32


# --- many messages at once ---------------------------------------------------

# around the 136-byte rate: empty, one byte, one short of a block, exactly
# one block, one over, exactly two blocks, and several blocks
BATCH_LENGTHS = (0, 1, 135, 136, 137, 272, 700)


@pytest.fixture()
def cold_memo():
    keccak._memo.clear()
    yield
    keccak._memo.clear()


def _scalar(messages):
    keccak._memo.clear()
    return [keccak256(m) for m in messages]


def test_many_matches_oracle_across_rate_boundaries(cold_memo):
    rng = random.Random(7)
    messages = [rng.randbytes(n) for n in BATCH_LENGTHS]
    assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]


@pytest.mark.parametrize("count", [0, 1, 2, 255, 256, 257])
def test_many_matches_scalar_on_mixed_lengths(cold_memo, count):
    rng = random.Random(count)
    messages = [rng.randbytes(rng.choice(BATCH_LENGTHS)) for _ in range(count)]
    assert keccak256_many(messages) == _scalar(messages)


def test_many_keeps_order_and_duplicates(cold_memo):
    rng = random.Random(3)
    distinct = [rng.randbytes(n) for n in BATCH_LENGTHS]
    messages = [distinct[i % 3] for i in range(300)] + distinct + distinct[::-1]
    digests = keccak256_many(messages)
    assert digests == _scalar(messages)
    assert len(set(digests)) == len(distinct)


def test_many_memoizes_what_it_computes(cold_memo):
    messages = [bytes([i]) * i for i in range(40)]
    digests = keccak256_many(messages)
    assert all(keccak._memo[m] == d for m, d in zip(messages, digests))
    assert keccak256_many(messages) == digests


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(max_size=300), max_size=40))
def test_many_equals_keccak256_per_message(messages):
    keccak._memo.clear()
    digests = keccak256_many(messages)
    assert digests == _scalar(messages)


def test_many_digests_a_tuple_as_its_concatenation(cold_memo):
    rng = random.Random(11)
    parts = [tuple(rng.randbytes(rng.choice(BATCH_LENGTHS)) for _ in range(k))
             for k in range(5)]
    messages = parts + [b"".join(p) for p in parts] + parts[::-1]
    digests = keccak256_many(messages)
    assert all(keccak._memo[p] == d for p, d in zip(parts, digests))
    assert digests == _scalar([b"".join(m) if type(m) is tuple else m for m in messages])
