"""Hash implementation against published vectors and the bit-level oracle."""

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from ledgersim import keccak
from ledgersim.keccak import keccak256
from keccak_reference import W, _permute, keccak256_reference

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


def one_level(messages):
    """The digests of `messages`, hashed as one level of `run_levels`."""
    digests = []

    def level():
        digests.extend((yield messages))

    keccak.run_levels(level())
    return digests


def test_many_matches_oracle_across_rate_boundaries(cold_memo):
    rng = random.Random(7)
    messages = [rng.randbytes(n) for n in BATCH_LENGTHS]
    assert one_level(messages) == [keccak256_reference(m) for m in messages]


@pytest.mark.parametrize("count", [0, 1, 2, 255, 256, 257])
def test_many_matches_scalar_on_mixed_lengths(cold_memo, count):
    rng = random.Random(count)
    messages = [rng.randbytes(rng.choice(BATCH_LENGTHS)) for _ in range(count)]
    assert one_level(messages) == _scalar(messages)


def test_many_keeps_order_and_duplicates(cold_memo):
    rng = random.Random(3)
    distinct = [rng.randbytes(n) for n in BATCH_LENGTHS]
    messages = [distinct[i % 3] for i in range(300)] + distinct + distinct[::-1]
    digests = one_level(messages)
    assert digests == _scalar(messages)
    assert len(set(digests)) == len(distinct)


def test_many_memoizes_what_it_computes(cold_memo):
    messages = [bytes([i]) * i for i in range(40)]
    digests = one_level(messages)
    assert all(keccak._memo[m] == d for m, d in zip(messages, digests))
    assert one_level(messages) == digests


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(max_size=300), max_size=40))
def test_many_equals_keccak256_per_message(messages):
    keccak._memo.clear()
    digests = one_level(messages)
    assert digests == _scalar(messages)


def test_many_digests_a_tuple_as_its_concatenation(cold_memo):
    rng = random.Random(11)
    parts = [tuple(rng.randbytes(rng.choice(BATCH_LENGTHS)) for _ in range(k))
             for k in range(5)]
    messages = parts + [b"".join(p) for p in parts] + parts[::-1]
    digests = one_level(messages)
    assert all(keccak._memo[p] == d for p, d in zip(parts, digests))
    assert digests == _scalar([b"".join(m) if type(m) is tuple else m for m in messages])


MEMO_BOUND = 5


@pytest.fixture()
def bounded_memo(monkeypatch):
    """A memo limited to MEMO_BOUND entries that fails any insert past it."""
    class BoundedMemo(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            assert len(self) <= MEMO_BOUND

    monkeypatch.setattr(keccak, "_MEMO_LIMIT", MEMO_BOUND)
    monkeypatch.setattr(keccak, "_memo", BoundedMemo())


def test_memo_is_cleared_at_its_limit(bounded_memo):
    rng = random.Random(17)
    for _ in range(3):
        singles = [rng.randbytes(n) for n in BATCH_LENGTHS]
        assert [keccak256(m) for m in singles] == [keccak256_reference(m) for m in singles]
        batch = [rng.randbytes(n) for n in BATCH_LENGTHS] + [(rng.randbytes(90), b"", b"xy")]
        joined = [b"".join(m) if type(m) is tuple else m for m in batch]
        assert one_level(batch) == [keccak256_reference(m) for m in joined]
        assert len(keccak._memo) <= MEMO_BOUND


# --- dependent levels on one refilling sponge ------------------------------

# (levels, messages per level) of each pipeline run together
PIPELINES = ((3, 5), (2, 7), (3, 3))
_reference_memo: dict = {}


def _reference(message):
    data = b"".join(message) if type(message) is tuple else message
    if data not in _reference_memo:
        _reference_memo[data] = keccak256_reference(data)
    return _reference_memo[data]


def _pipeline(seed, levels, count, record):
    """`levels` levels of `count` messages of 0-1,200 bytes, so each ends
    at a different block. A message after the first level starts with a
    digest of the level before, so a level is queued only once the one
    before it is squeezed, into the slots its shorter messages freed.
    The last message of each level is a tuple."""
    rng = random.Random(seed)
    digests = []
    for _ in range(levels):
        bodies = [rng.randbytes(rng.randrange(0, 1201)) for _ in range(count)]
        messages = [digests[i % len(digests)] + b if digests else b
                    for i, b in enumerate(bodies)]
        messages[-1] = (messages[-1][:32], messages[-1][32:])
        digests = yield messages
        record.append((messages, digests))


def _run_pipelines():
    records = [[] for _ in PIPELINES]
    keccak.run_levels(*(_pipeline(seed, levels, count, record)
                        for seed, ((levels, count), record) in enumerate(zip(PIPELINES, records))))
    for (levels, _), record in zip(PIPELINES, records):
        assert len(record) == levels
        for messages, digests in record:
            assert digests == [_reference(m) for m in messages]


def test_run_levels_matches_oracle_as_slots_are_refilled(cold_memo):
    """A freed slot keeps being permuted, as do the slots above the last
    occupied one up to the width, so a message that takes one must find
    it zeroed."""
    _run_pipelines()


def test_run_levels_carries_digests_past_a_cleared_memo(bounded_memo):
    """The memo is cleared many times within the run, so a level's digests
    must come from the sponge, not from the memo."""
    _run_pipelines()


@pytest.mark.parametrize("kernel,rho_line", [
    ("_f1600", "b24 = (t << 2 | t >> 62) & M"),
    ("_f1600_packed", "b24 = t << 2 & h2 | t >> 62 & l2"),
])
def test_emitted_kernels_show_their_unrolled_source(kernel, rho_line):
    source = inspect.getsource(getattr(keccak, kernel))
    assert source.startswith(f"def {kernel}(lanes")
    assert f"        {rho_line}\n" in source
    assert "        a24 = b24 ^ (b20 & b21)\n" in source
    assert "~" not in source


# --- the permutations themselves ---------------------------------------------

def _reference_permutation(lanes):
    """Keccak-f[1600] of 25 lane ints through the bit-level oracle."""
    bits = [[[lanes[x + 5 * y] >> z & 1 for z in range(W)] for y in range(5)]
            for x in range(5)]
    out = _permute(bits)
    return [sum(out[i % 5][i // 5][z] << z for z in range(W)) for i in range(25)]


def _lane_states():
    """All zero, all ones, one bit in each lane the kernels hold inverted,
    and random states."""
    ones = (1 << 64) - 1
    states = [[0] * 25, [ones] * 25]
    for i in keccak._COMPLEMENTED:
        states.append([1 << (7 * i % 64) if j == i else 0 for j in range(25)])
    rng = random.Random(1600)
    states += [[rng.getrandbits(64) for _ in range(25)] for _ in range(4)]
    return states


@pytest.fixture(scope="module")
def permuted():
    states = _lane_states()
    return states, [_reference_permutation(s) for s in states]


def test_scalar_permutation_matches_oracle(permuted):
    for state, expected in zip(*permuted):
        assert keccak._f1600(list(state)) == expected


def test_packed_permutation_matches_oracle_at_every_width(permuted):
    """Each narrower width masks its constants, `ones` included, from the
    width-256 set built first."""
    states, expected = permuted
    keccak._packed_constants(keccak._MAX_WIDTH)
    width = 2
    while width <= keccak._MAX_WIDTH:
        slots = [k % len(states) for k in range(width)]
        lanes = [sum(states[s][i] << 64 * k for k, s in enumerate(slots)) for i in range(25)]
        out = keccak._f1600_packed(lanes, *keccak._packed_constants(width))
        assert [[lane >> 64 * k & (1 << 64) - 1 for lane in out] for k in range(width)] \
            == [expected[s] for s in slots], width
        assert all(lane >> 64 * width == 0 for lane in out), width
        width *= 2
