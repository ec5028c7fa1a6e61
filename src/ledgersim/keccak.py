"""Keccak-256 with the original 0x01 padding (the pre-standardization
variant used by Ethereum-style tooling, not NIST SHA3-256).

Pure Python, tuned for throughput: this is the hot path of the whole
simulator (every signature, transaction hash and state root lands here),
so the round function is fully unrolled over 25 lane locals and digests
of previously seen inputs are memoized. The bit-level reference
implementation lives in the test suite and cross-checks this one.

`keccak256_many` digests a list of independent messages at once. It
packs up to 256 states into the bits of 25 big lane ints, so one
unrolled permutation advances all of them with about as many big-int
operations as the scalar kernel spends on one. Callers that know many
inputs ahead use it: the replay audit, and `Simulation.start()` for the
scheduled client transactions. A single message is faster
through the scalar kernel, so `keccak256`, and a batch once only one of
its messages is still absorbing, use that.
"""

_RATE = 136  # bytes per block at 256-bit capacity

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _f1600(lanes: list) -> list:
    """One Keccak-f[1600] permutation over 25 little-endian lanes."""
    M = 0xFFFFFFFFFFFFFFFF
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & M)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & M)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & M)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & M)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & M)
        # rho and pi fused: b indices follow the pi permutation
        b0 = a0 ^ d0
        t = a6 ^ d1
        b1 = (t << 44 | t >> 20) & M
        t = a12 ^ d2
        b2 = (t << 43 | t >> 21) & M
        t = a18 ^ d3
        b3 = (t << 21 | t >> 43) & M
        t = a24 ^ d4
        b4 = (t << 14 | t >> 50) & M
        t = a3 ^ d3
        b5 = (t << 28 | t >> 36) & M
        t = a9 ^ d4
        b6 = (t << 20 | t >> 44) & M
        t = a10 ^ d0
        b7 = (t << 3 | t >> 61) & M
        t = a16 ^ d1
        b8 = (t << 45 | t >> 19) & M
        t = a22 ^ d2
        b9 = (t << 61 | t >> 3) & M
        t = a1 ^ d1
        b10 = (t << 1 | t >> 63) & M
        t = a7 ^ d2
        b11 = (t << 6 | t >> 58) & M
        t = a13 ^ d3
        b12 = (t << 25 | t >> 39) & M
        t = a19 ^ d4
        b13 = (t << 8 | t >> 56) & M
        t = a20 ^ d0
        b14 = (t << 18 | t >> 46) & M
        t = a4 ^ d4
        b15 = (t << 27 | t >> 37) & M
        t = a5 ^ d0
        b16 = (t << 36 | t >> 28) & M
        t = a11 ^ d1
        b17 = (t << 10 | t >> 54) & M
        t = a17 ^ d2
        b18 = (t << 15 | t >> 49) & M
        t = a23 ^ d3
        b19 = (t << 56 | t >> 8) & M
        t = a2 ^ d2
        b20 = (t << 62 | t >> 2) & M
        t = a8 ^ d3
        b21 = (t << 55 | t >> 9) & M
        t = a14 ^ d4
        b22 = (t << 39 | t >> 25) & M
        t = a15 ^ d0
        b23 = (t << 41 | t >> 23) & M
        t = a21 ^ d1
        b24 = (t << 2 | t >> 62) & M
        # chi row by row, iota folded into lane 0
        a0 = (b0 ^ (~b1 & b2)) ^ rc
        a1 = (b1 ^ (~b2 & b3))
        a2 = (b2 ^ (~b3 & b4))
        a3 = (b3 ^ (~b4 & b0))
        a4 = (b4 ^ (~b0 & b1))
        a5 = (b5 ^ (~b6 & b7))
        a6 = (b6 ^ (~b7 & b8))
        a7 = (b7 ^ (~b8 & b9))
        a8 = (b8 ^ (~b9 & b5))
        a9 = (b9 ^ (~b5 & b6))
        a10 = (b10 ^ (~b11 & b12))
        a11 = (b11 ^ (~b12 & b13))
        a12 = (b12 ^ (~b13 & b14))
        a13 = (b13 ^ (~b14 & b10))
        a14 = (b14 ^ (~b10 & b11))
        a15 = (b15 ^ (~b16 & b17))
        a16 = (b16 ^ (~b17 & b18))
        a17 = (b17 ^ (~b18 & b19))
        a18 = (b18 ^ (~b19 & b15))
        a19 = (b19 ^ (~b15 & b16))
        a20 = (b20 ^ (~b21 & b22))
        a21 = (b21 ^ (~b22 & b23))
        a22 = (b22 ^ (~b23 & b24))
        a23 = (b23 ^ (~b24 & b20))
        a24 = (b24 ^ (~b20 & b21))
    return [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24]


# Rotation amounts of the packed kernel, in the order its masks unpack.
_ROTATIONS = (1, 44, 43, 21, 14, 28, 20, 3, 45, 61, 6, 25, 8, 18, 27, 36,
              10, 15, 56, 62, 55, 39, 41, 2)


def _f1600_packed(lanes: list, rcs: tuple, masks: tuple) -> list:
    """Keccak-f[1600] over many states at once.

    Bits [64k, 64k + 64) of each lane int are that lane of state k. The
    masks keep shifts inside each state's 64 bits: hR keeps bits R..63 and
    lR bits 0..R-1 of every state. `rcs` holds the round constants
    repeated into every state.
    """
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    (h1, l1, h44, l44, h43, l43, h21, l21,
     h14, l14, h28, l28, h20, l20, h3, l3,
     h45, l45, h61, l61, h6, l6, h25, l25,
     h8, l8, h18, l18, h27, l27, h36, l36,
     h10, l10, h15, l15, h56, l56, h62, l62,
     h55, l55, h39, l39, h41, l41, h2, l2) = masks
    for rc in rcs:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (c1 << 1 & h1 | c1 >> 63 & l1)
        d1 = c0 ^ (c2 << 1 & h1 | c2 >> 63 & l1)
        d2 = c1 ^ (c3 << 1 & h1 | c3 >> 63 & l1)
        d3 = c2 ^ (c4 << 1 & h1 | c4 >> 63 & l1)
        d4 = c3 ^ (c0 << 1 & h1 | c0 >> 63 & l1)
        # rho and pi fused, as in _f1600
        b0 = a0 ^ d0
        t = a6 ^ d1
        b1 = t << 44 & h44 | t >> 20 & l44
        t = a12 ^ d2
        b2 = t << 43 & h43 | t >> 21 & l43
        t = a18 ^ d3
        b3 = t << 21 & h21 | t >> 43 & l21
        t = a24 ^ d4
        b4 = t << 14 & h14 | t >> 50 & l14
        t = a3 ^ d3
        b5 = t << 28 & h28 | t >> 36 & l28
        t = a9 ^ d4
        b6 = t << 20 & h20 | t >> 44 & l20
        t = a10 ^ d0
        b7 = t << 3 & h3 | t >> 61 & l3
        t = a16 ^ d1
        b8 = t << 45 & h45 | t >> 19 & l45
        t = a22 ^ d2
        b9 = t << 61 & h61 | t >> 3 & l61
        t = a1 ^ d1
        b10 = t << 1 & h1 | t >> 63 & l1
        t = a7 ^ d2
        b11 = t << 6 & h6 | t >> 58 & l6
        t = a13 ^ d3
        b12 = t << 25 & h25 | t >> 39 & l25
        t = a19 ^ d4
        b13 = t << 8 & h8 | t >> 56 & l8
        t = a20 ^ d0
        b14 = t << 18 & h18 | t >> 46 & l18
        t = a4 ^ d4
        b15 = t << 27 & h27 | t >> 37 & l27
        t = a5 ^ d0
        b16 = t << 36 & h36 | t >> 28 & l36
        t = a11 ^ d1
        b17 = t << 10 & h10 | t >> 54 & l10
        t = a17 ^ d2
        b18 = t << 15 & h15 | t >> 49 & l15
        t = a23 ^ d3
        b19 = t << 56 & h56 | t >> 8 & l56
        t = a2 ^ d2
        b20 = t << 62 & h62 | t >> 2 & l62
        t = a8 ^ d3
        b21 = t << 55 & h55 | t >> 9 & l55
        t = a14 ^ d4
        b22 = t << 39 & h39 | t >> 25 & l39
        t = a15 ^ d0
        b23 = t << 41 & h41 | t >> 23 & l41
        t = a21 ^ d1
        b24 = t << 2 & h2 | t >> 62 & l2
        # chi row by row, iota folded into lane 0
        a0 = (b0 ^ (~b1 & b2)) ^ rc
        a1 = (b1 ^ (~b2 & b3))
        a2 = (b2 ^ (~b3 & b4))
        a3 = (b3 ^ (~b4 & b0))
        a4 = (b4 ^ (~b0 & b1))
        a5 = (b5 ^ (~b6 & b7))
        a6 = (b6 ^ (~b7 & b8))
        a7 = (b7 ^ (~b8 & b9))
        a8 = (b8 ^ (~b9 & b5))
        a9 = (b9 ^ (~b5 & b6))
        a10 = (b10 ^ (~b11 & b12))
        a11 = (b11 ^ (~b12 & b13))
        a12 = (b12 ^ (~b13 & b14))
        a13 = (b13 ^ (~b14 & b10))
        a14 = (b14 ^ (~b10 & b11))
        a15 = (b15 ^ (~b16 & b17))
        a16 = (b16 ^ (~b17 & b18))
        a17 = (b17 ^ (~b18 & b19))
        a18 = (b18 ^ (~b19 & b15))
        a19 = (b19 ^ (~b15 & b16))
        a20 = (b20 ^ (~b21 & b22))
        a21 = (b21 ^ (~b22 & b23))
        a22 = (b22 ^ (~b23 & b24))
        a23 = (b23 ^ (~b24 & b20))
        a24 = (b24 ^ (~b20 & b21))
    return [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24]


_memo: dict = {}
_MEMO_LIMIT = 1 << 18


def _pad(data: bytes) -> bytes:
    pad_len = _RATE - (len(data) % _RATE)
    if pad_len == 1:
        return data + b"\x81"
    return data + b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"


def _remember(data: bytes, digest: bytes) -> None:
    if len(_memo) >= _MEMO_LIMIT:
        _memo.clear()
    _memo[data] = digest


def keccak256(data: bytes) -> bytes:
    """Digest `data` to 32 bytes."""
    cached = _memo.get(data)
    if cached is not None:
        return cached
    digest = _digest_batch([data])[0]
    _remember(data, digest)
    return digest


# --- many messages at once ---------------------------------------------------

_MAX_WIDTH = 256  # states packed into one lane int; a power of two
# the width, round constants and masks of the widest batch packed so far
_widest: tuple = (0, (), ())


def _packed_constants(width: int) -> tuple:
    """The constants of `width` states. Only the widest width packed so far
    has its constants kept; a narrower width's are masked from them, as
    _digest_batch narrows the state."""
    global _widest
    built, rcs, masks = _widest
    if width > built:
        every = int.from_bytes((b"\x01" + b"\x00" * 7) * width, "little")  # 1 per state
        masks = []
        for r in _ROTATIONS:
            low = (1 << r) - 1
            masks += [(0xFFFFFFFFFFFFFFFF ^ low) * every, low * every]
        _widest = built, rcs, masks = (
            width, tuple(rc * every for rc in _ROUND_CONSTANTS), tuple(masks))
    if width == built:
        return rcs, masks
    keep = (1 << (64 * width)) - 1
    return tuple(rc & keep for rc in rcs), tuple(m & keep for m in masks)


def _digest_batch(batch: list) -> list:
    """Digests of up to _MAX_WIDTH messages, sorted longest first.

    Message k is absorbed into state k of packed lane ints. Once the
    shorter messages are squeezed, the width drops to the next power of
    two that holds the messages still absorbing; at width 1 the scalar
    kernel runs, which is faster than the packed one there, so a lone
    message never packs.
    """
    # Each message's blocks are slices of it, except the last, padded one.
    tails = [_pad(m[len(m) - len(m) % _RATE:]) for m in batch]
    digests = []
    state = [0] * 25
    width = 0
    active = len(batch)
    off = 0
    while active:
        narrower = 1 << (active - 1).bit_length()
        if narrower != width:
            if width:
                keep = (1 << (64 * narrower)) - 1
                state = [a & keep for a in state]
            width = narrower
            if width > 1:
                constants = _packed_constants(width)
        ending = active  # messages [ending, active) absorb their last block
        while ending and len(batch[ending - 1]) < off + _RATE:
            ending -= 1
        chunks = [m[off:off + _RATE] for m in batch[:ending]] + tails[ending:active]
        block = memoryview(b"".join(chunks)).cast("Q")
        for i in range(17):
            state[i] ^= int.from_bytes(block[i::17], "little")
        if width == 1:
            state = _f1600(state)
        else:
            state = _f1600_packed(state, *constants)
        if ending < active:
            out = bytearray(32 * width)
            view = memoryview(out).cast("Q")
            for i in range(4):
                view[i::4] = memoryview(state[i].to_bytes(8 * width, "little")).cast("Q")
            digests += [bytes(out[32 * k:32 * k + 32]) for k in reversed(range(ending, active))]
        active = ending
        off += _RATE
    digests.reverse()
    return digests


def keccak256_many(messages: list[bytes | tuple[bytes, ...]]) -> list[bytes]:
    """Digest every message; equal to [keccak256(m) for m in messages].

    A message may also be a tuple of byte strings. It is digested as their
    concatenation and memoized under the tuple, so a caller whose parts
    are held anyway (the child digests of a tree node) keeps no joined
    copy. Digests not in the memo are computed up to _MAX_WIDTH at a time
    by the packed kernel, longest messages first, and memoized.
    """
    found = {m: _memo.get(m) for m in messages}
    todo = sorted(((b"".join(m) if type(m) is tuple else m, m)
                   for m, d in found.items() if d is None),
                  key=lambda pair: len(pair[0]), reverse=True)
    for start in range(0, len(todo), _MAX_WIDTH):
        batch = todo[start:start + _MAX_WIDTH]
        for (_, m), digest in zip(batch, _digest_batch([data for data, _ in batch])):
            found[m] = digest
            _remember(m, digest)
    return [found[m] for m in messages]
