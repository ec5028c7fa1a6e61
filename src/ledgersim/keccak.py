"""Keccak-256 with the original 0x01 padding (the pre-standardization
variant used by Ethereum-style tooling, not NIST SHA3-256).

Pure Python, tuned for throughput: this is the hot path of the whole
simulator (every signature, transaction hash and state root lands here),
so digests of seen inputs are memoized, and both kernels, the scalar
`_f1600` and the packed `_f1600_packed`, are unrolled over 25 lane locals
and emitted at import from one rho–pi table, `_PI`. Both hold six lanes
inverted inside the permutation (lane complementing), so chi spends one
NOT per row, not one per lane; what goes in and comes out is plain
Keccak-f[1600]. The bit-level reference implementation lives in the test
suite and cross-checks this one.

A lone message, `keccak256`'s cold path, is absorbed block by block
into the scalar kernel. Everything else goes through one sponge,
`run_levels`: up to 256 states packed into the bits of 25 big lane ints,
so one unrolled permutation advances all of them with about as many
big-int operations as the scalar kernel spends on one. Its slots are
refilled between permutations: a queued message takes a free slot as
soon as one is there, and a finished one is squeezed and frees its slot.

The sponge runs pipelines, generators that each yield one level of a
hash tree and are sent its digests, and it queues a pipeline's next
level as soon as the last digest is squeezed, while the other trees'
levels keep absorbing. So a built block's transaction groups
(`model.group_levels`) ride the permutations of its state root's leaves,
groups and root (`contract.root_levels`), and the replay audit hashes a
window's blocks and state roots together. Hashing ahead runs the same
pipelines, so only the module that owns a digest says what it covers.
"""

import linecache
import struct
from typing import Generator, Optional

_RATE = 136  # bytes per block at 256-bit capacity
_BLOCK = struct.Struct("<17Q")  # one rate block as lanes
_DIGEST = struct.Struct("<4Q")  # the four lanes squeezed
_ZERO_BLOCK = bytes(_RATE)

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


# Lane i of the permuted state is lane _PI[i][0] of theta's output rotated
# left by _PI[i][1]: rho rotates lane x + 5y by its offset and pi moves it
# to lane y + 5(2x + 3y mod 5) (The Keccak reference, 2011).
_PI = ((0, 0), (6, 44), (12, 43), (18, 21), (24, 14),
       (3, 28), (9, 20), (10, 3), (16, 45), (22, 61),
       (1, 1), (7, 6), (13, 25), (19, 8), (20, 18),
       (4, 27), (5, 36), (11, 10), (17, 15), (23, 56),
       (2, 62), (8, 55), (14, 39), (15, 41), (21, 2))
# the packed kernel's rotations in the order its masks unpack: theta's, then rho's
_ROTATIONS = tuple(dict.fromkeys([1] + [r for _, r in _PI[1:]]))
_LANES = ", ".join(f"a{i}" for i in range(25))
# Lane complementing (The Keccak implementation overview v3.2, §2.2): inside a
# permutation these lanes are held inverted, x ^ ones. Chi then needs one NOT
# per row, n, written ones ^ x: ~ on a positive int gives a negative one, which
# CPython's bitwise ops handle in extra passes. Each lane is one AND or OR.
_COMPLEMENTED = (1, 2, 8, 12, 17, 20)
_CHI = ("n = ones ^ b2", "a0 = b0 ^ (b1 | b2) ^ rc", "a1 = b1 ^ (n | b3)",
        "a2 = b2 ^ (b3 & b4)", "a3 = b3 ^ (b4 | b0)", "a4 = b4 ^ (b0 & b1)",
        "n = ones ^ b9", "a5 = b5 ^ (b6 | b7)", "a6 = b6 ^ (b7 & b8)",
        "a7 = b7 ^ (b8 | n)", "a8 = b8 ^ (b9 | b5)", "a9 = b9 ^ (b5 & b6)",
        "n = ones ^ b13", "a10 = b10 ^ (b11 | b12)", "a11 = b11 ^ (b12 & b13)",
        "a12 = b12 ^ (n & b14)", "a13 = n ^ (b14 | b10)", "a14 = b14 ^ (b10 & b11)",
        "n = ones ^ b18", "a15 = b15 ^ (b16 & b17)", "a16 = b16 ^ (b17 | b18)",
        "a17 = b17 ^ (n | b19)", "a18 = n ^ (b19 & b15)", "a19 = b19 ^ (b15 | b16)",
        "n = ones ^ b21", "a20 = b20 ^ (n & b22)", "a21 = n ^ (b22 | b23)",
        "a22 = b22 ^ (b23 & b24)", "a23 = b23 ^ (b24 | b20)", "a24 = b24 ^ (b20 & b21)")


def _emit(name: str, args: str, prologue: list, rounds: str, rot) -> None:
    """Compile permutation `name`, with `rot(x, r)` the source of x rotated left
    by r, into this module; linecache keeps its source for inspect and tracebacks.

    The prologue binds `ones`, all 64 bits of every state set. The lanes in
    _COMPLEMENTED are XORed with it on entry and on exit, and chi, _CHI,
    computes on them inverted."""
    flipped = ", ".join(f"a{i}" for i in _COMPLEMENTED)
    body = [*prologue, f"{flipped} = " + ", ".join(f"a{i} ^ ones" for i in _COMPLEMENTED),
            f"for rc in {rounds}:", "    # theta"]
    body += [f"    c{x} = " + " ^ ".join(f"a{x + 5 * y}" for y in range(5)) for x in range(5)]
    body += [f"    d{x} = c{(x - 1) % 5} ^ ({rot(f'c{(x + 1) % 5}', 1)})" for x in range(5)]
    body.append("    # rho and pi fused: b indices follow the pi permutation")
    for i, (src, r) in enumerate(_PI):
        lane = f"a{src} ^ d{src % 5}"
        body += [f"    t = {lane}", f"    b{i} = {rot('t', r)}"] if r else [f"    b{i} = {lane}"]
    body.append("    # chi row by row, iota folded into lane 0")
    body += [f"    {line}" for line in _CHI]
    body.append("return [" + ", ".join(f"a{i} ^ ones" if i in _COMPLEMENTED else f"a{i}"
                                       for i in range(25)) + "]")
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
    filename = f"<{__name__}.{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), globals())


# _f1600(lanes): one Keccak-f[1600] permutation over 25 little-endian lanes.
_emit("_f1600", "lanes", ["ones = M = 0xFFFFFFFFFFFFFFFF", f"{_LANES} = lanes"],
      "_ROUND_CONSTANTS", lambda x, r: f"({x} << {r} | {x} >> {64 - r}) & M")
# _f1600_packed(lanes, rcs, masks): bits [64k, 64k + 64) of each lane int are
# that lane of state k. `rcs` repeats the round constants into every state; hR
# keeps bits R..63 and lR bits 0..R-1 of each, so shifts stay inside a state;
# the last mask is `ones`.
_emit("_f1600_packed", "lanes, rcs, masks",
      [f"{_LANES} = lanes", ", ".join(f"h{r}, l{r}" for r in _ROTATIONS) + ", ones = masks"],
      "rcs", lambda x, r: f"{x} << {r} & h{r} | {x} >> {64 - r} & l{r}")

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
    padded = _pad(data)
    lanes = [0] * 25
    for off in range(0, len(padded), _RATE):
        lanes = _f1600([a ^ b for a, b in zip(lanes, _BLOCK.unpack_from(padded, off))]
                       + lanes[17:])
    digest = _DIGEST.pack(*lanes[:4])
    _remember(data, digest)
    return digest


# --- many messages at once ---------------------------------------------------

_MAX_WIDTH = 256  # states packed into one lane int; a power of two
# the width, round constants and masks of the widest batch packed so far
_widest: tuple = (0, (), ())


def _packed_constants(width: int) -> tuple:
    """The constants of `width` states. Only the widest width packed so far
    has its constants kept; a narrower width's are masked from them, as
    the sponge narrows the state."""
    global _widest
    built, rcs, masks = _widest
    if width > built:
        every = int.from_bytes((b"\x01" + b"\x00" * 7) * width, "little")  # 1 per state
        masks = []
        for r in _ROTATIONS:
            low = (1 << r) - 1
            masks += [(0xFFFFFFFFFFFFFFFF ^ low) * every, low * every]
        masks.append((1 << 64 * width) - 1)
        _widest = built, rcs, masks = (
            width, tuple(rc * every for rc in _ROUND_CONSTANTS), tuple(masks))
    if width == built:
        return rcs, masks
    keep = (1 << (64 * width)) - 1
    return tuple(rc & keep for rc in rcs), tuple(m & keep for m in masks)


def run_levels(*pipelines: Generator) -> None:
    """Run the pipelines to their ends on one sponge.

    A pipeline is a generator that yields a level, a list of messages, and
    is sent the level's digests, memo hits included. A message that is a
    tuple of byte strings is digested as their concatenation and memoized
    under the tuple, so a tree node keeps no joined copy of its children's
    digests. A level's messages are queued as soon as it is yielded; before
    each permutation every queued message, the longest first, takes the
    lowest free slot up to _MAX_WIDTH, and each occupied slot absorbs its
    message's next block. A message whose last block went in is squeezed
    after the permutation, memoized and carried to its level, and frees its
    slot. A free slot is still permuted, so a message that takes one zeroes
    it first, and the slots above the width are zeroed when it drops. The
    width is the least power of two that holds the highest occupied slot;
    at width 1 the scalar kernel runs.
    """
    queued: list = []  # [data, offset, message, level], longest last

    def advance(pipeline: Generator, digests: Optional[list] = None) -> None:
        try:
            messages = pipeline.send(digests)
        except StopIteration:
            return
        found = {m: _memo.get(m) for m in messages}
        todo = [m for m, d in found.items() if d is None]
        if not todo:
            advance(pipeline, [found[m] for m in messages])
            return
        level = [found, messages, pipeline, len(todo)]  # the last is the count still out
        queued.extend([b"".join(m) if type(m) is tuple else m, 0, m, level] for m in todo)
        queued.sort(key=lambda entry: len(entry[0]))

    for pipeline in pipelines:
        advance(pipeline)
    slots: list = []  # an entry of `queued`, or None if free
    lanes, width = [0] * 25, 0
    while slots or queued:
        dirty = 0
        for k in range(_MAX_WIDTH):
            if not queued:
                break
            if k == len(slots):
                slots.append(None)
            if slots[k] is None:
                slots[k] = queued.pop()
                if k < width:
                    dirty |= 0xFFFFFFFFFFFFFFFF << 64 * k
        fit = 1 << (len(slots) - 1).bit_length()
        if dirty or fit < width:
            keep = ((1 << 64 * fit) - 1) ^ dirty
            lanes = [a & keep for a in lanes]
        if fit != width:
            width = fit
            if width > 1:
                constants = _packed_constants(width)
        chunks, ending = [], []
        for k, entry in enumerate(slots):
            if entry is None:
                chunks.append(_ZERO_BLOCK)
                continue
            data, off = entry[0], entry[1]
            if off + _RATE <= len(data):
                chunks.append(data[off:off + _RATE])
                entry[1] = off + _RATE
            else:
                chunks.append(_pad(data[off:]))
                ending.append(k)
        if width == 1:
            lanes = _f1600([a ^ b for a, b in zip(lanes, _BLOCK.unpack(chunks[0]))]
                           + lanes[17:])
        else:
            chunks.append(_ZERO_BLOCK * (width - len(slots)))
            block = memoryview(b"".join(chunks)).cast("Q")
            for i in range(17):
                lanes[i] ^= int.from_bytes(block[i::17], "little")
            lanes = _f1600_packed(lanes, *constants)
        if not ending:
            continue
        if width == 1:
            out = _DIGEST.pack(*lanes[:4])
        else:
            out = bytearray(32 * width)
            view = memoryview(out).cast("Q")
            for i in range(4):
                view[i::4] = memoryview(lanes[i].to_bytes(8 * width, "little")).cast("Q")
        finished = []
        for k in ending:
            _, _, m, level = slots[k]
            slots[k] = None
            digest = bytes(out[32 * k:32 * k + 32])
            _remember(m, digest)
            level[0][m] = digest
            level[3] -= 1
            if not level[3]:
                finished.append(level)
        while slots and slots[-1] is None:
            slots.pop()
        for found, messages, pipeline, _ in finished:
            advance(pipeline, [found[m] for m in messages])

