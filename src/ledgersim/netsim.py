"""Seeded discrete-event simulation of an eventually-synchronous network.

Logical integer time throughout. Before the global stabilization time
(GST) a message may be dropped with a configured probability and is
otherwise delayed uniformly in [1, preGstMaxDelay]; from GST on nothing
is dropped and delays are uniform in [1, delta]. The regime is decided
by the send time. "Unbounded" pre-GST delay is approximated by the
finite configurable bound so runs terminate.

Determinism contract: one simulation instance is single-threaded, all
randomness flows from named streams derived from the master seed, and
events are totally ordered by (time, seq) with seq assigned at
scheduling time.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .crypto import KeyPair
from .errors import EmptyQueue, InternalInvariantViolation
from .keccak import keccak256
from .model import Address, Block, hx
from .consensus import ConsensusMessage, MsgKind, make_message, block_hash


@dataclass(frozen=True)
class NetworkParams:
    gst: int
    delta: int
    pre_gst_max_delay: int
    pre_gst_loss_prob: float
    seed: int

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.gst < 0 or self.pre_gst_max_delay < 0:
            raise ValueError("times must be non-negative")
        if not 0.0 <= self.pre_gst_loss_prob <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if self.seed < 0 or self.seed >= 1 << 64:
            raise ValueError("seed must fit in 64 bits")


class Behavior(enum.Enum):
    SILENT = "SILENT"
    EQUIVOCATE = "EQUIVOCATE"
    INVALID_PROPOSER = "INVALID_PROPOSER"


@dataclass(frozen=True)
class ByzantineSpec:
    node: Address
    behavior: Behavior


class EvKind(enum.Enum):
    DELIVER = "DELIVER"
    TIMER = "TIMER"
    CLIENT = "CLIENT"


@dataclass(frozen=True, slots=True)
class SimEvent:
    time: int
    seq: int
    kind: EvKind
    target: Optional[Address]
    payload: object


def rng_stream(seed: int, label: str) -> random.Random:
    """Independent deterministic stream named by (seed, label)."""
    raw = keccak256(label.encode("utf-8") + seed.to_bytes(8, "big"))
    return random.Random(int.from_bytes(raw[:8], "big"))


class EventQueue:
    """Total order by (time, seq); the clock never moves backwards."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._next_seq = 0
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: int, kind: EvKind, target: Optional[Address],
                 payload: object) -> SimEvent:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        ev = SimEvent(time, self._next_seq, kind, target, payload)
        self._next_seq += 1
        heapq.heappush(self._heap, (time, ev.seq, ev))
        return ev

    def peek_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def next_event(self) -> SimEvent:
        if not self._heap:
            raise EmptyQueue("no scheduled events")
        time, _, ev = heapq.heappop(self._heap)
        if time < self.now:
            raise InternalInvariantViolation(
                f"event at {time} comes after the clock reached {self.now}")
        self.now = time
        return ev


class Network:
    """Delivery layer: samples per-message loss and delay, keeps a trace."""

    def __init__(self, params: NetworkParams, queue: EventQueue,
                 trace: Optional[list] = None) -> None:
        self.params = params
        self.gst = params.gst
        self.queue = queue
        self.rng = rng_stream(params.seed, "net")
        self.trace = trace

    def set_gst_now(self) -> None:
        self.gst = self.queue.now

    def send(self, payload: object, frm: Address, to: Address, now: int) -> Optional[SimEvent]:
        if now < self.gst:
            if self.rng.random() < self.params.pre_gst_loss_prob:
                self._record(now, None, frm, to, payload, dropped=True)
                return None
            delay = self.rng.randint(1, max(1, self.params.pre_gst_max_delay))
        else:
            delay = self.rng.randint(1, self.params.delta)
            if delay > self.params.delta:
                raise InternalInvariantViolation(
                    f"post-GST delay {delay} exceeds delta {self.params.delta}")
        ev = self.queue.schedule(now + delay, EvKind.DELIVER, to, payload)
        self._record(now, ev.seq, frm, to, payload, dropped=False)
        return ev

    def _record(self, now: int, seq: Optional[int], frm: Address, to: Address,
                payload: object, dropped: bool) -> None:
        if self.trace is None:
            return
        self.trace.append({
            "time": now,
            "seq": seq,
            "kind": "DELIVER",
            "from": hx(frm),
            "to": hx(to),
            "msgKind": payload_kind(payload),
            "dropped": dropped,
        })


def payload_kind(payload: object) -> str:
    if isinstance(payload, ConsensusMessage):
        return payload.kind.value
    return type(payload).__name__.upper()


def byzantine_transform(
    spec: Optional[ByzantineSpec],
    outbound: list[ConsensusMessage],
    *,
    key: KeyPair,
    peers: list[Address],
    variant_factory: Optional[Callable[[Block], Block]] = None,
) -> list[tuple[ConsensusMessage, Optional[Address]]]:
    """Rewrite a node's outbound batch according to its fault behavior.

    Returns (message, recipient) pairs; a None recipient means broadcast.
    SILENT suppresses everything. EQUIVOCATE splits every proposal into
    two conflicting variants, each shown to one half of the peers; the
    variant block comes from `variant_factory` so its state root can be
    kept internally consistent. INVALID_PROPOSER passes messages through
    unchanged here; the forged proposals themselves are generated by the
    node driver, which knows the round schedule.
    """
    if spec is None:
        return [(m, None) for m in outbound]
    if spec.behavior is Behavior.SILENT:
        return []
    if spec.behavior is Behavior.EQUIVOCATE:
        out: list[tuple[ConsensusMessage, Optional[Address]]] = []
        for msg in outbound:
            if msg.kind is not MsgKind.PRE_PREPARE or msg.proposal is None \
                    or variant_factory is None:
                out.append((msg, None))
                continue
            variant = variant_factory(msg.proposal)
            alt_hash = block_hash(variant)
            if alt_hash == msg.block_hash:
                out.append((msg, None))
                continue
            alt = make_message(key, MsgKind.PRE_PREPARE, msg.height, msg.round,
                               alt_hash, proposal=variant)
            half = (len(peers) + 1) // 2
            for peer in peers[:half]:
                out.append((msg, peer))
            for peer in peers[half:]:
                out.append((alt, peer))
        return out
    return [(m, None) for m in outbound]
