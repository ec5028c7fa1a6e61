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
from dataclasses import dataclass, replace
from typing import Optional

from . import contract
from .errors import EmptyQueue, InternalInvariantViolation
from .keccak import keccak256
from .model import Address, Block, Hash256, hx
from .consensus import (
    ConsensusMessage, MsgKind, Phase, block_hash, make_message, proposer_for,
)
from .node import ValidatorNode


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

    def pending(self) -> list[SimEvent]:
        """The scheduled events in (time, seq) order, as `next_event` takes them."""
        return [ev for _, _, ev in sorted(self._heap)]

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
    spec: ByzantineSpec,
    node: ValidatorNode,
    outbound: list[tuple[object, Optional[Address]]],
    seen: set[tuple[Address, int, int]],
) -> list[tuple[object, Optional[Address]]]:
    """The adversary hook: the (payload, recipient) pairs that a faulty
    node's outbound batch puts on the wire; a None recipient means every
    peer. The node's own engine keeps running the honest protocol.

    SILENT sends nothing: no consensus message or announcement.
    EQUIVOCATE shows each proposal to the first half of the peers and a
    conflicting variant to the rest: the transactions reversed, or a lone
    one dropped, under the state root they give, or for an empty block a
    tampered state root. The mempool admits a transaction once, so the
    variant's hash always differs. Other messages pass unchanged.
    INVALID_PROPOSER also broadcasts its own proposal once for each
    unfinalized (height, round) it does not own, which honest engines
    discard as InvalidProposer; `seen` holds the triples (node, height,
    round) already seen.
    """
    if spec.behavior is Behavior.SILENT:
        return []
    if spec.behavior is Behavior.EQUIVOCATE:
        out: list[tuple[object, Optional[Address]]] = []
        half = (len(node.peers) + 1) // 2
        for msg, to in outbound:
            if not (isinstance(msg, ConsensusMessage) and msg.kind is MsgKind.PRE_PREPARE):
                out.append((msg, to))
                continue
            variant = _equivocation_variant(node, msg.proposal)
            alt = make_message(node.key, MsgKind.PRE_PREPARE, msg.height, msg.round,
                               block_hash(variant), proposal=variant)
            out += [(msg, peer) for peer in node.peers[:half]]
            out += [(alt, peer) for peer in node.peers[half:]]
        return out
    engine = node.engine
    height, round_ = engine.height, engine.round
    if (node.address, height, round_) in seen:
        return outbound
    seen.add((node.address, height, round_))
    if engine.phase is Phase.FINALIZED \
            or proposer_for(height, round_, node.config) == node.address:
        return outbound  # its own proposals are already honest
    block = node.build_block(height, round_)
    forged = make_message(node.key, MsgKind.PRE_PREPARE, height, round_,
                          block_hash(block), proposal=block)
    return [*outbound, (forged, None)]


def _equivocation_variant(node: ValidatorNode, block: Block) -> Block:
    if block.txs:
        txs = tuple(reversed(block.txs)) if len(block.txs) >= 2 else ()
        ledger, _ = contract.execute_block_txs(node.chain.head_ledger, txs)
        return replace(block, txs=txs,
                       state_root=contract.state_root(ledger.contract))
    return replace(block, state_root=Hash256(keccak256(block.state_root)))
