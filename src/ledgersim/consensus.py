"""Round-based BFT consensus state machine with instant per-height finality.

One Engine instance drives one validator at one height. The protocol is
the familiar three-phase exchange: the scheduled proposer broadcasts a
proposal (PRE_PREPARE), validators vote PREPARE, a prepare quorum locks
the node onto the proposal hash and releases its COMMIT, and a commit
quorum finalizes the block with the commit signatures embedded as seals.
Silent proposers are handled by ROUND_CHANGE votes with exponentially
growing timeouts; a quorum of round-change votes moves everyone to the
new round, whose proposer re-proposes its locked block if it has one.

Simplifications relative to full IBFT 2.0, on purpose:
  - no prepared-certificate piggybacking on round changes; instead a
    node never unlocks, re-proposes its locked block on its own turn,
    and lagging nodes are rescued out-of-band by sealed-block announces
    (see node.py);
  - commit quorums are accepted as finality proof for any round of the
    current height, so a node that missed the prepare phase can still
    finalize once it holds the proposal and a quorum of commits.

The engine is a pure state machine: callers feed it messages, timer
expiries and height starts, and it returns outbound messages plus an
optional finalized block. Messages the engine broadcasts are applied to
its own state synchronously (a validator counts its own votes), which
makes the degenerate single-validator network finalize in one step.

A message that passes `verify_message` keeps the verdict, per registry:
a broadcast is one message object that reaches every peer, so its
signature is checked once, not once per recipient.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .crypto import KeyPair, Registry, sign
from .errors import InternalInvariantViolation
from .model import (
    Address, Block, Hash256, Signature, ZERO_HASH, _u, block_hash, replace_unhashed,
)


def fault_tolerance(n: int) -> int:
    """Maximum Byzantine validators tolerated among n."""
    if n < 1:
        raise ValueError("validator count must be >= 1")
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    """Smallest vote count strictly greater than two thirds of n."""
    if n < 1:
        raise ValueError("validator count must be >= 1")
    return (2 * n) // 3 + 1


@dataclass(frozen=True)
class ConsensusConfig:
    validators: tuple[Address, ...]
    base_round_timeout: int
    # derived from the validators once, here: the engine reads them per message
    n: int = field(init=False, repr=False, compare=False)
    f: int = field(init=False, repr=False, compare=False)
    quorum: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.validators)
        if n < 1:
            raise ValueError("need at least one validator")
        if len(set(self.validators)) != n:
            raise ValueError("validators must be distinct")
        if self.base_round_timeout < 1:
            raise ValueError("base_round_timeout must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f", fault_tolerance(n))
        object.__setattr__(self, "quorum", quorum_size(n))


def proposer_for(height: int, round_: int, config: ConsensusConfig) -> Address:
    return config.validators[(height + round_) % config.n]


class MsgKind(enum.Enum):
    PRE_PREPARE = "PRE_PREPARE"
    PREPARE = "PREPARE"
    COMMIT = "COMMIT"
    ROUND_CHANGE = "ROUND_CHANGE"


# Enum members bound once: in Python 3.11 `MsgKind.PREPARE` is a
# Python-level `EnumType.__getattr__` call, and hashing a member is another.
PRE_PREPARE, PREPARE, COMMIT, ROUND_CHANGE = MsgKind
_KIND_TAG = {k.value: _u(i, 1) for i, k in enumerate(MsgKind)}


@dataclass(frozen=True, slots=True)
class ConsensusMessage:
    kind: MsgKind
    height: int
    round: int
    block_hash: Hash256
    sender: Address
    signature: Signature
    proposal: Optional[Block] = None
    # the Registry that verified the signature; see verify_message
    _verified: Optional[Registry] = field(default=None, init=False, repr=False,
                                          compare=False)


def message_payload(kind: MsgKind, height: int, round_: int,
                    block_hash_: Hash256) -> bytes:
    """The bytes a consensus signature covers: kind tag (1), height (8),
    round (8) and block hash (32)."""
    return _KIND_TAG[kind._value_] + _u(height, 8) + _u(round_, 8) + block_hash_


def make_message(key: KeyPair, kind: MsgKind, height: int, round_: int,
                 block_hash_: Hash256,
                 proposal: Optional[Block] = None) -> ConsensusMessage:
    payload = message_payload(kind, height, round_, block_hash_)
    return ConsensusMessage(kind, height, round_, block_hash_,
                            key.address, sign(key, payload), proposal)


def verify_message(msg: ConsensusMessage, registry: Registry) -> bool:
    """Whether `msg` carries its sender's signature under `registry`. A
    pass is kept on the message, keyed by the registry object, as `tx_hash`
    keeps a hash, so a broadcast, one object for every peer, is checked
    once. It rests only on immutable fields, and a registry only adds keys.
    A failure is not kept, and another registry checks again."""
    if msg._verified is registry:
        return True
    payload = message_payload(msg.kind, msg.height, msg.round, msg.block_hash)
    if not registry.verify_by_address(msg.sender, payload, msg.signature):
        return False
    object.__setattr__(msg, "_verified", registry)
    return True


class Phase(enum.Enum):
    AWAITING_PROPOSAL = "AWAITING_PROPOSAL"
    PREPARED = "PREPARED"
    FINALIZED = "FINALIZED"


AWAITING_PROPOSAL, PREPARED, FINALIZED = Phase


@dataclass
class StepResult:
    outbound: list[ConsensusMessage] = field(default_factory=list)
    finalized: Optional[Block] = None
    timer: Optional[tuple[int, int]] = None  # (deadline, epoch)
    phase_before: Phase = AWAITING_PROPOSAL
    phase_after: Phase = AWAITING_PROPOSAL
    discards: list[str] = field(default_factory=list)


class Engine:
    """Consensus state machine for a single validator.

    `build_block` supplies a fresh candidate when this validator is the
    scheduled proposer; `validate_block` performs full content checks
    (parent linkage, gas, transaction signatures, state root) and is the
    hook through which honest nodes refuse to PREPARE bad proposals.
    """

    def __init__(self, config: ConsensusConfig, key: KeyPair, registry: Registry,
                 build_block: Callable[[int, int], Block],
                 validate_block: Callable[[Block], bool]) -> None:
        self.config = config
        self.key = key
        self.registry = registry
        self.build_block = build_block
        self.validate_block = validate_block

        self.timer_epoch = 0
        self._reset(0)
        self._result: StepResult | None = None

    def _reset(self, height: int) -> None:
        """Set the per-height state, idle until `_enter_round`. `timer_epoch`
        is not reset: it only grows, so a timer armed at an earlier height
        never matches one of this height."""
        self.height = height
        self.round = 0
        self.phase = FINALIZED
        self.locked_hash: Optional[Hash256] = None
        self.accepted: Optional[Block] = None
        self.rc_target = 0
        self._known_blocks: dict[Hash256, Block] = {}
        # votes by (round, block hash), then by sender
        self._prepares: dict[tuple[int, Hash256], dict[Address, Signature]] = {}
        self._commits: dict[tuple[int, Hash256], dict[Address, Signature]] = {}
        # ROUND_CHANGE messages by target round, then by sender
        self._round_changes: dict[int, dict[Address, ConsensusMessage]] = {}
        self._future_proposals: dict[int, ConsensusMessage] = {}

    # -- public entry points -------------------------------------------------

    def start_height(self, height: int, now: int) -> StepResult:
        result = self._begin()
        self._reset(height)
        self._enter_round(0, now)
        return self._finish(result)

    def handle_message(self, msg: ConsensusMessage, now: int) -> StepResult:
        result = self._begin()
        if msg.sender not in self.config.validators:
            result.discards.append("NotValidator")
        elif not verify_message(msg, self.registry):
            result.discards.append("InvalidSignature")
        elif msg.height != self.height:
            result.discards.append("WrongHeight")
        elif self.phase is FINALIZED:
            result.discards.append("HeightClosed")
        else:
            self._process(msg, now)
        return self._finish(result)

    def handle_timer(self, epoch: int, now: int) -> StepResult:
        result = self._begin()
        if epoch != self.timer_epoch or self.phase is FINALIZED:
            result.discards.append("StaleTimer")
            return self._finish(result)
        target = max(self.round, self.rc_target) + 1
        self.timer_epoch += 1
        result.timer = (now + self._timeout(target), self.timer_epoch)
        self._request_round(target, now)
        return self._finish(result)

    # -- internals -------------------------------------------------------------

    def _begin(self) -> StepResult:
        result = StepResult(phase_before=self.phase, phase_after=self.phase)
        self._result = result
        return result

    def _finish(self, result: StepResult) -> StepResult:
        result.phase_after = self.phase
        self._result = None
        return result

    def _step(self) -> StepResult:
        """The result of the entry point being handled."""
        if self._result is None:
            raise InternalInvariantViolation("engine step outside an entry point")
        return self._result

    def _timeout(self, round_: int) -> int:
        return self.config.base_round_timeout * (2 ** round_)

    def _broadcast(self, msg: ConsensusMessage, now: int) -> None:
        self._step().outbound.append(msg)
        # a validator counts its own vote immediately
        self._process(msg, now)

    def _enter_round(self, round_: int, now: int) -> None:
        result = self._step()
        self.round = round_
        self.phase = AWAITING_PROPOSAL
        self.accepted = None
        self.rc_target = max(self.rc_target, round_)
        self.timer_epoch += 1
        result.timer = (now + self._timeout(round_), self.timer_epoch)
        if proposer_for(self.height, round_, self.config) == self.key.address:
            block = (self._known_blocks[self.locked_hash]
                     if self.locked_hash is not None else self._contested_block())
            if block is None:
                block = self.build_block(self.height, round_)
            self._broadcast(make_message(
                self.key, PRE_PREPARE, self.height, round_,
                block_hash(block), proposal=block), now)
        queued = self._future_proposals.pop(round_, None)
        if queued is not None and self.round == round_:
            self._process(queued, now)
        if self.round == round_ and self.phase is not FINALIZED:
            self._check_quorums(now)

    def _process(self, msg: ConsensusMessage, now: int) -> None:
        if self.phase is FINALIZED:
            return
        kind = msg.kind
        if kind is PRE_PREPARE:
            self._on_pre_prepare(msg, now)
        elif kind is ROUND_CHANGE:
            self._on_round_change(msg, now)
        else:
            self._on_vote(msg, now)

    def _discard(self, reason: str) -> None:
        self._step().discards.append(reason)

    def _on_pre_prepare(self, msg: ConsensusMessage, now: int) -> None:
        if msg.round < self.round:
            return self._discard("StaleRound")
        if msg.proposal is None or block_hash(msg.proposal) != msg.block_hash:
            return self._discard("MalformedProposal")
        if msg.sender != proposer_for(self.height, msg.round, self.config):
            return self._discard("InvalidProposer")
        if msg.round > self.round:
            self._future_proposals.setdefault(msg.round, msg)
            return
        if self.accepted is not None:
            return self._discard("DuplicateMessage")
        if self.locked_hash is not None and msg.block_hash != self.locked_hash:
            return self._discard("ConflictsWithLock")
        if not self.validate_block(msg.proposal):
            return self._discard("InvalidBlock")
        self.accepted = msg.proposal
        self._known_blocks[msg.block_hash] = msg.proposal
        self._broadcast(make_message(
            self.key, PREPARE, self.height, self.round,
            msg.block_hash), now)

    def _on_vote(self, msg: ConsensusMessage, now: int) -> None:
        """A PREPARE or COMMIT. Future-round votes are kept: prepares count
        on entering their round, and a commit quorum of any round finalizes."""
        if msg.round < self.round:
            return self._discard("StaleRound")
        votes = self._prepares if msg.kind is PREPARE else self._commits
        bucket = votes.setdefault((msg.round, msg.block_hash), {})
        if msg.sender in bucket:
            return self._discard("DuplicateMessage")
        bucket[msg.sender] = msg.signature
        self._check_quorums(now)

    def _on_round_change(self, msg: ConsensusMessage, now: int) -> None:
        target = msg.round
        if target <= self.round:
            return self._discard("StaleRound")
        bucket = self._round_changes.setdefault(target, {})
        if msg.sender in bucket:
            return self._discard("DuplicateMessage")
        bucket[msg.sender] = msg

        # quorum of round changes moves us to the smallest such round
        while self.phase is not FINALIZED:
            ready = [t for t, s in sorted(self._round_changes.items())
                     if t > self.round and len(s) >= self.config.quorum]
            if not ready:
                break
            self._enter_round(ready[0], now)

        if self.phase is FINALIZED:
            return
        # f+1 distinct peers already asked for a later round: echo the
        # smallest one so a live minority cannot be left behind
        later = [t for t in self._round_changes if t > self.round]
        if later:
            union: set[Address] = set()
            for t in later:
                union |= self._round_changes[t].keys()
            jump = min(later)
            if len(union) >= self.config.f + 1 and self.rc_target < jump:
                self._request_round(jump, now)

    def _request_round(self, target: int, now: int) -> None:
        """Broadcast a ROUND_CHANGE to `target` with this node's lock hint."""
        self.rc_target = target
        self._broadcast(make_message(
            self.key, ROUND_CHANGE, self.height, target,
            self.locked_hash or ZERO_HASH), now)

    def _contested_block(self) -> Optional[Block]:
        """The block that peers report being locked on, if we hold it. A
        locked sender names its lock in the block hash of its ROUND_CHANGE,
        so the hints are read from the stored ROUND_CHANGEs, one per sender.

        Only a liveness aid: whatever is proposed still needs a fresh
        prepare quorum, so a bogus hint cannot hurt safety. Ties break
        on (most reporters, lowest hash) for determinism.
        """
        hints = {sender: msg.block_hash for bucket in self._round_changes.values()
                 for sender, msg in bucket.items() if msg.block_hash in self._known_blocks}
        if not hints:
            return None
        counts = Counter(hints.values())
        best = min(counts, key=lambda h: (-counts[h], h))
        return self._known_blocks[best]

    def _check_quorums(self, now: int) -> None:
        q = self.config.quorum
        if (self.phase is AWAITING_PROPOSAL and self.accepted is not None):
            bh = block_hash(self.accepted)
            if len(self._prepares.get((self.round, bh), ())) >= q:
                self.phase = PREPARED
                self.locked_hash = bh
                self._broadcast(make_message(
                    self.key, COMMIT, self.height, self.round, bh), now)
                if self.phase is FINALIZED:
                    return
        for (round_, bh), seals in self._commits.items():
            if len(seals) >= q and bh in self._known_blocks:
                self._finalize(round_, bh, seals)
                return

    def _finalize(self, round_: int, bh: Hash256,
                  seals: dict[Address, Signature]) -> None:
        result = self._step()
        block = self._known_blocks[bh]
        sealed = replace_unhashed(
            block, round=round_,
            commit_seals=tuple(sorted(seals.items())))
        self.phase = FINALIZED
        result.finalized = sealed


def validate_finalized_block(block: Block, config: ConsensusConfig,
                             registry: Registry, parent: Block) -> bool:
    """Quorum-seal and linkage check for a block claimed final: it extends
    `parent`, and it carries a quorum of distinct validator seals, each a
    valid commit signature over this block's height, round and hash.
    Genesis is checked by equality with `make_genesis_block()` instead.
    """
    if block.height != parent.height + 1 or block.parent_hash != block_hash(parent):
        return False
    if len(block.commit_seals) < config.quorum:
        return False
    signers = [addr for addr, _ in block.commit_seals]
    if len(set(signers)) != len(signers):
        return False
    if any(addr not in config.validators for addr in signers):
        return False
    payload = message_payload(COMMIT, block.height, block.round,
                              block_hash(block))
    return all(registry.verify_by_address(addr, payload, seal)
               for addr, seal in block.commit_seals)
