"""Round-based BFT consensus state machine with instant per-height finality.

One Engine instance drives one validator at one height, by IBFT 2.0's
three-phase exchange (Saltini & Hyland-Wood, arXiv:1909.10194): the
scheduled proposer broadcasts a proposal (PRE_PREPARE), validators vote
PREPARE, a prepare quorum locks the node onto the proposal and releases
its COMMIT, and a commit quorum of the node's current round finalizes
the block with the commit signatures embedded as seals. A silent
proposer is handled by ROUND_CHANGE votes with exponentially growing
timeouts; a quorum of them moves everyone to the new round.

A lock keeps its prepared certificate, the round and PREPARE seals of
its quorum, and a locked node's ROUND_CHANGE carries the locked block
and that certificate. A proposer re-proposes the block with the highest
certificate among its lock and its stored ROUND_CHANGEs, or builds a
fresh one if it holds none. A locked node prepares another block only on
a valid certificate for it, of a round in [lock round, proposal round).
A lagging node's ROUND_CHANGE for a finalized height is answered
out-of-band with the sealed blocks it is missing (see node.py).

The engine is a pure state machine with no clock: callers feed it
messages, timer expiries and height starts. Each entry point builds a
StepResult, passes it to its internals and returns it: outbound
(message, None) pairs, a None recipient meaning every peer, an optional
finalized block, and the round timer to arm, as (timeout, epoch).
Messages the engine broadcasts are applied to its own state
synchronously (a validator counts its own votes), which makes the
degenerate single-validator network finalize in one step.

A message that passes `verify_message` keeps the verdict, per registry:
a broadcast is one message object that reaches every peer, so its
signature is checked once, not once per recipient.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from .crypto import KeyPair, Registry, sign
from .model import (
    Address, Block, Hash256, Signature, ZERO_HASH, _u, block_hash, extends,
    replace_unhashed,
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


Certificate = tuple[int, tuple[tuple[Address, Signature], ...]]


@dataclass(frozen=True, slots=True)
class ConsensusMessage:
    kind: MsgKind
    height: int
    round: int
    block_hash: Hash256
    sender: Address
    signature: Signature
    proposal: Optional[Block] = None
    # (prepared round, sorted (sender, PREPARE seal) pairs) justifying `proposal`
    certificate: Optional[Certificate] = None
    # the Registry that verified the signature; see verify_message
    _verified: Optional[Registry] = field(default=None, init=False, repr=False,
                                          compare=False)


def message_payload(kind: MsgKind, height: int, round_: int,
                    block_hash_: Hash256) -> bytes:
    """The bytes a consensus signature covers: kind tag (1), height (8),
    round (8) and block hash (32)."""
    return _KIND_TAG[kind._value_] + _u(height, 8) + _u(round_, 8) + block_hash_


def make_message(key: KeyPair, kind: MsgKind, height: int, round_: int,
                 block_hash_: Hash256, proposal: Optional[Block] = None,
                 certificate: Optional[Certificate] = None) -> ConsensusMessage:
    payload = message_payload(kind, height, round_, block_hash_)
    return ConsensusMessage(kind, height, round_, block_hash_,
                            key.address, sign(key, payload), proposal, certificate)


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


def quorum_signed(kind: MsgKind, height: int, round_: int, hash_: Hash256,
                  seals: tuple[tuple[Address, Signature], ...],
                  config: ConsensusConfig, registry: Registry) -> bool:
    """Whether `seals` holds a quorum of distinct validators, each with a
    valid `kind` signature over (height, round_, hash_): the PREPAREs of a
    prepared certificate, or the COMMITs sealed into a finalized block."""
    signers = {addr for addr, _ in seals}
    payload = message_payload(kind, height, round_, hash_)
    return (len(signers) == len(seals) >= config.quorum
            and signers.issubset(config.validators)
            and all(registry.verify_by_address(a, payload, seal) for a, seal in seals))


class Phase(enum.Enum):
    AWAITING_PROPOSAL = "AWAITING_PROPOSAL"
    PREPARED = "PREPARED"
    FINALIZED = "FINALIZED"


AWAITING_PROPOSAL, PREPARED, FINALIZED = Phase


@dataclass
class StepResult:
    """What a node did on one event. `outbound` holds (payload, recipient)
    pairs: the engine broadcasts, with recipient None, and a node replies
    to one sender. `finalized` is the block the engine sealed or the node
    adopted. `timer` is the round timer armed, due `timeout` ticks after
    the step. `phase_before` is None when the engine took no step; the
    phase after it is the engine's `phase`."""
    outbound: list[tuple[object, Optional[Address]]] = field(default_factory=list)
    finalized: Optional[Block] = None
    timer: Optional[tuple[int, int]] = None  # (timeout, epoch)
    phase_before: Optional[Phase] = None
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

    def _reset(self, height: int) -> None:
        """Set the per-height state, idle until `_enter_round`. `timer_epoch`
        is not reset: it only grows, so a timer armed at an earlier height
        never matches one of this height."""
        self.height = height
        self.round = 0
        self.phase = FINALIZED
        self.locked_hash: Optional[Hash256] = None
        self.lock_certificate: Optional[Certificate] = None
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

    def start_height(self, height: int) -> StepResult:
        result = StepResult(phase_before=self.phase)
        self._reset(height)
        self._enter_round(0, result)
        return result

    def handle_message(self, msg: ConsensusMessage) -> StepResult:
        result = StepResult(phase_before=self.phase)
        if msg.sender not in self.config.validators:
            result.discards.append("NotValidator")
        elif not verify_message(msg, self.registry):
            result.discards.append("InvalidSignature")
        elif msg.height != self.height:
            result.discards.append("WrongHeight")
        elif self.phase is FINALIZED:
            result.discards.append("HeightClosed")
        else:
            self._process(msg, result)
        return result

    def handle_timer(self, epoch: int) -> StepResult:
        result = StepResult(phase_before=self.phase)
        if epoch != self.timer_epoch or self.phase is FINALIZED:
            result.discards.append("StaleTimer")
        else:
            target = self.rc_target + 1
            self.timer_epoch += 1
            result.timer = (self._timeout(target), self.timer_epoch)
            self._request_round(target, result)
        return result

    # -- internals -------------------------------------------------------------

    def _timeout(self, round_: int) -> int:
        return self.config.base_round_timeout * (2 ** round_)

    def _broadcast(self, msg: ConsensusMessage, result: StepResult) -> None:
        result.outbound.append((msg, None))
        # a validator counts its own vote immediately
        self._process(msg, result)

    def _enter_round(self, round_: int, result: StepResult) -> None:
        self.round = round_
        self.phase = AWAITING_PROPOSAL
        self.accepted = None
        self.rc_target = max(self.rc_target, round_)
        self.timer_epoch += 1
        result.timer = (self._timeout(round_), self.timer_epoch)
        if proposer_for(self.height, round_, self.config) == self.key.address:
            # the block with the highest certificate held, or a fresh one
            held = [(msg.certificate, msg.proposal) for bucket in self._round_changes.values()
                    for msg in bucket.values() if msg.certificate is not None]
            if self.locked_hash is not None:
                held.append((self.lock_certificate, self._known_blocks[self.locked_hash]))
            certificate, block = max(held, key=lambda c: c[0][0], default=(None, None))
            if block is None:
                block = self.build_block(self.height, round_)
            self._broadcast(make_message(
                self.key, PRE_PREPARE, self.height, round_,
                block_hash(block), block, certificate), result)
        queued = self._future_proposals.pop(round_, None)
        if queued is not None:
            self._process(queued, result)
        if self.phase is not FINALIZED:
            self._check_quorums(result)

    def _process(self, msg: ConsensusMessage, result: StepResult) -> None:
        if self.phase is FINALIZED:
            return
        kind = msg.kind
        if kind is PRE_PREPARE:
            self._on_pre_prepare(msg, result)
        elif kind is ROUND_CHANGE:
            self._on_round_change(msg, result)
        else:
            self._on_vote(msg, result)

    def _on_pre_prepare(self, msg: ConsensusMessage, result: StepResult) -> None:
        if msg.round < self.round:
            return result.discards.append("StaleRound")
        if msg.proposal is None or block_hash(msg.proposal) != msg.block_hash:
            return result.discards.append("MalformedProposal")
        if msg.sender != proposer_for(self.height, msg.round, self.config):
            return result.discards.append("InvalidProposer")
        if msg.round > self.round:
            self._future_proposals.setdefault(msg.round, msg)
            return
        if self.accepted is not None:
            return result.discards.append("DuplicateMessage")
        if (self.locked_hash is not None and msg.block_hash != self.locked_hash
                and not self._justified(msg, self.lock_certificate[0])):
            return result.discards.append("ConflictsWithLock")
        if not self.validate_block(msg.proposal):
            return result.discards.append("InvalidBlock")
        self.accepted = msg.proposal
        self._known_blocks[msg.block_hash] = msg.proposal
        self._broadcast(make_message(
            self.key, PREPARE, self.height, self.round,
            msg.block_hash), result)

    def _on_vote(self, msg: ConsensusMessage, result: StepResult) -> None:
        """A PREPARE or COMMIT. Future-round votes are kept, and they count
        on entering their round."""
        if msg.round < self.round:
            return result.discards.append("StaleRound")
        votes = self._prepares if msg.kind is PREPARE else self._commits
        bucket = votes.setdefault((msg.round, msg.block_hash), {})
        if msg.sender in bucket:
            return result.discards.append("DuplicateMessage")
        bucket[msg.sender] = msg.signature
        self._check_quorums(result)

    def _on_round_change(self, msg: ConsensusMessage, result: StepResult) -> None:
        if msg.round <= self.round:
            return result.discards.append("StaleRound")
        bucket = self._round_changes.setdefault(msg.round, {})
        if msg.sender in bucket:
            return result.discards.append("DuplicateMessage")
        if msg.certificate is not None and not self._justified(msg, 0):
            return result.discards.append("InvalidCertificate")
        bucket[msg.sender] = msg
        # no bucket above self.round holds a quorum: the vote completing one enters it
        if len(bucket) >= self.config.quorum:
            self._enter_round(msg.round, result)
        if self.phase is FINALIZED:
            return
        # f+1 distinct peers already asked for a later round: echo the
        # smallest one so a live minority cannot be left behind
        later = [t for t in self._round_changes if t > self.round]
        if (len({s for t in later for s in self._round_changes[t]}) >= self.config.f + 1
                and self.rc_target < min(later)):
            self._request_round(min(later), result)

    def _request_round(self, target: int, result: StepResult) -> None:
        """Broadcast a ROUND_CHANGE to `target` that carries this node's lock."""
        self.rc_target = target
        self._broadcast(make_message(
            self.key, ROUND_CHANGE, self.height, target,
            self.locked_hash or ZERO_HASH,
            self._known_blocks.get(self.locked_hash), self.lock_certificate), result)

    def _justified(self, msg: ConsensusMessage, floor: int) -> bool:
        """Whether `msg` carries a valid prepared certificate for its
        proposal, of a round in [floor, msg.round)."""
        cert = msg.certificate
        return (cert is not None and msg.proposal is not None
                and block_hash(msg.proposal) == msg.block_hash
                and floor <= cert[0] < msg.round
                and quorum_signed(PREPARE, msg.height, cert[0], msg.block_hash,
                                  cert[1], self.config, self.registry))

    def _check_quorums(self, result: StepResult) -> None:
        q = self.config.quorum
        if (self.phase is AWAITING_PROPOSAL and self.accepted is not None):
            bh = block_hash(self.accepted)
            prepares = self._prepares.get((self.round, bh), {})
            if len(prepares) >= q:
                self.phase = PREPARED
                self.locked_hash = bh
                self.lock_certificate = (self.round, tuple(sorted(prepares.items())))
                # counting this COMMIT runs the commit scan below
                self._broadcast(make_message(
                    self.key, COMMIT, self.height, self.round, bh), result)
                return
        # only a commit quorum of the current round finalizes
        for bh, block in self._known_blocks.items():
            seals = self._commits.get((self.round, bh), {})
            if len(seals) >= q:
                self.phase = FINALIZED
                result.finalized = replace_unhashed(
                    block, round=self.round, commit_seals=tuple(sorted(seals.items())))
                return


def validate_finalized_block(block: Block, config: ConsensusConfig,
                             registry: Registry, parent: Block) -> bool:
    """Quorum-seal and linkage check for a block claimed final: it extends
    `parent`, and it carries a quorum of distinct validator seals, each a
    valid commit signature over this block's height, round and hash.
    Genesis is checked by equality with `make_genesis_block()` instead."""
    return (extends(block, parent)
            and quorum_signed(COMMIT, block.height, block.round, block_hash(block),
                              block.commit_seals, config, registry))
