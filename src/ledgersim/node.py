"""Validator node: mempool, chain storage, execution and consensus glue.

Every block, whether a proposal, an announced sealed block or this
node's own finalized block, is executed by `contract.execute_block_txs`
and checked by `contract.block_content_error`, as the replay audit does.
The execution table that a simulation hands to all its nodes keeps each
result, so a block is executed once however many nodes see it, and they
all adopt the same immutable ledger object.

Finality is instant and the chain is append-only; there are no forks or
reorgs. A node that falls behind (for example the odd victim of an
equivocating proposer) is rescued out-of-band: whenever a peer receives
a consensus message for a height it has already finalized, it replies
with the sealed block, which the laggard verifies against the quorum
seals and adopts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import contract
from .consensus import (
    ConsensusConfig, ConsensusMessage, Engine, StepResult,
    validate_finalized_block,
)
from .crypto import KeyPair, Registry
from .errors import InternalInvariantViolation
from .model import (
    Address, Block, Event, Hash256, Receipt, Transaction, block_hash, tx_hash,
)


@dataclass(frozen=True, slots=True)
class BlockAnnounce:
    block: Block


@dataclass(frozen=True, slots=True)
class TimerFire:
    node: Address
    epoch: int


@dataclass(frozen=True, slots=True)
class HeightStart:
    """Self-addressed continuation: begin consensus on the next height."""


class Mempool:
    """FIFO pending pool; duplicates and unverifiable signatures never enter."""

    def __init__(self, registry: Registry) -> None:
        self.registry = registry
        self.pending: dict[Hash256, Transaction] = {}  # by tx hash, in arrival order
        self.seen: set[Hash256] = set()

    def add(self, tx: Transaction, executed_nonce: int) -> tuple[bool, Optional[str]]:
        h = tx_hash(tx)
        if h in self.seen:
            return False, "DuplicateTx"
        if not self.registry.verify_by_address(tx.sender, h, tx.signature):
            return False, "InvalidSignature"
        if tx.nonce < executed_nonce:
            return False, "StaleNonce"
        self.seen.add(h)
        self.pending[h] = tx
        return True, None

    def remove_included(self, txs: tuple[Transaction, ...]) -> None:
        for tx in txs:
            self.pending.pop(tx_hash(tx), None)


class Chain:
    """Append-only finalized chain, its receipts and events, and the ledger
    after its head."""

    def __init__(self, genesis: Block, genesis_ledger: contract.LedgerState) -> None:
        self.blocks: list[Block] = [genesis]
        self.head_ledger = genesis_ledger
        self.receipts: dict[Hash256, Receipt] = {}
        self.receipts_by_height: list[list[Receipt]] = [[]]

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    @property
    def head_height(self) -> int:
        return len(self.blocks) - 1

    def append(self, block: Block, ledger: contract.LedgerState,
               receipts: list[Receipt]) -> None:
        if (block.height != self.head_height + 1
                or block.parent_hash != block_hash(self.head)):
            raise InternalInvariantViolation(
                f"block {block.height} does not extend the head at {self.head_height}")
        self.blocks.append(block)
        self.head_ledger = ledger
        self.receipts_by_height.append(receipts)
        for receipt in receipts:
            self.receipts[receipt.tx_hash] = receipt

    def events(self) -> list[tuple[int, int, int, Event]]:
        """Every event on the chain as (height, tx index, emission index, event)."""
        return [(height, tx_index, emission_index, event)
                for height, receipts in enumerate(self.receipts_by_height)
                for tx_index, receipt in enumerate(receipts)
                for emission_index, event in enumerate(receipt.events)]


@dataclass
class NodeResult:
    outbound: list[tuple[object, Optional[Address]]] = field(default_factory=list)
    timer: Optional[tuple[int, int]] = None
    finalized: list[Block] = field(default_factory=list)
    steps: list[StepResult] = field(default_factory=list)


# What a block leaves on its parent's ledger: the ledger and receipts, or
# None if it fails the content check.
Execution = Optional[tuple[contract.LedgerState, list[Receipt]]]


class ExecutionTable(dict[int, dict[Hash256, Execution]]):
    """Executions by block height, then block hash. Every height at or
    below `floor` has left the table for good, and no writer puts it back."""
    floor = 0


class ValidatorNode:
    def __init__(self, key: KeyPair, config: ConsensusConfig, registry: Registry,
                 genesis: Block, block_gas_limit: int,
                 executions: ExecutionTable) -> None:
        self.key = key
        self.address = key.address
        self.config = config
        self.registry = registry
        self.block_gas_limit = block_gas_limit
        self.peers: list[Address] = [v for v in config.validators if v != key.address]
        self.chain = Chain(genesis, contract.genesis_ledger())
        self.mempool = Mempool(registry)
        self.engine = Engine(config, key, registry,
                             build_block=self.build_block,
                             validate_block=self.validate_block)
        self.executions = executions  # shared by every node of a simulation

    # -- lifecycle -------------------------------------------------------------

    def start(self, now: int) -> NodeResult:
        return self._wrap(self.engine.start_height(1, now), now)

    # -- block assembly and validation ------------------------------------------

    def build_block(self, height: int, round_: int) -> Block:
        parent = self.chain.head
        if height != parent.height + 1:
            raise InternalInvariantViolation(
                f"asked to build height {height} on the head at {parent.height}")
        txs: list[Transaction] = []
        total_gas = 0
        for tx in self.mempool.pending.values():
            if total_gas + tx.gas_limit > self.block_gas_limit:
                break
            txs.append(tx)
            total_gas += tx.gas_limit
        ledger, receipts = contract.execute_block_txs(self.chain.head_ledger, tuple(txs))
        block = Block(height, round_, block_hash(parent), self.address,
                      tuple(txs), contract.state_root(ledger.contract), ())
        self._record(block, (ledger, receipts))
        return block

    def validate_block(self, block: Block) -> bool:
        parent = self.chain.head
        if block.height != parent.height + 1:
            return False
        if block.parent_hash != block_hash(parent):
            return False
        if block.proposer not in self.config.validators:
            return False
        return self._checked_execution(block) is not None

    # -- transaction intake ------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> tuple[bool, Optional[str]]:
        executed = self.chain.head_ledger.nonces.get(tx.sender, 0)
        return self.mempool.add(tx, executed)

    # -- event handlers ------------------------------------------------------------

    def handle_payload(self, payload: object, now: int) -> NodeResult:
        if isinstance(payload, ConsensusMessage):
            return self.handle_consensus(payload, now)
        if isinstance(payload, BlockAnnounce):
            return self.handle_announce(payload.block, now)
        if isinstance(payload, HeightStart):
            return self.handle_height_start(now)
        raise TypeError(f"unknown payload {payload!r}")

    def handle_height_start(self, now: int) -> NodeResult:
        target = self.chain.head_height + 1
        if self.engine.height >= target:
            return NodeResult()  # already working on it
        return self._wrap(self.engine.start_height(target, now), now)

    def handle_consensus(self, msg: ConsensusMessage, now: int) -> NodeResult:
        if msg.height <= self.chain.head_height:
            # the sender lags behind; show it the sealed block it is missing
            result = NodeResult()
            if msg.height >= 1 and msg.sender in self.config.validators:
                sealed = self.chain.blocks[msg.height]
                result.outbound.append((BlockAnnounce(sealed), msg.sender))
            return result
        if msg.height > self.engine.height:
            return NodeResult()  # cannot use future heights yet
        return self._wrap(self.engine.handle_message(msg, now), now)

    def handle_timer(self, fire: TimerFire, now: int) -> NodeResult:
        return self._wrap(self.engine.handle_timer(fire.epoch, now), now)

    def handle_announce(self, block: Block, now: int) -> NodeResult:
        if not validate_finalized_block(block, self.config, self.registry,
                                        parent=self.chain.head):
            return NodeResult()
        executed = self._checked_execution(block)
        result = NodeResult()
        if executed is not None:
            self._adopt(block, *executed, result)
        return result

    # -- internals ------------------------------------------------------------------

    def _wrap(self, step: StepResult, now: int) -> NodeResult:
        result = NodeResult(steps=[step])
        result.timer = step.timer
        for msg in step.outbound:
            result.outbound.append((msg, None))
        if step.finalized is not None:
            executed = self._checked_execution(step.finalized)
            if executed is None:
                raise InternalInvariantViolation(
                    f"finalized block {step.finalized.height} fails the content check")
            self._adopt(step.finalized, *executed, result)
        return result

    def _checked_execution(self, block: Block) -> Execution:
        """The ledger and receipts after `block` on the head, or None if it
        fails the content check. Both are pure functions of the block and
        its parent's ledger, and every caller has checked that the parent
        is this node's head: the block hash commits to the parent hash, the
        transactions and the state root, and the registry and gas limit are
        the same on every node. So the first node to execute a block
        records the verdict in the shared table and the others read it; a
        built block is recorded by `build_block`, and passes by
        construction."""
        at_height = self.executions.get(block.height, {})
        bh = block_hash(block)
        if bh in at_height:
            return at_height[bh]
        ledger, receipts = contract.execute_block_txs(self.chain.head_ledger, block.txs)
        error = contract.block_content_error(block, ledger, self.registry,
                                             self.block_gas_limit)
        executed = None if error is not None else (ledger, receipts)
        self._record(block, executed)
        return executed

    def _record(self, block: Block, executed: Execution) -> None:
        """Keep `executed` in the shared table, unless the simulation has
        evicted the block's height. It evicts a height once every honest
        node's head has reached it, since no node executes at or below its
        own head; a faulty node left behind still executes there, on its own."""
        if block.height > self.executions.floor:
            self.executions.setdefault(block.height, {})[block_hash(block)] = executed

    def _adopt(self, block: Block, ledger: contract.LedgerState,
               receipts: list[Receipt], result: NodeResult) -> None:
        self.chain.append(block, ledger, receipts)
        self.mempool.remove_included(block.txs)
        result.finalized.append(block)

    # -- reads ----------------------------------------------------------------------

    def get_balance(self, caller: Address):
        return contract.get_balance(self.chain.head_ledger.contract, caller)

    def poll_events(self, since_cursor: int = 0) -> list[tuple[int, Event]]:
        events = self.chain.events()[since_cursor:]
        return [(since_cursor + i + 1, event) for i, (*_, event) in enumerate(events)]
