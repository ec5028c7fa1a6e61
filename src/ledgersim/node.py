"""Validator node: mempool, chain storage, execution and consensus glue.

Every block, whether a proposal, an announced sealed block or this
node's own finalized block, is executed by `contract.execute_block_txs`
and checked by `contract.block_content_error`, as the replay audit does.
The execution table that a simulation hands to all its nodes keeps each
result, so a block is executed once however many nodes see it, and they
all adopt the same immutable ledger object.

Finality is instant and the chain is append-only; there are no forks or
reorgs. A node that falls behind (for example the odd victim of an
equivocating proposer) is caught up out-of-band, as Besu's block sync
would: it times out and sends a ROUND_CHANGE for its old height, and a
peer that has finalized that height answers a signed one with every
sealed block from there to its head, at most `CATCH_UP_BLOCKS` of them.
The laggard verifies each against the quorum seals and adopts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import contract
from .consensus import (
    ROUND_CHANGE, ConsensusConfig, ConsensusMessage, Engine, StepResult,
    validate_finalized_block, verify_message,
)
from .crypto import KeyPair, Registry
from .errors import InternalInvariantViolation
from .model import (
    Address, Block, Event, Hash256, Receipt, Transaction, block_hash, tx_hash,
)

# The most sealed blocks one ROUND_CHANGE for a finalized height brings
# back, so one old message cannot make a node send its whole chain.
CATCH_UP_BLOCKS = 32


@dataclass(frozen=True, slots=True)
class BlockAnnounce:
    block: Block


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
        self.head_height = 0

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def append(self, block: Block, ledger: contract.LedgerState,
               receipts: list[Receipt]) -> None:
        if (block.height != self.head_height + 1
                or block.parent_hash != block_hash(self.head)):
            raise InternalInvariantViolation(
                f"block {block.height} does not extend the head at {self.head_height}")
        self.blocks.append(block)
        self.head_height += 1
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


# What a block leaves on its parent's ledger: the ledger and receipts, or
# None if it fails the content check.
Execution = Optional[tuple[contract.LedgerState, list[Receipt]]]


class ExecutionTable(dict[int, dict[Hash256, Execution]]):
    """Executions by block height, then block hash. Every height at or
    below `floor` has left the table for good, and no writer puts it back."""
    floor = 0

    def record(self, block: Block, executed: Execution) -> None:
        """Keep `executed`, unless the block's height has been evicted. The
        simulation evicts a height once every honest node's head has reached
        it, since no node executes at or below its own head; a faulty node
        left behind still executes there, on its own."""
        if block.height > self.floor:
            self.setdefault(block.height, {})[block_hash(block)] = executed

    def evict_through(self, height: int) -> None:
        while self.floor < height:
            self.floor += 1
            self.pop(self.floor, None)


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

    def start(self) -> StepResult:
        return self._wrap(self.engine.start_height(1))

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
        self.executions.record(block, (ledger, receipts))
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

    def handle_payload(self, payload: object) -> StepResult:
        if isinstance(payload, ConsensusMessage):
            return self.handle_consensus(payload)
        if isinstance(payload, BlockAnnounce):
            return self.handle_announce(payload.block)
        raise TypeError(f"unknown payload {payload!r}")

    def handle_height_start(self) -> StepResult:
        target = self.chain.head_height + 1
        if self.engine.height >= target:
            return StepResult()  # already working on it
        return self._wrap(self.engine.start_height(target))

    def handle_consensus(self, msg: ConsensusMessage) -> StepResult:
        if msg.height <= self.chain.head_height:
            # A ROUND_CHANGE here means the sender is stuck behind: send it
            # the sealed blocks it is missing. A late vote needs nothing.
            result = StepResult()
            if (msg.kind is ROUND_CHANGE and msg.height >= 1
                    and msg.sender in self.config.validators
                    and verify_message(msg, self.registry)):
                for sealed in self.chain.blocks[msg.height:msg.height + CATCH_UP_BLOCKS]:
                    result.outbound.append((BlockAnnounce(sealed), msg.sender))
            return result
        if msg.height > self.engine.height:
            return StepResult()  # cannot use future heights yet
        return self._wrap(self.engine.handle_message(msg))

    def handle_timer(self, epoch: int) -> StepResult:
        return self._wrap(self.engine.handle_timer(epoch))

    def handle_announce(self, block: Block) -> StepResult:
        adopted = (validate_finalized_block(block, self.config, self.registry,
                                            parent=self.chain.head)
                   and self._adopt(block))
        return StepResult(finalized=block if adopted else None)

    # -- internals ------------------------------------------------------------------

    def _wrap(self, step: StepResult) -> StepResult:
        """`step`, once the block it finalized, if any, is adopted."""
        if step.finalized is not None and not self._adopt(step.finalized):
            raise InternalInvariantViolation(
                f"finalized block {step.finalized.height} fails the content check")
        return step

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
        self.executions.record(block, executed)
        return executed

    def _adopt(self, block: Block) -> bool:
        """Append `block` to the chain if it passes the content check."""
        executed = self._checked_execution(block)
        if executed is None:
            return False
        self.chain.append(block, *executed)
        self.mempool.remove_included(block.txs)
        return True

    # -- reads ----------------------------------------------------------------------

    def get_balance(self, caller: Address):
        return contract.get_balance(self.chain.head_ledger.contract, caller)

    def poll_events(self, since_cursor: int = 0) -> list[tuple[int, Event]]:
        events = self.chain.events()[since_cursor:]
        return [(since_cursor + i + 1, event) for i, (*_, event) in enumerate(events)]
