"""Offline integrity audit of a chain dump.

Re-executes every block from genesis and re-verifies parent links,
heights, commit seals and block content, executing and checking blocks
as validators do (`contract.execute_block_txs`, `block_content_error`),
and the block and transaction hashes each line declares.
The verdict names the first diverging height so corrupted dumps are easy
to localize.

The dump is processed in windows of blocks. Before a window's checks run
in chain order, every Keccak digest they will ask for (block, transaction
and bank-account hashes, state roots) is hashed in a few batches by
`keccak256_many`, so each check finds its digest memoized. Signature
checks need no batch: signatures are keyed BLAKE2b, not Keccak.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from . import contract
from .config import GenesisConfig
from .consensus import validate_finalized_block
from .errors import CorruptDump
from .keccak import keccak256_many
from .model import (
    Block, RegisterBankAccount, block_from_json, block_hash, block_hashes, hx,
    receipt_to_json, serialize_block, tx_hash,
)
from .simulation import genesis_setup, make_genesis_block

# Blocks executed and hashed together. Bounds the ledgers and inputs held
# at once; larger windows fill wider batches.
_WINDOW = 64


@dataclass(frozen=True)
class ReplayVerdict:
    ok: bool
    height: Optional[int] = None
    reason: Optional[str] = None

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return f"CORRUPT at height {self.height}: {self.reason}"


def _load_blocks(data: bytes) -> list[tuple[Block, object, list]]:
    """Each block with the hash its line declares and the hashes its
    transactions declare."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptDump(f"not UTF-8: {exc}") from None
    blocks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            block = block_from_json(obj)
            serialize_block(block)  # a field its encoding cannot hold
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise CorruptDump(f"line {lineno}: {exc}") from None
        blocks.append((block, obj.get("hash"), [tx.get("hash") for tx in obj["txs"]]))
    if not blocks:
        raise CorruptDump("empty chain dump")
    return blocks


def _execute_window(window: list[tuple[Block, object, list]],
                    ledger: contract.LedgerState) -> list[tuple[contract.LedgerState, list]]:
    """Apply each block of the window; return the ledger after it and its
    receipts.

    Around the execution, batch-hash every Keccak digest the window's
    checks will ask for: block and transaction hashes and bank-account
    strings before it, state roots after it. Signatures are keyed BLAKE2b
    (`crypto.sign`), cheap enough to check one at a time.
    """
    blocks = [block for block, _, _ in window]
    block_hashes(blocks)  # hashes the transactions too
    keccak256_many([contract.account_hash_input(tx.payload.account)
                    for block in blocks for tx in block.txs
                    if isinstance(tx.payload, RegisterBankAccount)])

    executed = []
    for block in blocks:
        ledger, receipts = contract.execute_block_txs(ledger, block.txs)
        executed.append((ledger, receipts))
    contract.state_roots([after.contract for after, _ in executed])
    return executed


def _replay(genesis_cfg: GenesisConfig, dump: bytes,
            wanted_tx_hash: Optional[bytes] = None) -> tuple[ReplayVerdict, Optional[dict]]:
    """One verified pass: the verdict, and the receipt of the first
    transaction hashing to `wanted_tx_hash`, annotated with its height."""
    _, registry, config = genesis_setup(genesis_cfg)

    blocks = _load_blocks(dump)
    expected_genesis = make_genesis_block()
    first, first_declared, _ = blocks[0]
    if first != expected_genesis:
        return ReplayVerdict(False, 0, "genesis block mismatch"), None
    if first_declared != hx(block_hash(expected_genesis)):
        return ReplayVerdict(False, 0, "declared genesis hash mismatch"), None

    ledger = contract.genesis_ledger()
    parent = expected_genesis
    found = None
    for start in range(1, len(blocks), _WINDOW):
        window = blocks[start:start + _WINDOW]
        executed = _execute_window(window, ledger)
        for (block, declared, declared_txs), (ledger, receipts) in zip(window, executed):
            h = block.height
            if declared != hx(block_hash(block)):
                return ReplayVerdict(False, h, "declared hash mismatch"), None
            if not validate_finalized_block(block, config, registry, parent=parent):
                return ReplayVerdict(False, h, "seal or linkage check failed"), None
            reason = contract.block_content_error(block, ledger, registry,
                                                  genesis_cfg.block_gas_limit)
            if reason is not None:
                return ReplayVerdict(False, h, reason), None
            if declared_txs != [hx(tx_hash(tx)) for tx in block.txs]:
                return ReplayVerdict(False, h, "declared tx hash mismatch"), None
            if found is None:
                for receipt in receipts:
                    if receipt.tx_hash == wanted_tx_hash:
                        found = receipt_to_json(receipt)
                        found["height"] = h
                        break
            parent = block
    return ReplayVerdict(True), found


def replay_chain(genesis_cfg: GenesisConfig, dump: bytes) -> ReplayVerdict:
    return _replay(genesis_cfg, dump)[0]


def receipt_from_dump(genesis_cfg: GenesisConfig, dump: bytes,
                      wanted_tx_hash: bytes) -> Optional[dict]:
    """Re-derive the receipt of one transaction from an intact dump.

    Returns the receipt as a JSON-ready dict annotated with the block
    height, or None if the transaction is not in the chain.
    """
    verdict, receipt = _replay(genesis_cfg, dump, wanted_tx_hash)
    if not verdict.ok:
        raise CorruptDump(f"at height {verdict.height}: {verdict.reason}")
    return receipt
