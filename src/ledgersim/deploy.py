"""Idempotent contract migration against a running simulation.

Mirrors the migration-script contract: if a finalized deployment
already exists, return its address without submitting anything;
otherwise submit the deployment transaction and wait for finality.
"""

from __future__ import annotations

from typing import Optional

from .crypto import KeyPair
from .errors import AlreadyDeployedByOther, DeployTimeout
from .keccak import keccak256
from .model import Address, Deploy, Transaction, TxStatus, tx_hash
from .simulation import Simulation


def contract_address(deployer: Address, nonce: int) -> Address:
    """Pure function of the deployer and its nonce; recomputable externally."""
    return Address(keccak256(deployer + nonce.to_bytes(8, "big"))[-20:])


def _find_finalized_deploy(sim: Simulation) -> Optional[Transaction]:
    node = sim.reference_node()
    for block in node.chain.blocks:
        for tx in block.txs:
            if isinstance(tx.payload, Deploy):
                receipt = node.chain.receipts[tx_hash(tx)]
                if receipt.status is TxStatus.SUCCESS:
                    return tx
    return None


def migrate_deploy(sim: Simulation, deployer: KeyPair, *,
                   patience: int = 1500) -> Address:
    """Deploy once; later calls return the existing instance's address.

    `patience` bounds how much logical time we wait for finality before
    declaring a liveness failure.
    """
    sim.start()
    existing = _find_finalized_deploy(sim)
    if existing is not None:
        organization = sim.reference_node().chain.head_ledger.contract.organization
        if organization != deployer.address:
            raise AlreadyDeployedByOther(
                f"contract owned by {organization.hex()}")
        return contract_address(existing.sender, existing.nonce)

    tx = sim.build_tx(deployer, Deploy())
    sim.submit_to_all(tx)
    digest = tx_hash(tx)
    deadline = sim.queue.now + patience

    node = sim.reference_node()
    while digest not in node.chain.receipts:
        if not sim.advance(deadline):
            raise DeployTimeout("deployment did not finalize in time")

    receipt = node.chain.receipts[digest]
    if receipt.status is not TxStatus.SUCCESS:
        raise AlreadyDeployedByOther(f"deploy failed: {receipt.error}")
    return contract_address(tx.sender, tx.nonce)
