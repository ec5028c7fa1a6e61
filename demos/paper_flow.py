#!/usr/bin/env python3
"""The full disbursement flow on a four-validator network.

An organization deploys the contract, registers a recipient with a
bank account, funds its own balance and sends an allowance. Every
validator executes the same finalized blocks, so balances, events and
reads agree everywhere. The recipient's on-ledger balance stays zero:
the payout itself is off-ledger and is signaled by the AllowanceSent
event. Exits 1 unless every validator shows organization balance 700 and
recipient balance 0, the chains agree at every height they share, every
validator logs the same three events, and getBalance reads 700.
"""

import sys
from pathlib import Path

from ledgersim import (
    AddFunds, AddRecipient, AllowanceSent, Amount, BankAccountRegistered, Deploy,
    FundsAdded, RegisterBankAccount, SendAllowance, Simulation, block_hash, parse_genesis,
)

GENESIS = Path(__file__).resolve().parent.parent / "scenarios" / "genesis_paper.json"


def main():
    genesis = parse_genesis(GENESIS.read_bytes())
    sim = Simulation(genesis, horizon=600)
    org = sim.validator_keys[0]
    recipient = sim.validator_keys[1]

    print(f"organization: 0x{org.address.hex()}")
    print(f"recipient:    0x{recipient.address.hex()}")
    print()

    sim.schedule_tx(0, org, Deploy())
    sim.schedule_tx(5, org, AddRecipient(recipient.address))
    sim.schedule_tx(10, org, RegisterBankAccount(recipient.address, "IBAN-0001"))
    sim.schedule_tx(15, org, AddFunds(Amount(1000)))
    sim.schedule_tx(20, org, SendAllowance(recipient.address, Amount(300)))
    sim.run()

    print("per-validator view after the run:")
    nodes = [sim.nodes[address] for address in sim.config.validators]
    balances = []
    for i, node in enumerate(nodes):
        state = node.chain.head_ledger.contract
        balances.append((int(state.balances.get(org.address, 0)),
                         int(state.balances.get(recipient.address, 0))))
        print(f"  validator {i}: height {node.chain.head_height:>3}, "
              f"org balance {balances[-1][0]}, recipient balance {balances[-1][1]}")

    print()
    print("event log (identical on every honest node):")
    for cursor, event in sim.reference_node().poll_events(0):
        print(f"  {cursor}. {type(event).__name__}: {event}")

    print()
    balance = sim.reference_node().get_balance(org.address)
    print(f"getBalance(organization) -> {int(balance)}  (1000 added - 300 sent)")

    # A validator may stop a height short when the horizon falls between
    # its peers' commits; below that, every chain holds the same blocks,
    # each sealed by the commit quorum that its node collected.
    shared = min(node.chain.head_height for node in nodes) + 1
    hashes = [[block_hash(b) for b in node.chain.blocks[:shared]] for node in nodes]
    logs = [[event for _, event in node.poll_events(0)] for node in nodes]
    log = logs[0]
    checks = (
        ("every validator has org balance 700 and recipient balance 0",
         all(pair == (700, 0) for pair in balances)),
        ("the validators hold the same blocks at every height they share",
         all(other == hashes[0] for other in hashes)),
        ("every validator logs BankAccountRegistered, FundsAdded(1000) and "
         "AllowanceSent(300)",
         all(other == log for other in logs) and len(log) == 3
         and isinstance(log[0], BankAccountRegistered)
         and log[0].recipient == recipient.address
         and log[1:] == [FundsAdded(Amount(1000)), AllowanceSent(recipient.address, Amount(300))]),
        ("getBalance(organization) is 700", int(balance) == 700),
    )
    failed = [claim for claim, held in checks if not held]
    for claim in failed:
        print(f"CHECK FAILED: {claim}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
