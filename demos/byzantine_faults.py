#!/usr/bin/env python3
"""Byzantine behavior injection: what breaks, and what provably cannot.

Three experiments on the four-validator network (F = 1, quorum 3):

  1. one EQUIVOCATE validator shows conflicting proposals to different
     peers; progress slows on its proposer turns, safety holds;
  2. one SILENT validator changes almost nothing (4 - 1 = 3 = quorum);
  3. two SILENT validators starve the quorum entirely: the chain halts
     and, crucially, halts without ever splitting.

It checks what it prints, and exits 1 if a check fails: within F, every
honest node finalizes blocks and the honest heads share one state root;
beyond F, no honest node finalizes any; and no run breaks safety.
"""

import sys

from ledgersim import Behavior, ByzantineSpec, Simulation
from ledgersim.config import GenesisConfig, KeyProvider

SEEDS = tuple(bytes([i]) * 32 for i in range(1, 7))


def make_sim(seed, horizon=1500):
    provider = KeyProvider(SEEDS, "http://127.0.0.1:8545", 0, 5)
    genesis = GenesisConfig(
        network_id=1337, validators=SEEDS[:4], block_gas_limit=4_500_000,
        gas_price=0, gst=100, delta=5, pre_gst_max_delay=50,
        pre_gst_loss_prob=0.1, seed=seed, base_round_timeout=30,
        key_provider=provider)
    return Simulation(genesis, horizon=horizon, collect_traces=False)


def report(title, sim):
    heights = [sim.finalized_height(a) for a in sim.honest_addresses()]
    roots = {bytes(sim.nodes[a].chain.head.state_root)
             for a in sim.honest_addresses()}
    print(f"{title}")
    print(f"  honest heights:     {heights}")
    print(f"  head state roots:   {len(roots)} distinct")
    print(f"  safety violation:   {sim.safety_violation}")
    print()
    return heights, len(roots)


EXPERIMENTS = (  # (title, seed, {faulty validator index: behavior})
    ("1 equivocating validator (within F=1): progress and safety",
     1, {0: Behavior.EQUIVOCATE}),
    ("1 silent validator (within F=1): the other three carry on",
     2, {0: Behavior.SILENT}),
    ("2 silent validators (beyond F=1): liveness lost, safety kept",
     3, {0: Behavior.SILENT, 1: Behavior.SILENT}),
    ("1 validator proposing out of turn: proposals discarded",
     4, {0: Behavior.INVALID_PROPOSER}),
)


def main():
    failed = []
    for title, seed, faults in EXPERIMENTS:
        sim = make_sim(seed)
        for index, behavior in faults.items():
            sim.inject_fault(ByzantineSpec(sim.config.validators[index], behavior))
        sim.run()
        heights, roots = report(title, sim)
        if len(faults) <= sim.config.f:
            holds = all(h > 0 for h in heights) and roots == 1
        else:
            holds = all(h == 0 for h in heights)
        if not holds or sim.safety_violation is not None:
            failed.append(title)

    print("The asymmetry is the point: pushing faults past F costs the")
    print("network its progress, never its consistency.")
    for title in failed:
        print(f"CHECK FAILED: {title!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
