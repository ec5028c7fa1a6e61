#!/usr/bin/env python3
"""Eventual synchrony: message chaos before GST, steady progress after.

Before the global stabilization time every message may be dropped or
delayed by up to preGstMaxDelay; from GST on, delivery is guaranteed
within delta. The experiment runs the same seeds with different GST
values and plots (in ASCII) how many blocks finalize per window. It
checks its claim too: from GST on, every window gains a height. It exits
1 if some window does not.
"""

import sys

from ledgersim import Simulation
from ledgersim.config import GenesisConfig, KeyProvider

SEEDS = tuple(bytes([i]) * 32 for i in range(1, 7))
WINDOW = 100
HORIZON = 1000


def make_sim(seed, gst, loss):
    provider = KeyProvider(SEEDS, "http://127.0.0.1:8545", 0, 5)
    genesis = GenesisConfig(
        network_id=1337, validators=SEEDS[:4], block_gas_limit=4_500_000,
        gas_price=0, gst=gst, delta=5, pre_gst_max_delay=50,
        pre_gst_loss_prob=loss, seed=seed, base_round_timeout=30,
        key_provider=provider)
    return Simulation(genesis, horizon=HORIZON, collect_traces=False)


def growth_profile(sim):
    """Finalized height of the reference node at each window boundary."""
    marks = []
    for t in range(WINDOW, HORIZON + 1, WINDOW):
        sim.run(until=t)
        marks.append(sim.finalized_height(sim.config.validators[0]))
    return marks


def show(title, marks):
    print(title)
    prev = 0
    for i, h in enumerate(marks):
        gained = h - prev
        prev = h
        bar = "#" * gained
        print(f"  t={WINDOW * (i + 1):>5}: height {h:>3} {bar}")
    print()


def grows_after(marks, gst):
    """Whether every window that starts at or after `gst` gains a height."""
    return all(marks[i] > (marks[i - 1] if i else 0)
               for i in range(len(marks)) if WINDOW * i >= gst)


PANELS = (  # (title, gst, pre-GST loss)
    ("GST = 0 (synchronous from the start):", 0, 0.1),
    ("GST = 500, 10% pre-GST loss:", 500, 0.1),
    ("GST = 500, 60% pre-GST loss (harsher start, same ending):", 500, 0.6),
)


def main():
    print(f"four validators, delta=5, window={WINDOW}, horizon={HORIZON}\n")
    stalled = []
    for title, gst, loss in PANELS:
        marks = growth_profile(make_sim(seed=11, gst=gst, loss=loss))
        show(title, marks)
        if not grows_after(marks, gst):
            stalled.append(title)
    print("Blocks may trickle in before GST when luck allows, but only")
    print("after GST does the growth rate become a guarantee.")
    for title in stalled:
        print(f"CHECK FAILED: a window after GST gained no height in {title!r}")
    return 1 if stalled else 0


if __name__ == "__main__":
    sys.exit(main())
