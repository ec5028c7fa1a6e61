#!/usr/bin/env python3
"""Fault tolerance and quorum sizes for BFT validator sets.

A set of N validators tolerates F = floor((N-1)/3) Byzantine members,
and finalizing a block takes a quorum Q of strictly more than two
thirds of N. This script prints the table and checks the classical
inequality N - F > 2F that makes agreement possible at all. Exits 1
unless that inequality holds for every N printed, the quorum is the
smallest q with 3q > 2N for N in [1, 100], and at N = 4 two quorums
overlap in 2Q - N >= F + 1 validators.
"""

import sys

from ledgersim import fault_tolerance, quorum_size


def main():
    failed = []
    print("validators  tolerated_faults  quorum   N-F > 2F")
    print("-" * 50)
    for n in (1, 2, 3, 4, 5, 6, 7, 10, 13, 20, 50, 100):
        f = fault_tolerance(n)
        q = quorum_size(n)
        holds = n - f > 2 * f
        marker = " <- the four-validator consortium" if n == 4 else ""
        print(f"{n:>10}  {f:>16}  {q:>6}   {str(holds):>8}{marker}")
        if not holds:
            failed.append(f"N - F > 2F at N = {n}")

    print()
    print("Sanity: quorum is the smallest q with 3q > 2N")
    wrong = [n for n in range(1, 101)
             if quorum_size(n) != next(q for q in range(1, n + 1) if 3 * q > 2 * n)]
    if wrong:
        failed.append(f"the quorum is not minimal at N = {wrong}")
    else:
        print("  verified for N in [1, 100]")

    print()
    print("With N = 4: any 3 validators finalize a block, and any two")
    print("quorums overlap in at least 2 validators, at least one of")
    print("which is honest when F <= 1. That overlap is what makes two")
    print("conflicting finalized blocks impossible.")
    if 2 * quorum_size(4) - 4 < fault_tolerance(4) + 1:
        failed.append("two quorums of N = 4 overlap in F + 1 validators")

    for claim in failed:
        print(f"CHECK FAILED: {claim}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
