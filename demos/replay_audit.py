#!/usr/bin/env python3
"""Chain dumps as tamper-evident records.

Runs the disbursement scenario, writes the chain dump, re-verifies it
offline (seals, parent links, re-executed state roots), then corrupts
a single field and shows the audit pinpoint the damage. Also
demonstrates the deterministic-replay guarantee: same seed, same bytes.
Exits 1 unless the twin dumps are identical, the pristine dump audits OK
and each tampered dump is CORRUPT at the tampered block's height.
"""

import json
import sys
import tempfile
from pathlib import Path

from ledgersim import parse_genesis, parse_scenario, replay_chain, run_scenario

HERE = Path(__file__).resolve().parent.parent
GENESIS = HERE / "scenarios" / "genesis_paper.json"
SCENARIO = HERE / "scenarios" / "paper_flow.json"


def main():
    genesis = parse_genesis(GENESIS.read_bytes())
    scenario = parse_scenario(SCENARIO.read_bytes())

    with tempfile.TemporaryDirectory() as tmp:
        out_a, out_b = Path(tmp) / "a", Path(tmp) / "b"
        code, _ = run_scenario(genesis, scenario, seed=2024, out_dir=out_a)
        print(f"scenario run exited {code}")
        run_scenario(genesis, scenario, seed=2024, out_dir=out_b)
        same = (out_a / "chain.jsonl").read_bytes() == \
            (out_b / "chain.jsonl").read_bytes()
        print(f"twin run with the same seed produced identical dump: {same}")

        dump = (out_a / "chain.jsonl").read_bytes()
        pristine_verdict = replay_chain(genesis, dump)
        print(f"\nauditing {len(dump.splitlines())} blocks:", pristine_verdict)

        pristine = dump.decode().splitlines()
        target = next(i for i, line in enumerate(pristine)
                      if json.loads(line)["txs"])

        lines = list(pristine)
        obj = json.loads(lines[target])
        height = obj["height"]
        print(f"\nraising the allowance inside block {height} after the fact...")
        for tx in obj["txs"]:
            if tx["payload"]["type"] == "sendAllowance":
                tx["payload"]["amount"] = "999999"
        lines[target] = json.dumps(obj, sort_keys=True)
        amount_verdict = replay_chain(genesis, "\n".join(lines).encode())
        print("audit says:", amount_verdict)

        lines = list(pristine)
        obj = json.loads(lines[target])
        print(f"\nremoving one commit seal from block {height} instead...")
        obj["commitSeals"] = obj["commitSeals"][:2]
        lines[target] = json.dumps(obj, sort_keys=True)
        seal_verdict = replay_chain(genesis, "\n".join(lines).encode())
        print("audit says:", seal_verdict)

    checks = (
        ("the twin dumps are identical", same),
        ("the pristine dump audits OK", pristine_verdict.ok),
        (f"the raised allowance is CORRUPT at height {height}",
         not amount_verdict.ok and amount_verdict.height == height),
        (f"the removed seal is CORRUPT at height {height}",
         not seal_verdict.ok and seal_verdict.height == height),
    )
    failed = [claim for claim, held in checks if not held]
    for claim in failed:
        print(f"CHECK FAILED: {claim}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
