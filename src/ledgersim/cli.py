"""Command-line entry point.

    ledgersim run --genesis g.json --scenario s.json [--seed N] [--out DIR]
    ledgersim quorum-table --max-n N
    ledgersim replay --chain chain.jsonl --genesis g.json
    ledgersim receipt --chain chain.jsonl --genesis g.json --tx 0x...

The SIM_SEED environment variable overrides --seed; a seed outside
[0, 2**64) is a config error. Exit codes for `run`: 0 all expectations
hold, 2 config error (an unusable input, or an --out that cannot be
written), 3 expectation failure, 4 internal invariant violation.
`replay` exits 0 on an intact dump, 2 on unreadable inputs and 4 on a
corrupt chain; `receipt` also exits 3 when the tx is not on the chain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import GenesisConfig, parse_genesis
from .consensus import fault_tolerance, quorum_size
from .errors import CorruptDump, LedgerSimError, MalformedConfig, MalformedScenario
from .model import unhx
from .replay import receipt_from_dump, replay_chain
from .scenario import parse_scenario, run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    genesis = parse_genesis(Path(args.genesis).read_bytes())
    scenario = parse_scenario(Path(args.scenario).read_bytes())
    seed = args.seed
    env_seed = os.environ.get("SIM_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise MalformedConfig(f"bad SIM_SEED {env_seed!r}") from None

    out_dir = Path(args.out) if args.out else None
    code, report = run_scenario(genesis, scenario, seed=seed, out_dir=out_dir)
    name = report["scenario"]
    if code == 4:
        print(f"{name}: INVARIANT VIOLATION", file=sys.stderr)
    else:
        height = max(report["finalizedHeight"].values())
        verdict = "ok" if code == 0 else "expectation failure"
        print(f"{name}: {verdict} (finalized height {height}, exit {code})")
        for entry in report["expectations"]:
            mark = "PASS" if entry["ok"] else "FAIL"
            print(f"  [{mark}] {entry['kind']}: {entry['detail']}")
    return code


def _cmd_quorum_table(args: argparse.Namespace) -> int:
    print(f"{'N':>4} {'F':>4} {'Q':>4}")
    for n in range(1, args.max_n + 1):
        print(f"{n:>4} {fault_tolerance(n):>4} {quorum_size(n):>4}")
    return 0


def _read_dump(args: argparse.Namespace) -> tuple[GenesisConfig, bytes]:
    return parse_genesis(Path(args.genesis).read_bytes()), Path(args.chain).read_bytes()


def _cmd_replay(args: argparse.Namespace) -> int:
    verdict = replay_chain(*_read_dump(args))
    print(str(verdict))
    return 0 if verdict.ok else 4


def _cmd_receipt(args: argparse.Namespace) -> int:
    genesis, dump = _read_dump(args)
    try:
        wanted = unhx(args.tx)
    except ValueError as exc:
        raise MalformedConfig(str(exc)) from None
    receipt = receipt_from_dump(genesis, dump, wanted)
    if receipt is None:
        print("transaction not found", file=sys.stderr)
        return 3
    print(json.dumps(receipt, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ledgersim",
        description="Deterministic permissioned-ledger simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scripted scenario")
    run_p.add_argument("--genesis", required=True)
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(func=_cmd_run)

    table_p = sub.add_parser("quorum-table", help="print N, F, Q rows")
    table_p.add_argument("--max-n", type=int, required=True)
    table_p.set_defaults(func=_cmd_quorum_table)

    dump_p = argparse.ArgumentParser(add_help=False)  # what _read_dump reads
    dump_p.add_argument("--chain", required=True)
    dump_p.add_argument("--genesis", required=True)
    replay_p = sub.add_parser("replay", parents=[dump_p], help="audit a chain dump")
    replay_p.set_defaults(func=_cmd_replay)

    receipt_p = sub.add_parser("receipt", parents=[dump_p],
                               help="look up a receipt by tx hash")
    receipt_p.add_argument("--tx", required=True, help="0x-prefixed tx hash")
    receipt_p.set_defaults(func=_cmd_receipt)

    args = parser.parse_args(argv)
    try:  # the commands raise; only here does a refusal become an exit code
        return args.func(args)
    except (OSError, MalformedConfig, MalformedScenario) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CorruptDump as exc:
        print(f"CORRUPT: {exc}")
        return 4
    except LedgerSimError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
