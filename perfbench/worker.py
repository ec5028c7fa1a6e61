"""One repetition of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py WORKLOAD --seed N --work DIR
                                [--trace] [--corrupt-dump]

WORKLOAD is byz_sweep, tx_flood, audit_fixture (simulates the chain
dump the audit reads and writes it to DIR) or audit (reads it from DIR).
Prints one JSON object: set-up and timed-phase seconds, peak RSS, the
workload's outcome and, with --trace, the per-layer metrics. With
--trace the spans of the timed phase are written to DIR as well.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from ledgersim import config, keccak  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload",
                        choices=["byz_sweep", "tx_flood", "audit_fixture", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt-dump", action="store_true")
    args = parser.parse_args()

    tracer = None
    timed = nullcontext
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{args.work.name}")
        tracing.install(tracer)
        timed = tracer.recording

    fixture = args.work / "audit_fixture.json"
    if args.workload == "byz_sweep":
        sims = wl.byz_setup(args.seed)
        setup_s = time.perf_counter() - STARTED
        out = wl.byz_run(sims, timed)
    elif args.workload == "tx_flood":
        floods = wl.flood_setup(args.seed)
        setup_s = time.perf_counter() - STARTED
        out = wl.flood_run(floods, timed)
    elif args.workload == "audit_fixture":
        cases = wl.audit_fixture(args.seed)
        for i, case in enumerate(cases):
            (args.work / f"chain{i}.jsonl").write_bytes(case.pop("dump"))
        fixture.write_text(json.dumps(cases))
        print(json.dumps({"fixture_s": time.perf_counter() - STARTED}))
        return 0
    else:
        cases = []
        for i, case in enumerate(json.loads(fixture.read_text())):
            dump = (args.work / f"chain{i}.jsonl").read_bytes()
            if args.corrupt_dump and i == 0:
                dump = wl.corrupt(dump)
            cases.append((config.parse_genesis(case["genesis"].encode()), dump,
                          case["tx"], case["receipt"]))
        # start as a fresh `ledgersim replay` process would: memo cold
        keccak._memo.clear()
        setup_s = time.perf_counter() - STARTED
        out = wl.audit_run(cases, timed)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcome": dataclasses.asdict(out),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, out.heights, out.txs)
        result["spans"] = len(tracer.start)
        tracer.write(args.work / "spans.bin")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
