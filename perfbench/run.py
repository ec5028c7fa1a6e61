"""The ledgersim benchmark.

    python3 perfbench/run.py --workload {byz_sweep,tx_flood,audit}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing is installed. Each
repetition runs in a fresh interpreter (worker.py), one at a time, so the
process-global Keccak memo and the peak RSS belong to that repetition
alone. Repetitions repeat the same seeded work until S seconds are used
(at least three). The timed phase is reported in units of a fixed
reference chunk of pure-Python work that runs between its pieces (a
height, a tick, a dump), as run_ref, and in seconds, as run_s. Each
figure is a median over the repetitions. Every repetition
must produce the same simulated outcome: its digest covers the reference
chain dump and the logical-time statistics.

The audit's chain dump is simulated once per run, before the
repetitions, by a process of its own; each repetition then audits it in
a fresh process, as `ledgersim replay` would.

Before the repetitions, `ledgersim run` on scenarios/paper_flow.json runs
twice through the CLI entry point and must exit 0 with byte-identical
artifacts.

The last line printed is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced run (--trace 1). The line before it holds every
statistic of the run, the per-repetition figures and the provenance
(Python, nproc, machine, git revision, a hash of src/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("byz_sweep", "tx_flood", "audit")
MIN_REPS = 3           # untraced repetitions per run
MIN_TRACED_REPS = 2    # traced repetitions, each after an untraced one
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170      # start no repetition that could end after this


class RepFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SIM_SEED", None)  # it would override the CLI smoke check's --seed
    return env


def run_child(args: list[str]) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"worker {args[0]} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def cli_smoke(work: Path) -> tuple[bool, list[float]]:
    """`ledgersim run` on paper_flow twice: exit 0 and identical artifacts."""
    seconds, outputs = [], []
    for tag in ("a", "b"):
        out = work / f"cli_{tag}"
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ledgersim.cli", "run",
             "--genesis", str(ROOT / "scenarios" / "genesis_paper.json"),
             "--scenario", str(ROOT / "scenarios" / "paper_flow.json"),
             "--seed", "42", "--out", str(out)],
            cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
        seconds.append(time.perf_counter() - started)
        files = sorted(out.iterdir()) if out.is_dir() else []
        outputs.append((proc.returncode,
                        {f.name: f.read_bytes() for f in files}))
    ok = (all(code == 0 for code, _ in outputs) and bool(outputs[0][1])
          and outputs[0][1] == outputs[1][1])
    return ok, seconds


def provenance() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        revision = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        revision = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu,
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(1, int(rank)) - 1]


def statistics_of(workload: str, reps: list[dict]) -> dict:
    """Every end-to-end statistic that applies to the workload, from the
    untraced repetitions: {name: (value, unit)}."""
    outs = [r["outcome"] for r in reps]
    first = outs[0]
    med = statistics.median

    def phase_s(phase: str) -> float:
        return med(sum(o["parts"][phase]) for o in outs)

    run_s = med(o["timed_s"] for o in outs)
    # the audit's throughput is that of replay_chain; the flood and the
    # sweep count everything in their timed phase
    through = phase_s("replay") if workload == "audit" else run_s
    stats = {
        "setup_s": (med(r["setup_s"] for r in reps), "s"),
        # The host's speed swings, and the program's time by up to 1.45x,
        # for seconds to minutes at a time, so run_s spreads from run to run by more than any bound
        # a later change could be held to. run_ref is the timed phase in
        # units of a fixed reference chunk that ran between its pieces, at
        # the same host speed. The chunk's median time drops the chunks
        # that a stall of the host hit.
        "run_ref": (med(o["timed_s"] / med(o["ref_chunk_s"]) for o in outs),
                    "ref"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
    }
    if workload != "tx_flood":
        stats["heights_per_s"] = (first["heights"] / through, "1/s")
    if workload != "byz_sweep":
        stats["tx_per_s"] = (first["txs"] / through, "1/s")
    if workload == "byz_sweep":
        height_ms = [x * 1000.0 for o in outs for x in o["parts"]["run"]]
        stats["height_ms_p50"] = (percentile(height_ms, 50), "ms")
        stats["height_ms_p99"] = (percentile(height_ms, 99), "ms")
    for name in ("finality_ticks", "tx_latency_ticks"):
        values = first["logical"].get(name)
        if values:
            stats[f"{name}_p50"] = (percentile(values, 50), "ticks")
            stats[f"{name}_p99"] = (percentile(values, 99), "ticks")
    if workload == "audit":
        stats["receipt_s"] = (phase_s("receipt"), "s")
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-dump", action="store_true",
                        help="audit a dump with one byte changed, so the "
                             "checks must fail")
    args = parser.parse_args()

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "ledgersim" / "__init__.py",
              ROOT / "scenarios" / "paper_flow.json",
              ROOT / "scenarios" / "genesis_paper.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a ledgersim checkout, missing {missing}",
              file=sys.stderr)
        return 2

    # on SIGTERM unwind as on an error: subprocess.run kills and reaps the
    # running worker, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    attempted = failed = 0
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(name)

    try:
        smoke_ok, smoke_s = cli_smoke(work)
        check("cli.paper_flow.exit0_and_identical", smoke_ok)
        common = ["--seed", str(args.seed), "--work", str(work)]
        fixture_s = None
        if args.workload == "audit":
            try:
                fixture_s = run_child(["audit_fixture", *common])["fixture_s"]
            except (RepFailed, subprocess.TimeoutExpired) as exc:
                print(f"perfbench: the audit's chain dump failed: {exc}", file=sys.stderr)
                return 1
            if args.corrupt_dump:
                common.append("--corrupt-dump")

        plain: list[dict] = []   # untraced repetitions
        traced: list[dict] = []
        durations: list[float] = []
        done = traced if args.trace else plain
        minimum = MIN_TRACED_REPS if args.trace else MIN_REPS
        while True:
            # a traced run alternates untraced and traced repetitions, so
            # that their difference is the tracing overhead
            tracing_now = bool(args.trace) and len(plain) > len(traced)
            elapsed = time.monotonic() - started
            if len(done) >= minimum and elapsed + statistics.median(durations) > args.seconds:
                break
            if durations and elapsed + max(durations) > RUN_LIMIT_S:
                break
            name = f"rep{len(plain) + len(traced)}"
            t0 = time.monotonic()
            try:
                rep = run_child([args.workload, *common] + (["--trace"] if tracing_now else []))
            except (RepFailed, subprocess.TimeoutExpired, ValueError) as exc:
                check(f"{name}.completed: {exc}", False)
                break
            durations.append(time.monotonic() - t0)
            (traced if tracing_now else plain).append(rep)
            check(f"{name}.completed", True)
            out = rep["outcome"]
            attempted += out["attempted"]
            failed += len(out["failures"])
            failures.extend(f"{name}.{check_name}" for check_name in out["failures"])

        reps = plain + traced
        if not plain or (args.trace and not traced):
            print(f"perfbench: no repetition completed: {failures}", file=sys.stderr)
            return 1
        # a run cut short by RUN_LIMIT_S or a failed repetition has too few
        # samples for its figures and its repeat checks
        check(f"at_least_{minimum}_reps", len(done) >= minimum)
        check("deterministic_across_reps",
              len({r["outcome"]["digest"] for r in reps}) == 1)

        stats = statistics_of(args.workload, plain)
        report = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "digest": plain[0]["outcome"]["digest"],
            "reps": len(plain), "traced_reps": len(traced),
            "timed_s": [r["outcome"]["timed_s"] for r in plain],
            "statistics": {k: {"value": v, "unit": u} for k, (v, u) in stats.items()},
            "heights": plain[0]["outcome"]["heights"],
            "txs": plain[0]["outcome"]["txs"],
            "pieces": {k: len(v) for k, v in plain[0]["outcome"]["parts"].items()},
            "cli_paper_flow_s": smoke_s,
            "audit_fixture_s": fixture_s,
            "provenance": provenance(),
        }

        if args.trace:
            layers = [r["layers"] for r in traced]
            exact = [k for k in layers[0] if not k.endswith(("busy_s", "mb_per_s"))]
            check("exact_counters_repeat",
                  all(l[k] == layers[0][k] for l in layers for k in exact))
            metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
            metrics.update({k: layers[0][k] for k in exact})
            metrics["cli.paper_flow_s"] = statistics.median(smoke_s)
            metrics["trace.overhead_s"] = (
                statistics.median(r["outcome"]["timed_s"] for r in traced)
                - statistics.median(r["outcome"]["timed_s"] for r in plain))
            report["spans"] = traced[-1]["spans"]
            spans = work / "spans.bin"  # the last traced repetition's
            keep = ROOT / ".perfbench_out" / f"spans-{args.workload}.bin"
            keep.parent.mkdir(exist_ok=True)
            shutil.move(spans, keep)
            report["spans_file"] = str(keep.relative_to(ROOT))
            result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                              for m in declared["per_layer"]}
        else:
            result_metrics = {m["name"]: {"value": stats[m["name"]][0], "unit": m["unit"]}
                              for m in declared["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    report["fail_frac"] = failed / attempted
    report["failures"] = failures[:20]
    print(json.dumps({"perfbench": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
