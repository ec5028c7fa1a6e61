"""The benchmark's own tests: its declaration, its determinism guard and
its checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each run here is the benchmark's full job at --seconds 0, so it makes
the fewest repetitions a run allows; the tests take a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RATIONALE = json.loads((HERE / "rationale.json").read_text())["per_layer"]
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload: str, seed: int, *, trace: int = 0, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def test_declaration_follows_the_format():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_every_layer_metric_is_produced_and_has_a_rationale():
    produced = set(tracing.layer_metrics(tracing.Tracer("t"), 1, 1))
    produced |= {"cli.paper_flow_s", "trace.overhead_s"}
    declared = [m["name"] for m in DECLARED["per_layer"]]
    assert set(declared) == produced
    assert set(RATIONALE) == set(declared)
    known = {"setup_s", "run_ref", "run_s", "heights_per_s", "peak_rss_mb", "tx_per_s",
             "height_ms_p50", "height_ms_p99", "finality_ticks_p50",
             "finality_ticks_p99", "tx_latency_ticks_p50",
             "tx_latency_ticks_p99", "receipt_s"}
    for entry in RATIONALE.values():
        for metric, workload in entry["moves"] + entry["unchanged"]:
            assert metric in known and workload in WORKLOADS


@pytest.mark.parametrize("workload", ["byz_sweep", "tx_flood", "audit"])
def test_same_seed_same_simulation_other_seed_other_digest(workload):
    plain, result = result_of(bench(workload, 5))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    # a traced run repeats the job in fresh processes, traced and not; its
    # checks require one digest and identical exact counters across them
    traced, traced_result = result_of(bench(workload, 5, trace=1))
    assert traced_result["correct"] and traced_result["failed"] == 0
    assert traced["traced_reps"] >= 2
    # tracing changes nothing simulated
    assert plain["digest"] == traced["digest"]
    logical = {k: v for k, v in plain["statistics"].items() if "_ticks_" in k}
    assert logical == {k: v for k, v in traced["statistics"].items() if "_ticks_" in k}

    other, _ = result_of(bench(workload, 6))
    assert other["digest"] != plain["digest"]


def test_a_corrupted_dump_fails_the_audit_checks():
    report, result = result_of(bench("audit", 5, extra=["--corrupt-dump"]))
    assert not result["correct"] and result["failed"] > 0
    assert report["fail_frac"] > 0
    assert any("verdict_ok" in f for f in report["failures"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("byz_sweep", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
