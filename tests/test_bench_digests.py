"""The benchmark's simulated outputs at workload seed 11, pinned.

A workload's digest covers its reference chain dumps and its logical-time
statistics (`perfbench/workloads.Outcome.seal`), so these three hashes
hold the run of every layer the benchmark reaches. A change that claims
byte-identical outputs must leave them as they are. A change that alters
outputs on purpose re-pins them, with the new hashes taken from
`python3 perfbench/run.py --workload W --seed 11 --seconds 0 --trace 0`,
and says so in CHANGES.md.

`perfbench/workloads.py` is loaded by path, as `test_demos._load` loads
a demo, and the audit's cases are built as `perfbench/worker.py` builds
them, though in this process.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ledgersim import config

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
DIGESTS = {
    "byz_sweep": "4a52c0c71d41aeeb564712e1f173f13c00f8b9308b26a668a7d5bbe9af14810f",
    "tx_flood": "99116af40dcf21b42f530ee84ce08dd2626193b7e4ffa357a662649df6184a1b",
    "audit": "94b27f04276a66f339ce972d42c5d8ee9f05ea0542edda2a68a317db7644fe18",
}


@pytest.fixture(scope="module")
def wl():
    name = "perfbench_workloads"  # registered while it runs: its dataclasses look it up
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def audit_cases(wl, seed):
    """The audit's inputs as the worker reads them: the fixture's dumps,
    and the rest of each case through JSON, with the genesis file parsed."""
    fixture = wl.audit_fixture(seed)
    dumps = [case.pop("dump") for case in fixture]
    return [(config.parse_genesis(case["genesis"].encode()), dump, case["tx"], case["receipt"])
            for case, dump in zip(json.loads(json.dumps(fixture)), dumps)]


def outcome(wl, workload):
    if workload == "byz_sweep":
        return wl.byz_run(wl.byz_setup(SEED))
    if workload == "tx_flood":
        return wl.flood_run(wl.flood_setup(SEED))
    return wl.audit_run(audit_cases(wl, SEED))


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_11_gives_the_pinned_digest(wl, workload):
    out = outcome(wl, workload)
    assert out.attempted > 0 and out.failures == []
    assert out.digest == DIGESTS[workload]
