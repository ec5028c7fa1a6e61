"""The benchmark's simulated outputs at workload seed 11, pinned.

A workload's digest covers its reference chain dumps and its logical-time
statistics (`perfbench/workloads.Outcome.seal`), so these three hashes
hold the run of every layer the benchmark reaches. A change that claims
byte-identical outputs must leave them as they are. A change that alters
outputs on purpose re-pins them, with the new hashes taken from
`python3 perfbench/run.py --workload W --seed 11 --seconds 0 --trace 0`,
and says so in CHANGES.md.

Beside them are pinned the Keccak permutations each workload runs, by
width (states per permutation, 1 for the scalar kernel): in its set-up
and in its timed run. The memo is cleared before the set-up, and again
before the audit's run, as `perfbench/worker.py` starts it, so the counts
depend on neither the test order nor the memo's size limit. A change
that batches Keccak differently on purpose re-pins them and says so.

`perfbench/workloads.py` is loaded by path, as `test_demos._load` loads
a demo, and the audit's cases are built as `perfbench/worker.py` builds
them, though in this process. Each workload runs once per session.
"""

import functools
import importlib.util
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from ledgersim import config, keccak

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
DIGESTS = {
    "byz_sweep": "4a52c0c71d41aeeb564712e1f173f13c00f8b9308b26a668a7d5bbe9af14810f",
    "tx_flood": "99116af40dcf21b42f530ee84ce08dd2626193b7e4ffa357a662649df6184a1b",
    "audit": "94b27f04276a66f339ce972d42c5d8ee9f05ea0542edda2a68a317db7644fe18",
}
# workload: (set-up permutations, {width: timed-run permutations})
PERMUTATIONS = {
    "byz_sweep": (269, {1: 1545}),
    "tx_flood": (35, {1: 186, 2: 8, 4: 102, 8: 40, 16: 174, 32: 208, 64: 18,
                      128: 30, 256: 27}),
    "audit": (2067, {1: 54, 2: 1, 4: 7, 8: 5, 32: 1, 64: 9, 128: 10, 256: 48}),
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


@contextmanager
def permutations(counts: Counter):
    """Count into `counts`, by width, the Keccak permutations run inside."""
    scalar, packed = keccak._f1600, keccak._f1600_packed

    def f1600(lanes):
        counts[1] += 1
        return scalar(lanes)

    def f1600_packed(lanes, rcs, masks):
        counts[masks[-1].bit_length() // 64] += 1  # the last mask is one per state
        return packed(lanes, rcs, masks)

    keccak._f1600, keccak._f1600_packed = f1600, f1600_packed
    try:
        yield
    finally:
        keccak._f1600, keccak._f1600_packed = scalar, packed


@functools.cache
def _run(wl, workload):
    """The workload's outcome, its set-up's permutations and its run's by width."""
    setup, run = Counter(), Counter()
    keccak._memo.clear()
    with permutations(setup):
        if workload == "byz_sweep":
            inputs, go = wl.byz_setup(SEED), wl.byz_run
        elif workload == "tx_flood":
            inputs, go = wl.flood_setup(SEED), wl.flood_run
        else:
            inputs, go = audit_cases(wl, SEED), wl.audit_run
            keccak._memo.clear()  # the audit starts as a fresh process would
    with permutations(run):
        out = go(inputs)
    return out, sum(setup.values()), dict(run)


def outcome(wl, workload):
    return _run(wl, workload)[0]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_11_gives_the_pinned_digest(wl, workload):
    out = outcome(wl, workload)
    assert out.attempted > 0 and out.failures == []
    assert out.digest == DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(PERMUTATIONS))
def test_seed_11_runs_the_pinned_permutations(wl, workload):
    _, setup, run = _run(wl, workload)
    assert (setup, run) == PERMUTATIONS[workload]
