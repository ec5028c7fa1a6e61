"""The benchmark's seeded workloads: input generation, the timed phase and
the output checks.

Every input is derived from the workload seed, so one seed always gives
the same simulated run. A workload returns its host timings (which vary)
separately from its simulated outcome (which must not): the logical-time
statistics and a digest of the reference chain dump. The program is
reached only through the public API of the ``ledgersim`` package, and
calls go through module attributes so that a traced run can wrap them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ledgersim import config, crypto, errors, model, replay
from ledgersim.netsim import Behavior, ByzantineSpec
from ledgersim.simulation import Simulation

# Work done by one repetition. One seeded history can take 10% more or
# less work than the next, so a repetition covers several, each seeded
# from the workload seed; the job's work then varies about 1% from one
# workload seed to the next on the sweep and 5% on the flood. 20 sweep
# simulations give the 1,000 heights that a p99 of host time per height
# needs.
BYZ_SIMS = 20           # simulations per byz_sweep repetition
BYZ_HEIGHT = 50         # each runs to this minimum honest height
BYZ_CAP = 10_000        # logical-time cap; a seed still short of it has stalled
FLOOD_SIMS = 2          # simulations per tx_flood repetition
FLOOD_TXS = 3000        # client transactions in each
AUDIT_DUMPS = 3         # chain dumps audited per audit repetition
AUDIT_TXS = 1000        # client transactions in each
FLOOD_RATE = 4.0        # Poisson arrivals per logical tick
FLOOD_CAP = 20_000      # logical-time cap for the flood to drain
QUERY_EVERY = 50        # one getBalance query per this many transactions
REF_DUTY = 0.03         # reference work, as a share of the timed phase's time
REF_ITERATIONS = 6000   # one reference chunk, a millisecond or two
REF_TABLE = 1 << 16     # entries of the list a reference chunk reads

KEY_COUNT = 6           # four validators, the organization, one spare
ORG_INDEX = 4


def instance_seeds(seed: int, count: int) -> range:
    """Consecutive simulation seeds, disjoint between workload seeds."""
    return range(seed * count, seed * count + count)


def genesis_for(seed: int, *, gst: int, delta: int, pre_gst_max_delay: int,
                pre_gst_loss_prob: float) -> config.GenesisConfig:
    """Four validators plus an organization key, all derived from `seed`."""
    keys = tuple(hashlib.sha256(b"perfbench-key:%d:%d" % (seed, i)).digest()
                 for i in range(KEY_COUNT))
    provider = config.KeyProvider(keys, "http://localhost:8545", 0, KEY_COUNT - 1)
    return config.GenesisConfig(
        network_id=1337, validators=keys[:4], block_gas_limit=4_500_000,
        gas_price=0, gst=gst, delta=delta, pre_gst_max_delay=pre_gst_max_delay,
        pre_gst_loss_prob=pre_gst_loss_prob, seed=seed, base_round_timeout=30,
        key_provider=provider)


def chain_dump(sim: Simulation) -> bytes:
    """The reference node's chain in the `ledgersim run` chain.jsonl format."""
    blocks = sim.reference_node().chain.blocks
    return "".join(json.dumps(model.block_to_json(b), sort_keys=True) + "\n"
                   for b in blocks).encode("utf-8")


@functools.cache
def reference_table() -> list[int]:
    return list(range(REF_TABLE))


def reference_chunk() -> int:
    """A fixed loop of dependent reads from a list, with integer work
    between them. It is no part of the program, so no change to the
    program changes its time: its time follows the host's speed alone.
    Of the loops tried, its time swings closest to the workloads' own
    when the host's speed swings: about 1.5x against their 1.35-1.4x,
    where a loop of arithmetic and dict stores swung 1.7-1.9x."""
    table, acc = reference_table(), 0
    mask = len(table) - 1
    for i in range(REF_ITERATIONS):
        acc = (acc * 0x9E3779B1 + i) & 0xFFFFFFFF
        acc ^= table[acc & mask]
    return acc


@dataclass
class Outcome:
    """What one repetition of a workload produced."""
    timed_s: float = 0.0
    heights: int = 0
    txs: int = 0
    # host seconds of each piece of the timed phase, by phase: a height on
    # the sweep, a tick on the flood, a dump on the audit. The simulation
    # is deterministic, so every repetition has the same pieces.
    parts: dict = field(default_factory=dict)
    # reference chunks run between the pieces until they add up to
    # REF_DUTY of the timed time, so that they see the same host speed as
    # the pieces around them: their total and each one's seconds
    ref_s: float = 0.0
    ref_chunk_s: list = field(default_factory=list)
    logical: dict = field(default_factory=dict)   # simulated statistics
    attempted: int = 0
    failures: list = field(default_factory=list)  # names of the checks that failed
    digest: str = ""

    def piece(self, phase: str, seconds: float) -> None:
        """Record a piece of the timed phase, then catch up on reference
        chunks."""
        self.parts.setdefault(phase, []).append(seconds)
        self.timed_s += seconds
        clock = time.perf_counter
        while self.ref_s < REF_DUTY * self.timed_s:
            t0 = clock()
            reference_chunk()
            self.ref_chunk_s.append(clock() - t0)
            self.ref_s += self.ref_chunk_s[-1]

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def extend(self, key: str, values: list) -> None:
        self.logical.setdefault(key, []).extend(values)

    def seal(self, *parts: bytes) -> None:
        h = hashlib.sha256()
        for part in parts:
            h.update(part)
        h.update(json.dumps(self.logical, sort_keys=True).encode())
        self.digest = h.hexdigest()


# --- byz_sweep ---------------------------------------------------------------

def byz_setup(seed: int) -> list[Simulation]:
    sims = []
    for sim_seed in instance_seeds(seed, BYZ_SIMS):
        genesis = genesis_for(sim_seed, gst=100, delta=5, pre_gst_max_delay=50,
                              pre_gst_loss_prob=0.1)
        sim = Simulation(genesis, horizon=BYZ_CAP, collect_traces=False)
        sim.inject_fault(ByzantineSpec(sim.config.validators[0],
                                       Behavior.EQUIVOCATE))
        sims.append(sim)
    return sims


def byz_run(sims: list[Simulation], timed=nullcontext) -> Outcome:
    """Run each simulation to BYZ_HEIGHT, timing every height (one piece).

    Each simulation is checked and released as soon as it has run (the
    list is emptied), so one run's objects do not weigh on the next.
    """
    out = Outcome()
    ticks: list[int] = []
    dumps = []
    clock = time.perf_counter
    while sims:
        sim = sims.pop(0)
        last_now = 0
        with timed():
            for h in range(1, BYZ_HEIGHT + 1):
                t0 = clock()
                if not sim.run_until_min_height(h, cap=BYZ_CAP):
                    break
                out.piece("run", clock() - t0)
                ticks.append(sim.queue.now - last_now)
                last_now = sim.queue.now

        honest = sim.honest_addresses()
        common = min(sim.finalized_height(a) for a in honest)
        ref = sim.nodes[honest[0]].chain
        out.check(f"seed{sim.seed}.reached", common >= BYZ_HEIGHT)
        out.check(f"seed{sim.seed}.safe", sim.safety_violation is None)
        out.check(f"seed{sim.seed}.roots", all(
            sim.nodes[a].chain.blocks[h].state_root == ref.blocks[h].state_root
            for a in honest for h in range(common + 1)))
        out.heights += common
        dumps.append(chain_dump(sim))

    out.logical = {"finality_ticks": ticks}
    out.seal(*dumps)
    return out


# --- tx_flood ------------------------------------------------------------------

@dataclass
class FloodPlan:
    """An open-loop client schedule with each transaction's predicted receipt."""
    txs: list[tuple[int, object, str]]     # (submit tick, payload, expected status)
    queries: list[int]                     # ticks of getBalance queries
    funded: list[tuple[int, int]]          # (tick, cumulative addFunds) steps
    org_balance: int                       # expected final organization balance


def flood_plan(seed: int, n_txs: int) -> FloodPlan:
    """Poisson arrivals at FLOOD_RATE per tick from one organization sender,
    open loop: every transaction is scheduled in logical time before the
    run starts, so the generator is never late.

    The mix is about 40% addRecipient, 15% registerBankAccount, 20%
    addFunds, 22% sendAllowance to a known recipient and 3% sendAllowance
    to an unknown one, which fails with UnknownRecipient. The sender's
    nonces serialize execution in schedule order, so the benchmark's own
    tally predicts every receipt.
    """
    rng = random.Random(f"perfbench-flood:{seed}")
    txs: list[tuple[int, object, str]] = [(0, model.Deploy(), "SUCCESS")]
    queries: list[int] = []
    funded: list[tuple[int, int]] = []
    recipients: list[model.Address] = []
    balance = total_funds = 0
    tick = 0
    while len(txs) < n_txs:
        tick += 1
        arrivals = 0
        # Poisson(FLOOD_RATE) arrivals in this tick, by exponential gaps
        gap = rng.expovariate(FLOOD_RATE)
        while gap < 1.0:
            arrivals += 1
            gap += rng.expovariate(FLOOD_RATE)
        for _ in range(min(arrivals, n_txs - len(txs))):
            roll = rng.random()
            if roll < 0.40 or not recipients:
                addr = model.Address(rng.randbytes(20))
                recipients.append(addr)
                txs.append((tick, model.AddRecipient(addr), "SUCCESS"))
            elif roll < 0.55:
                addr = rng.choice(recipients)
                account = f"IBAN-{rng.randrange(10**8):08d}"
                txs.append((tick, model.RegisterBankAccount(addr, account), "SUCCESS"))
            elif roll < 0.75 or balance == 0:
                amt = rng.randrange(100, 10_000)
                balance += amt
                total_funds += amt
                funded.append((tick, total_funds))
                txs.append((tick, model.AddFunds(model.Amount(amt)), "SUCCESS"))
            elif roll < 0.97:
                amount = rng.randrange(1, min(balance, 500) + 1)
                balance -= amount
                txs.append((tick, model.SendAllowance(rng.choice(recipients),
                                                      model.Amount(amount)), "SUCCESS"))
            else:
                stranger = model.Address(rng.randbytes(20))
                txs.append((tick, model.SendAllowance(stranger, model.Amount(1)),
                            "FAILED UnknownRecipient"))
            if len(txs) % QUERY_EVERY == 0:
                queries.append(tick)
    return FloodPlan(txs, queries, funded, balance)


def flood_sim(seed: int, n_txs: int, *, delta: int = 5,
              silent_v3: bool = True) -> tuple[Simulation, FloodPlan]:
    plan = flood_plan(seed, n_txs)
    genesis = genesis_for(seed, gst=0, delta=delta, pre_gst_max_delay=0,
                          pre_gst_loss_prob=0.0)
    sim = Simulation(genesis, horizon=FLOOD_CAP, collect_traces=False)
    if silent_v3:
        # every fourth proposer turn times out while transactions keep coming
        sim.inject_fault(ByzantineSpec(sim.config.validators[3], Behavior.SILENT))
    org = crypto.KeyPair.from_seed(sim.genesis.key_provider.private_keys[ORG_INDEX])
    for label, (tick, payload, _) in enumerate(plan.txs):
        sim.schedule_tx(tick, org, payload, label=label)
    for tick in plan.queries:
        sim.schedule_query(tick, org.address)
    return sim, plan


def flood_drive(sim: Simulation, n_txs: int,
                out: Outcome | None = None) -> dict[int, int]:
    """Step logical time one tick at a time until the reference node has
    finalized every scheduled transaction, recording each tick as a piece
    of `out`; returns the tick at which each height finalized."""
    ref = sim.reference_node().chain
    final_tick: dict[int, int] = {}
    finalized_txs = 0
    tick = 0
    clock = time.perf_counter
    while finalized_txs < n_txs and tick <= FLOOD_CAP:
        t0 = clock()
        sim.run(until=tick)
        if out is not None:
            out.piece("run", clock() - t0)
        for h in range(len(final_tick) + 1, ref.head_height + 1):
            final_tick[h] = tick
            finalized_txs += len(ref.blocks[h].txs)
        tick += 1
    return final_tick


def flood_setup(seed: int) -> list[tuple[Simulation, FloodPlan]]:
    return [flood_sim(s, FLOOD_TXS) for s in instance_seeds(seed, FLOOD_SIMS)]


def flood_check(sim: Simulation, plan: FloodPlan, final_tick: dict[int, int],
                out: Outcome) -> None:
    """Receipts, balance, conservation and root agreement after a flood."""
    tag = f"seed{sim.seed}."
    ref = sim.reference_node().chain
    head = ref.head_height
    out.check(tag + "honest_nodes_catch_up",
              sim.run_until_min_height(head, cap=sim.queue.now + 1000))
    honest = sim.honest_addresses()
    common = min(head, sim.min_honest_height())
    out.check(tag + "honest_roots_converge", all(
        sim.nodes[a].chain.blocks[h].state_root == ref.blocks[h].state_root
        for a in honest for h in range(common + 1)))
    out.check(tag + "conservation", all(sim.conservation_ok(a) for a in honest))
    out.check(tag + "safe", sim.safety_violation is None)

    org = ref.head_ledger.contract.organization
    balance = int(ref.head_ledger.contract.balances.get(org, 0))
    out.check(tag + "org_balance_matches_tally", balance == plan.org_balance)

    label_of = {s["txHash"]: s["label"] for s in sim.submissions}
    seen: dict[int, tuple[int, str]] = {}
    for h in range(1, head + 1):
        for receipt in ref.receipts_by_height[h]:
            label = label_of.get(model.hx(receipt.tx_hash))
            status = receipt.status.value
            if receipt.error is not None:
                status += " " + receipt.error.value
            if label is not None and label not in seen:
                seen[label] = (h, status)
    latency = []
    for label, (tick, _, expected) in enumerate(plan.txs):
        got = seen.get(label)
        out.check(f"{tag}tx{label}", got is not None and got[1] == expected)
        if got is not None:
            latency.append(final_tick[got[0]] - tick)

    ok_queries = len(sim.queries) == len(plan.queries)
    for query in sim.queries:
        cap = max([total for tick, total in plan.funded if tick <= query["time"]],
                  default=0)
        # a query may reach a node before the deployment is final there
        ok_queries = ok_queries and all(
            v["value"] == "NotDeployed" or 0 <= int(v["value"]) <= cap
            for v in query["values"])
    out.check(tag + "queries", ok_queries)

    out.heights += head
    out.txs += len(seen)
    out.extend("tx_latency_ticks", latency)
    out.extend("finality_ticks", [final_tick[h] - final_tick.get(h - 1, 0)
                                  for h in range(1, head + 1)])
    out.extend("queries", [[q["time"], [v["value"] for v in q["values"]]]
                           for q in sim.queries])


def flood_run(floods: list[tuple[Simulation, FloodPlan]], timed=nullcontext) -> Outcome:
    """Drive each flood; like byz_run, it empties the list as it goes."""
    out = Outcome()
    dumps = []
    while floods:
        sim, plan = floods.pop(0)
        with timed():
            final_tick = flood_drive(sim, len(plan.txs), out)
        flood_check(sim, plan, final_tick, out)
        dumps.append(chain_dump(sim))
    out.seal(*dumps)
    return out


# --- audit ------------------------------------------------------------------------

def audit_fixture(seed: int) -> list[dict]:
    """Simulate tx_flood-style runs and return what an auditor is handed
    for each: the genesis file, the chain dump, the hash of the last
    transaction and the receipt the simulation gave it."""
    cases = []
    for case_seed in instance_seeds(seed, AUDIT_DUMPS):
        # A lossless one-tick network with no faulty validator gives every
        # dump the same block cadence, so the audit's work (a state root
        # per height) does not swing with the seed's consensus timing.
        sim, plan = flood_sim(case_seed, AUDIT_TXS, delta=1,
                              silent_v3=False)
        flood_drive(sim, len(plan.txs))
        ref = sim.reference_node().chain
        last = next(b for b in reversed(ref.blocks) if b.txs)
        tx_hash = model.tx_hash(last.txs[-1])
        receipt = model.receipt_to_json(ref.receipts[tx_hash])
        receipt["height"] = last.height
        cases.append({"genesis": config.emit_genesis(sim.genesis).decode(),
                      "dump": chain_dump(sim), "tx": model.hx(tx_hash),
                      "receipt": receipt})
    return cases


def corrupt(dump: bytes) -> bytes:
    """Flip one hex digit of the middle block's state root."""
    lines = dump.split(b"\n")
    mid = len(lines) // 2
    at = lines[mid].index(b'"stateRoot": "0x') + len(b'"stateRoot": "0x')
    line = bytearray(lines[mid])
    line[at] = ord("1") if line[at] != ord("1") else ord("2")
    lines[mid] = bytes(line)
    return b"\n".join(lines)


def audit_run(cases: list[tuple[config.GenesisConfig, bytes, str, dict]],
              timed=nullcontext) -> Outcome:
    """Audit each dump, then look up the receipt of its last transaction."""
    out = Outcome()
    clock = time.perf_counter
    results = []
    with timed():
        for genesis, dump, tx, _ in cases:
            t0 = clock()
            try:
                verdict = str(replay.replay_chain(genesis, dump))
            except errors.CorruptDump as exc:  # a failed check, not a crash
                verdict = f"CORRUPT: {exc}"
            out.piece("replay", clock() - t0)
            t0 = clock()
            try:
                receipt = replay.receipt_from_dump(genesis, dump, model.unhx(tx))
            except errors.CorruptDump as exc:
                receipt = f"CORRUPT: {exc}"
            out.piece("receipt", clock() - t0)
            results.append((verdict, receipt))
    for i, ((_, dump, _, expected), (verdict, receipt)) in enumerate(zip(cases, results)):
        out.check(f"dump{i}.verdict_ok", verdict == "OK")
        out.check(f"dump{i}.receipt_matches_simulation", receipt == expected)
        out.heights += dump.count(b"\n") - 1
        out.txs += dump.count(b'"nonce":')
        out.extend("verdicts", [verdict])
        out.extend("receipts", [receipt])
    out.seal(*(dump for _, dump, _, _ in cases))
    return out
