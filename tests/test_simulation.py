"""Simulation run loop: the seed range, client intake, the client-transaction
prehash at start(), the minimum-height stop rule, the safety checker, and
runs of seven validators with two faulty, and a late-GST safety sweep.

`Simulation.start()` batch-hashes the unsigned encoding and bank-account
string of every scheduled client transaction, guessing the nonces
`build_tx` will give. A wrong guess must cost only a memo miss: the twin
tests schedule the same commands before start() (prehashed) and after it
(hashed one at a time when built) and require identical outputs,
including the cases where the guess is wrong.
"""

import gc
import json
import weakref
from dataclasses import replace

import pytest

from ledgersim import contract, keccak, model
from ledgersim.deploy import migrate_deploy
from ledgersim.errors import InvalidRange
from ledgersim.model import (
    AddFunds, AddRecipient, Amount, Block, Deploy, Hash256, RegisterBankAccount,
    SendAllowance, Signature, block_hash, block_to_json, hx,
)
from ledgersim.netsim import Behavior, ByzantineSpec
from ledgersim.scenario import parse_scenario, run_scenario
from ledgersim.simulation import Simulation, make_genesis_block

from bft_monitor import install as install_monitor
from conftest import make_genesis

TWIN_SEED = 3


@pytest.fixture(autouse=True)
def cold_memo():
    keccak._memo.clear()
    yield
    keccak._memo.clear()


@pytest.fixture()
def lookups(monkeypatch):
    """{module: [(input, memoized before the call)]} for every scalar
    Keccak call of `model` (`tx_hash`) and `contract`
    (`register_bank_account`)."""
    seen = {}
    for module in (model, contract):
        calls = seen[module.__name__.rsplit(".", 1)[1]] = []

        def spy(data, calls=calls):
            calls.append((data, data in keccak._memo))
            return keccak.keccak256(data)

        monkeypatch.setattr(module, "keccak256", spy)
    return seen


def new_sim():
    return Simulation(make_genesis(seed=TWIN_SEED, gst=0), horizon=400)


def org_commands(sim, start_at=6):
    """The paper flow plus a second bank account and an empty one, from
    validator 0 as the organization, one or two commands a tick."""
    org, r1, r2 = sim.validator_keys[:3]
    payloads = [Deploy(), AddRecipient(r1.address), AddRecipient(r2.address),
                RegisterBankAccount(r1.address, "IBAN-0001"), AddFunds(Amount(1000)),
                RegisterBankAccount(r2.address, "IBAN-0002"),
                SendAllowance(r1.address, Amount(300)),
                RegisterBankAccount(r2.address, ""), AddFunds(Amount(50)),
                SendAllowance(r2.address, Amount(700))]
    return [(start_at + i // 2, org, p) for i, p in enumerate(payloads)]


def start_event_times():
    sim = new_sim()
    sim.start()
    return {ev.time for ev in sim.queue.pending()}


def run_twin(commands, *, prehashed, late=None, before_run=None):
    """Schedule `commands` before start() if `prehashed`, else after it;
    then schedule `late` (always after start()), call `before_run`, run
    to the horizon and return what the run produced."""
    sim = new_sim()
    cmds = commands(sim)
    # start() schedules its own events; a command at the same time would
    # be ordered against them by scheduling order, which the twins differ in
    assert not {at for at, _, _ in cmds} & start_event_times()
    if not prehashed:
        sim.start()
    for label, (at, key, payload) in enumerate(cmds):
        sim.schedule_tx(at, key, payload, label=label)
    sim.start()
    for label, (at, key, payload) in enumerate(late(sim) if late else (), len(cmds)):
        sim.schedule_tx(at, key, payload, label=label)
    if before_run is not None:
        before_run(sim)
    sim.run()
    honest = sim.honest_addresses()
    return {
        "submissions": sim.submissions,
        "chain": [json.dumps(block_to_json(b), sort_keys=True)
                  for b in sim.reference_node().chain.blocks],
        "roots": {a: [b.state_root for b in sim.nodes[a].chain.blocks] for a in honest},
        "nonces": sim.client_nonces,
    }


def assert_twins_agree(commands, **kwargs):
    prehashed = run_twin(commands, prehashed=True, **kwargs)
    keccak._memo.clear()
    unhashed = run_twin(commands, prehashed=False, **kwargs)
    assert prehashed == unhashed
    # the run did something worth comparing
    assert len(prehashed["submissions"]) >= len(commands(new_sim()))
    assert len(prehashed["chain"]) > 2
    assert all(rec["accepted"][0]["ok"] for rec in prehashed["submissions"])
    return prehashed


class TestPrehashTwins:
    def test_commands_before_and_after_start_agree(self, lookups):
        out = assert_twins_agree(org_commands)
        assert out["nonces"] == {new_sim().validator_keys[0].address: 10}
        # the prehashed twin's tx hashes hit the memo; the other's do not
        assert [hit for _, hit in lookups["model"]] == [True] * 10 + [False] * 10

    def test_earlier_tx_scheduled_after_start(self, lookups):
        """A command scheduled after start() ahead of the prehashed ones
        takes their guessed nonces, so every guess is wrong."""
        def late(sim):
            return [(2, sim.validator_keys[0], AddFunds(Amount(5)))]
        out = assert_twins_agree(org_commands, late=late)
        assert len(out["submissions"]) == len(org_commands(new_sim())) + 1
        assert [hit for _, hit in lookups["model"]] == [False] * 22

    def test_migrate_deploy_before_the_scheduled_txs(self, lookups):
        """An out-of-band deployment takes nonce 0 before the scheduled
        commands run."""
        def commands(sim):
            return org_commands(sim, start_at=200)[1:]  # no Deploy of their own
        out = assert_twins_agree(
            commands, before_run=lambda sim: migrate_deploy(sim, sim.validator_keys[0]))
        assert out["submissions"][0]["label"] == -1  # the deployment
        assert list(out["nonces"].values()) == [10]
        assert [hit for _, hit in lookups["model"]] == [False] * 20

    def test_two_senders_interleaved_at_equal_times(self, lookups):
        """Two senders' commands share ticks; the seq order of scheduling
        decides each sender's nonces."""
        def commands(sim):
            org, r1, other = sim.validator_keys[0], sim.validator_keys[1], sim.validator_keys[2]
            cmds = []
            for i, (at, _, payload) in enumerate(org_commands(sim)):
                cmds.append((at, org, payload))
                cmds.append((at, other, AddRecipient(r1.address) if i % 2
                             else RegisterBankAccount(r1.address, f"OTHER-{i}")))
            return cmds
        out = assert_twins_agree(commands)
        assert sorted(out["nonces"].values()) == [10, 10]
        assert [hit for _, hit in lookups["model"]] == [True] * 20 + [False] * 20


class TestPrehashMechanism:
    def test_every_scheduled_digest_is_a_memo_hit(self, lookups):
        sim = new_sim()
        for label, (at, key, payload) in enumerate(org_commands(sim)):
            sim.schedule_tx(at, key, payload, label=label)
        sim.run()
        accounts = {p.account.encode("utf-8")
                    for _, _, p in org_commands(sim)
                    if isinstance(p, RegisterBankAccount) and p.account}
        assert len(sim.submissions) == 10
        assert len(lookups["model"]) == 10  # one per built transaction
        assert {data for data, _ in lookups["contract"]} == accounts
        assert all(hit for calls in lookups.values() for _, hit in calls)

    def test_a_tx_scheduled_after_start_is_hashed_when_built(self, lookups):
        sim = new_sim()
        sim.start()
        key = sim.validator_keys[0]
        sim.schedule_tx(6, key, Deploy())
        sim.run()
        assert [hit for _, hit in lookups["model"]] == [False]


class TestSeedRange:
    @pytest.mark.parametrize("genesis_seed, seed", [(42, 1 << 64), (42, -1), (1 << 64, None)],
                             ids=["override_2_64", "override_negative", "genesis_2_64"])
    def test_a_seed_outside_64_bits_is_refused(self, genesis_seed, seed):
        """The seed a run uses, the override or the genesis config's, must
        lie in [0, 2**64); the CLI's refusal of `--seed` and `SIM_SEED` is
        this one."""
        with pytest.raises(InvalidRange, match="seed must fit in 64 bits"):
            Simulation(make_genesis(seed=genesis_seed), seed=seed)

    def test_the_extremes_of_the_range_run(self):
        for seed in (0, (1 << 64) - 1):
            assert Simulation(make_genesis(), seed=seed).seed == seed


class TestClientIntake:
    def test_submission_reaches_every_mempool_and_sends_nothing(self):
        sim = new_sim()
        sim.start()
        queued, rows = len(sim.queue), len(sim.traces.network)
        tx = sim.build_tx(sim.validator_keys[0], Deploy())
        record = sim.submit_to_all(tx)
        assert [a["ok"] for a in record["accepted"]] == [True] * 4
        for node in sim.nodes.values():
            assert tx in node.mempool.pending.values()
        assert (len(sim.queue), len(sim.traces.network)) == (queued, rows)


class TestScheduledCalls:
    def test_pending_calls_keep_no_finished_simulation_alive(self):
        """A scheduled call takes the simulation as its argument and holds
        no reference to it, so dropping the last reference frees a run
        with calls still pending, without the cyclic collector."""
        sim = new_sim()
        org = sim.validator_keys[0]
        sim.schedule_tx(1000, org, Deploy())
        sim.schedule_query(1000, org.address)
        sim.schedule_fault(1000, ByzantineSpec(sim.config.validators[3], Behavior.SILENT))
        sim.schedule_set_gst(1000)
        gc.disable()
        try:
            sim.run(until=200)
            # stop just after a finalization, so a height start is pending too
            assert sim.run_until_min_height(sim.min_honest_height() + 1)
            assert [ev.time for ev in sim.queue.pending()][-4:] == [1000] * 4
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", ["non_validator", "past_time"])
    def test_a_refused_fault_changes_nothing(self, keys, case):
        """A fault is refused when it is scheduled, not when it fires: a
        target that is no validator, or a time already passed."""
        sim = new_sim()
        sim.run(until=50)
        target = keys[7].address if case == "non_validator" else sim.config.validators[3]
        faults, pending = dict(sim.faults), sim.queue.pending()
        with pytest.raises(ValueError):
            sim.schedule_fault(60 if case == "non_validator" else 10,
                               ByzantineSpec(target, Behavior.SILENT))
        assert sim.faults == faults == {}
        assert sim.queue.pending() == pending
        sim.run(until=100)
        assert sim.honest_addresses() == list(sim.config.validators)


class TestRunUntilMinHeight:
    @staticmethod
    def equivocating_sim():
        sim = Simulation(make_genesis(seed=8), horizon=10_000, collect_traces=False)
        sim.inject_fault(ByzantineSpec(sim.config.validators[0], Behavior.EQUIVOCATE))
        return sim

    @staticmethod
    def per_step_loop(sim, height, cap):
        """The stop rule checked after every step; returns (reached, steps)."""
        sim.start()
        steps = 0
        while sim.min_honest_height() < height:
            next_time = sim.queue.peek_time()
            if next_time is None or next_time > cap:
                return False, steps
            sim.step()
            steps += 1
        return True, steps

    @pytest.mark.parametrize("height, cap", [(12, 10_000), (40, 300)])
    def test_stops_at_the_same_event_as_a_per_step_check(self, height, cap):
        fast = self.equivocating_sim()
        steps = 0
        step = fast.step

        def counted():
            nonlocal steps
            steps += 1
            return step()

        fast.step = counted
        reached = fast.run_until_min_height(height, cap=cap)
        slow = self.equivocating_sim()
        assert (reached, steps) == self.per_step_loop(slow, height, cap)
        assert fast.queue.now == slow.queue.now
        assert len(fast.queue) == len(slow.queue)
        assert fast.min_honest_height() == slow.min_honest_height()
        assert steps > 100

    def test_a_run_with_every_validator_faulty_reads_height_0(self):
        """With no honest node the minimum is 0, so no height is reached."""
        sim = new_sim()
        for address in sim.config.validators:
            sim.inject_fault(ByzantineSpec(address, Behavior.SILENT))
        assert sim.honest_addresses() == []
        assert sim.min_honest_height() == 0
        assert sim.run_until_min_height(1, cap=300) is False


class TestSafetyChecker:
    """`_record_finalized` compares each honest node's block at a height
    with the other honest nodes' blocks there; a faulty node's block
    takes no part."""

    @staticmethod
    def finalize(sim, address, block):
        """Put `block` on `address`'s chain and record it, as `_route` does."""
        node = sim.nodes[address]
        node.chain.append(block, node.chain.head_ledger, [])
        sim._record_finalized(node, block)

    @staticmethod
    def conflicting_blocks(sim):
        """Two sealed blocks at height 1 that differ in their state root."""
        parent = block_hash(make_genesis_block())
        v0, v1 = sim.config.validators[:2]
        return [Block(1, 0, parent, v0, (), Hash256(bytes([i]) * 32),
                      ((v1, Signature(bytes([i]) * 32)),)) for i in (1, 2)]

    def test_two_honest_nodes_on_different_blocks_are_recorded(self):
        sim = new_sim()
        first, second = self.conflicting_blocks(sim)
        a, b = sim.config.validators[1:3]
        self.finalize(sim, a, first)
        assert sim.safety_violation is None
        self.finalize(sim, b, second)
        assert sim.safety_violation == {
            "height": 1,
            "nodes": [hx(b), hx(a)],
            "hashes": [hx(block_hash(second)), hx(block_hash(first))],
        }

    @pytest.mark.parametrize("faulty_first", [True, False])
    def test_a_faulty_node_in_the_conflict_records_nothing(self, faulty_first):
        sim = new_sim()
        honest, faulty = sim.config.validators[1], sim.config.validators[2]
        sim.inject_fault(ByzantineSpec(faulty, Behavior.EQUIVOCATE))
        order = (faulty, honest) if faulty_first else (honest, faulty)
        for address, block in zip(order, self.conflicting_blocks(sim)):
            self.finalize(sim, address, block)
        assert sim.safety_violation is None

    @pytest.mark.parametrize("agreeing", [(1, 2), (2, 1)], ids=["V1_first", "V2_first"])
    def test_the_report_names_the_first_disagreeing_validator(self, agreeing):
        """V1 and V2 hold one block and V3 another: whichever of V1 and V2
        finalized first, the report names V1, the first in validator order."""
        sim = new_sim()
        first, second = self.conflicting_blocks(sim)
        v = sim.config.validators
        for i in agreeing:
            self.finalize(sim, v[i], first)
        self.finalize(sim, v[3], second)
        assert sim.safety_violation == {
            "height": 1,
            "nodes": [hx(v[3]), hx(v[1])],
            "hashes": [hx(block_hash(second)), hx(block_hash(first))],
        }

    def test_run_scenario_reports_a_violation_with_exit_4(self, monkeypatch):
        """V0's chain holds a block at height 1 that no other node
        finalized, whether V0 finalizes that height first or later."""
        record = Simulation._record_finalized

        def forked(sim, node, block):
            if block.height == 1 and node.address == sim.config.validators[0]:
                block = replace(block, state_root=Hash256(b"\x99" * 32))
                node.chain.blocks[1] = block
            record(sim, node, block)

        monkeypatch.setattr(Simulation, "_record_finalized", forked)
        scenario = parse_scenario(json.dumps(
            {"name": "fork", "horizon": 200, "commands": []}).encode())
        code, report = run_scenario(make_genesis(seed=TWIN_SEED, gst=0), scenario)
        assert code == 4 and report["exitCode"] == 4
        assert report["safety"] is False
        assert report["safetyViolation"]["height"] == 1
        assert report["config"]["validators"][0] in report["safetyViolation"]["nodes"]


class TestTwoFaultsOfSeven:
    """n=7 tolerates f=2: with two faulty validators, every run reaches
    height 30, the monitor finds no step that breaks the safety invariants,
    and the honest nodes agree on every state root."""

    @pytest.mark.parametrize("behaviors", [
        (Behavior.EQUIVOCATE, Behavior.EQUIVOCATE),
        (Behavior.EQUIVOCATE, Behavior.SILENT),
        (Behavior.INVALID_PROPOSER, Behavior.EQUIVOCATE),
    ], ids=lambda b: "+".join(x.value for x in b))
    @pytest.mark.parametrize("seed", range(5))
    def test_reaches_height_30_safely(self, behaviors, seed):
        sim = Simulation(make_genesis(seed=seed, n_validators=7), horizon=10_000,
                         collect_traces=False)
        for address, behavior in zip(sim.config.validators, behaviors):
            sim.inject_fault(ByzantineSpec(address, behavior))
        monitor = install_monitor(sim)
        assert sim.config.f == 2
        assert sim.run_until_min_height(30, cap=10_000)
        assert sim.safety_violation is None and monitor.violations == []
        honest = [sim.nodes[a].chain for a in sim.honest_addresses()]
        for h in range(31):
            assert len({chain.blocks[h].state_root for chain in honest}) == 1


class TestLateGstSafety:
    """A regression net for the lock rule with GST late enough for locks
    to split: 20 seeds for each pre-GST loss and fault, GST 400. Every run
    reaches min honest height 8, and the monitor finds no step that breaks
    the safety invariants. The liveness watchdog is left out: it bounds a
    wait from the highest round an engine holds, which can trail the round
    it has asked for after loss (ROADMAP item 19)."""

    @pytest.mark.parametrize("behavior", [None, Behavior.SILENT, Behavior.EQUIVOCATE],
                             ids=lambda b: "no_fault" if b is None else b.value)
    @pytest.mark.parametrize("loss", [0.3, 0.6, 0.8])
    def test_twenty_seeds_stay_safe(self, loss, behavior):
        for seed in range(20):
            sim = Simulation(make_genesis(seed=seed, gst=400, pre_gst_loss_prob=loss),
                             collect_traces=False)
            if behavior is not None:
                sim.inject_fault(ByzantineSpec(sim.config.validators[1], behavior))
            monitor = install_monitor(sim)
            assert sim.run_until_min_height(8, cap=20_000), seed
            assert monitor.violations == [] and sim.safety_violation is None, seed
