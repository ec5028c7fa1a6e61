"""Simulation run loop: client intake, the client-transaction prehash at
start() and the minimum-height stop rule.

`Simulation.start()` batch-hashes the unsigned encoding and bank-account
string of every scheduled client transaction, guessing the nonces
`build_tx` will give. A wrong guess must cost only a memo miss: the twin
tests schedule the same commands before start() (prehashed) and after it
(hashed one at a time when built) and require identical outputs,
including the cases where the guess is wrong.
"""

import json

import pytest

from ledgersim import contract, keccak, model
from ledgersim.deploy import migrate_deploy
from ledgersim.model import (
    AddFunds, AddRecipient, Amount, Deploy, RegisterBankAccount, SendAllowance,
    block_to_json,
)
from ledgersim.netsim import Behavior, ByzantineSpec
from ledgersim.simulation import Simulation

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
        accounts = {contract.account_hash_input(p.account)
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


class TestClientIntake:
    def test_submission_reaches_every_mempool_and_sends_nothing(self):
        sim = new_sim()
        sim.start()
        now = sim.queue.now
        queued, rows = len(sim.queue), len(sim.net_trace)
        tx = sim.build_tx(sim.validator_keys[0], Deploy())
        record = sim.submit_to_all(tx, now)
        assert [a["ok"] for a in record["accepted"]] == [True] * 4
        for node in sim.nodes.values():
            assert tx in node.mempool.pending.values()
        assert (len(sim.queue), len(sim.net_trace)) == (queued, rows)


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
