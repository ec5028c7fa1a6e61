"""Single-threaded deterministic simulation of the whole validator network.

Everything observable is a pure function of (genesis, scheduled client
commands, seed): event ordering comes from the queue's (time, seq) total
order, randomness from named seed-derived streams, and all iteration
runs over insertion-ordered or explicitly sorted structures. Two runs
with the same inputs produce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import contract
from .config import GenesisConfig, check_seed
from .consensus import ConsensusConfig, StepResult
from .crypto import KeyPair, Registry, sign
from .errors import NotDeployed
from .keccak import keccak256_many
from .model import (
    Address, AllowanceSent, Block, FundsAdded, RegisterBankAccount, Transaction,
    TxPayload, Signature, ZERO_ADDRESS, ZERO_HASH, block_hash, hx, replace_unhashed,
    serialize_tx, tx_hash,
)
from .netsim import ByzantineSpec, EventQueue, Network, byzantine_transform, payload_kind
from .node import ValidatorNode

DEFAULT_HORIZON = 2000  # logical ticks a run lasts unless told otherwise


@dataclass(frozen=True, slots=True)
class ClientTx:
    label: int
    key: KeyPair
    payload: TxPayload

    def __call__(self, sim: Simulation) -> None:
        sim.submit_to_all(sim.build_tx(self.key, self.payload), self.label)


class Traces:
    """The consensus and network trace rows of a run: an observer of
    `Simulation._route`. It holds its two lists and no simulation, so a
    finished run is freed by reference counting (see `Simulation.step`)."""

    def __init__(self) -> None:
        self.consensus: list[dict] = []
        self.network: list[dict] = []

    def __call__(self, node: ValidatorNode, cause: object, now: int,
                 result: StepResult, sent: list) -> None:
        sender = hx(node.address)
        for payload, peer, ev in sent:
            self.network.append({"time": now, "seq": None if ev is None else ev.seq,
                                 "kind": "DELIVER", "from": sender, "to": hx(peer),
                                 "msgKind": payload_kind(payload), "dropped": ev is None})
        if result.phase_before is not None:
            self.consensus.append({
                "node": sender, "logicalTime": now,
                "input": cause if isinstance(cause, str) else payload_kind(cause),
                "phaseBefore": result.phase_before.value,
                "phaseAfter": node.engine.phase.value,
                "outbound": len(result.outbound), "discards": result.discards})


def make_genesis_block() -> Block:
    state = contract.fresh_state()
    return Block(0, 0, ZERO_HASH, ZERO_ADDRESS, (),
                 contract.state_root(state), ())


def genesis_setup(genesis: GenesisConfig
                  ) -> tuple[list[KeyPair], Registry, ConsensusConfig]:
    """The validator keys, the registry of every genesis key, and the
    consensus configuration that a genesis file defines."""
    registry = Registry()
    for raw in genesis.key_provider.private_keys:
        registry.register(KeyPair.from_seed(raw))
    validator_keys = genesis.validator_keys()
    for key in validator_keys:
        registry.register(key)
    config = ConsensusConfig(tuple(k.address for k in validator_keys),
                             genesis.base_round_timeout)
    return validator_keys, registry, config


class Simulation:
    """A validator network in one process: its nodes, the queue and network
    that carry their messages, and the record of the run."""

    def __init__(self, genesis: GenesisConfig, *, seed: Optional[int] = None,
                 horizon: int = DEFAULT_HORIZON, collect_traces: bool = True) -> None:
        self.genesis = genesis
        self.horizon = horizon
        self.seed = check_seed(genesis.seed if seed is None else seed)

        self.validator_keys, self.registry, self.config = genesis_setup(genesis)
        genesis_block = make_genesis_block()
        self.nodes: dict[Address, ValidatorNode] = {}
        for key in self.validator_keys:
            self.nodes[key.address] = ValidatorNode(
                key, self.config, self.registry, genesis_block, genesis.block_gas_limit)

        self.queue = EventQueue()
        self.network = Network(genesis, self.seed, self.queue)
        self.traces = Traces() if collect_traces else None
        self.observers: list = [] if self.traces is None else [self.traces]  # see _route

        # A key is a validator that is faulty for the whole run; its value is
        # None until its scheduled fault is injected.
        self.faults: dict[Address, Optional[ByzantineSpec]] = {}
        self._adversary_seen: set[tuple[Address, int, int]] = set()

        self.client_nonces: dict[Address, int] = {}
        self.submissions: list[dict] = []
        self.queries: list[dict] = []
        self.safety_violation: Optional[dict] = None
        self._finalizations = 0  # blocks recorded by _record_finalized
        self._started = False

    # -- fault and command scheduling -----------------------------------------

    def _check_fault_target(self, spec: ByzantineSpec) -> None:
        if spec.node not in self.nodes:
            raise ValueError("fault target is not a validator")

    def inject_fault(self, spec: ByzantineSpec) -> None:
        self._check_fault_target(spec)
        self.faults[spec.node] = spec

    def honest_addresses(self) -> list[Address]:
        return [a for a in self.config.validators if a not in self.faults]

    def reference_node(self) -> ValidatorNode:
        honest = self.honest_addresses()
        return self.nodes[honest[0] if honest else self.config.validators[0]]

    def schedule_tx(self, at_time: int, key: KeyPair, payload: TxPayload,
                    label: int = -1) -> None:
        self.queue.schedule(at_time, None, ClientTx(label, key, payload))

    def schedule_query(self, at_time: int, caller: Address, label: int = -1) -> None:
        self.queue.schedule(at_time, None,
                            partial(Simulation._query, caller=caller, label=label))

    def schedule_fault(self, at_time: int, spec: ByzantineSpec) -> None:
        self._check_fault_target(spec)  # refused now, not when it fires
        self.queue.schedule(at_time, None, partial(Simulation.inject_fault, spec=spec))
        self.faults.setdefault(spec.node, None)  # byzantine for the whole run

    def schedule_set_gst(self, at_time: int) -> None:
        self.queue.schedule(at_time, None, lambda sim: sim.network.set_gst_now())

    # -- run loop -----------------------------------------------------------------

    def start(self) -> None:
        """Start the validators, once. First prehash the scheduled client
        transactions; a wrong guess there is only a memo miss."""
        if self._started:
            return
        self._started = True
        self._prehash_client_txs()
        for node in self.nodes.values():  # in validator order
            self._route(node, node.start(), "START")

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty. An event
        with a target delivers its payload there; one without is a call, which
        takes the simulation as its argument: a call that held it would close
        a cycle through the queue, which would keep a finished run in memory
        until the cyclic collector ran."""
        if not self._started:
            self.start()
        if not self.queue._heap:
            return False
        ev = self.queue.next_event()
        if ev.target is None:
            ev.payload(self)
        else:
            node = self.nodes[ev.target]
            self._route(node, node.handle_payload(ev.payload), ev.payload)
        return True

    def advance(self, limit: int) -> bool:
        """Process the next event if it is due by logical time `limit`;
        False, with nothing processed, if none is."""
        next_time = self.queue.peek_time()
        return next_time is not None and next_time <= limit and self.step()

    def run(self, until: Optional[int] = None) -> None:
        self.start()
        limit = self.horizon if until is None else until
        while self.advance(limit):
            pass

    def run_until_min_height(self, height: int, cap: Optional[int] = None) -> bool:
        """Run until every honest node finalized `height`; True on success.
        The minimum moves only when a block is finalized, so only then is it
        checked again."""
        self.start()
        limit = self.horizon if cap is None else cap
        checked = None  # self._finalizations at the last check, which failed
        while checked == self._finalizations or self.min_honest_height() < height:
            checked = self._finalizations
            if not self.advance(limit):
                return False
        return True

    # -- client commands ---------------------------------------------------------

    def _unsigned_tx(self, key: KeyPair, payload: TxPayload,
                     nonces: dict[Address, int]) -> Transaction:
        """`key`'s next unsigned transaction by `nonces`, which it advances."""
        nonce = nonces.get(key.address, 0)
        nonces[key.address] = nonce + 1
        return Transaction(key.address, nonce, payload, contract.gas_for(payload),
                           self.genesis.gas_price, Signature(b""))

    def build_tx(self, key: KeyPair, payload: TxPayload) -> Transaction:
        unsigned = self._unsigned_tx(key, payload, self.client_nonces)
        return replace_unhashed(unsigned, signature=sign(key, tx_hash(unsigned)))

    def _prehash_client_txs(self) -> None:
        """Hash in one batch every Keccak input the scheduled client
        transactions will ask for, so `build_tx` and the contract find it
        memoized. The nonces are guessed in queue order, as `build_tx` will
        give them. A transaction scheduled after start() ahead of these, or
        built out of band (`deploy.migrate_deploy`), makes the guess wrong,
        which is only a memo miss."""
        nonces = dict(self.client_nonces)
        inputs = []
        for ev in self.queue.pending():
            command = ev.payload
            if isinstance(command, ClientTx):
                unsigned = self._unsigned_tx(command.key, command.payload, nonces)
                inputs.append(serialize_tx(unsigned, with_signature=False))
                if isinstance(command.payload, RegisterBankAccount):
                    inputs.append(contract.account_hash_input(command.payload.account))
        keccak256_many(inputs)

    def submit_to_all(self, tx: Transaction, label: int = -1) -> dict:
        record = {"label": label, "txHash": hx(tx_hash(tx)), "accepted": []}
        for address in self.config.validators:
            accepted, reason = self.nodes[address].submit_transaction(tx)
            record["accepted"].append({"node": hx(address), "ok": accepted,
                                       "reason": reason})
        self.submissions.append(record)
        return record

    def _query(self, caller: Address, label: int) -> None:
        values = []
        for address in self.honest_addresses():
            try:
                value = str(int(self.nodes[address].get_balance(caller)))
            except NotDeployed:
                value = "NotDeployed"
            values.append({"node": hx(address), "value": value})
        self.queries.append({"label": label, "caller": hx(caller),
                             "time": self.queue.now, "values": values})

    # -- routing -------------------------------------------------------------------

    def _route(self, node: ValidatorNode, result: StepResult, cause: object) -> None:
        """Send, schedule and record what `node` did on `cause`: the payload
        it handled, or the label "START", "TIMER" or "HEIGHTSTART". Then
        hand the step to each observer, with `sent`: a (payload, peer,
        delivery event or None for a drop) entry for each message put on
        the wire after the adversary hook. This is the one reader of a step,
        and of the clock for it: a timer's timeout counts from now."""
        now = self.queue.now
        outbound = result.outbound
        spec = self.faults.get(node.address)
        if spec is not None:
            outbound = byzantine_transform(spec, node, outbound, self._adversary_seen)
        send, sent = self.network.send, []
        for payload, to in outbound:
            for peer in node.peers if to is None else (to,):
                sent.append((payload, peer, send(payload, node.address, peer, now)))

        if result.timer is not None:
            timeout, epoch = result.timer
            self.queue.schedule(now + timeout, None,
                                partial(Simulation._fire_timer, node=node, epoch=epoch))
        if result.finalized is not None:
            self.queue.schedule(now + 1, None,
                                partial(Simulation._start_next_height, node=node))
            self._record_finalized(node, result.finalized)
        for observe in self.observers:
            observe(node, cause, now, result, sent)

    def _fire_timer(self, node: ValidatorNode, epoch: int) -> None:
        """Fire `node`'s round timer of `epoch`, which the engine ignores if
        it is stale. The call holds the node, as `_start_next_height`'s does."""
        self._route(node, node.handle_timer(epoch), "TIMER")

    def _start_next_height(self, node: ValidatorNode) -> None:
        """Start `node`'s next height, one tick after it finalized one. The
        call holds the node, which does not hold the simulation, and takes
        the simulation as its argument, as every call does (see `step`)."""
        self._route(node, node.handle_height_start(), "HEIGHTSTART")

    # -- bookkeeping ------------------------------------------------------------------

    def _record_finalized(self, node: ValidatorNode, block: Block) -> None:
        """Count `node`'s new head `block` and check it against the other
        honest nodes' blocks at its height. Every chain append
        (`ValidatorNode._adopt`) comes here, so the chains are the record of
        finality. The check stops at the first honest chain, in validator
        order, with another block at the height."""
        self._finalizations += 1
        if node.address in self.faults or self.safety_violation:
            return
        height, own = block.height, block_hash(block)
        for other in self.honest_addresses():
            chain = self.nodes[other].chain
            if other == node.address or chain.head_height < height:
                continue
            theirs = block_hash(chain.blocks[height])
            if theirs != own:
                self.safety_violation = {"height": height,
                                         "nodes": [hx(node.address), hx(other)],
                                         "hashes": [hx(own), hx(theirs)]}
                return

    # -- end-of-run inspection ----------------------------------------------------------

    def finalized_height(self, address: Address) -> int:
        return self.nodes[address].chain.head_height

    def min_honest_height(self) -> int:
        return min(self.finalized_height(a) for a in self.honest_addresses())

    def conservation_ok(self, address: Address) -> bool:
        chain = self.nodes[address].chain
        total = 0
        for *_, event in chain.events():  # a failed receipt carries no events
            if isinstance(event, FundsAdded):
                total += int(event.value)
            elif isinstance(event, AllowanceSent):
                total -= int(event.amount)
        state = chain.head_ledger.contract
        org_balance = int(state.balances.get(state.organization, 0))
        return org_balance == total
