"""Single-threaded deterministic simulation of the whole validator network.

Everything observable is a pure function of (genesis, scheduled client
commands, seed): event ordering comes from the queue's (time, seq) total
order, randomness from named seed-derived streams, and all iteration
runs over insertion-ordered or explicitly sorted structures. Two runs
with the same inputs produce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import contract
from .config import GenesisConfig
from .consensus import ConsensusConfig
from .crypto import KeyPair, Registry, sign
from .errors import NotDeployed
from .keccak import keccak256_many
from .model import (
    Address, AllowanceSent, Block, FundsAdded, Hash256, RegisterBankAccount,
    Transaction, TxPayload, TxStatus, Signature, ZERO_ADDRESS, ZERO_HASH, block_hash,
    hx, replace_unhashed, serialize_tx, tx_hash,
)
from .netsim import (
    ByzantineSpec, EvKind, EventQueue, Network, byzantine_transform, payload_kind,
)
from .node import HeightStart, NodeResult, TimerFire, ValidatorNode


@dataclass(frozen=True, slots=True)
class ClientTx:
    label: int
    key: KeyPair
    payload: TxPayload


@dataclass(frozen=True, slots=True)
class ClientQuery:
    label: int
    caller: Address


@dataclass(frozen=True, slots=True)
class ClientFault:
    spec: ByzantineSpec


@dataclass(frozen=True, slots=True)
class ClientSetGst:
    pass


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
    def __init__(self, genesis: GenesisConfig, *, seed: Optional[int] = None,
                 horizon: int = 2000, collect_traces: bool = True) -> None:
        self.genesis = genesis
        self.horizon = horizon
        self.seed = genesis.seed if seed is None else seed

        self.validator_keys, self.registry, self.config = genesis_setup(genesis)
        genesis_block = make_genesis_block()
        self.nodes: dict[Address, ValidatorNode] = {}
        for key in self.validator_keys:
            self.nodes[key.address] = ValidatorNode(
                key, self.config, self.registry, genesis_block,
                genesis.block_gas_limit)

        self.queue = EventQueue()
        self.net_trace: Optional[list] = [] if collect_traces else None
        params = replace(genesis.network_params, seed=self.seed)
        self.network = Network(params, self.queue, self.net_trace)
        self.consensus_trace: Optional[list] = [] if collect_traces else None

        self.byzantine: dict[Address, ByzantineSpec] = {}
        self._ever_byzantine: set[Address] = set()
        self._adversary_seen: set[tuple[Address, int, int]] = set()

        self.client_nonces: dict[Address, int] = {}
        self.submissions: list[dict] = []
        self.queries: list[dict] = []
        self.finalized_hashes: dict[int, dict[Address, Hash256]] = {}
        self.safety_violation: Optional[dict] = None
        self._finalizations = 0  # blocks recorded by _record_finalized
        self._started = False

    # -- fault and command scheduling -----------------------------------------

    def inject_fault(self, spec: ByzantineSpec) -> None:
        if spec.node not in self.nodes:
            raise ValueError("fault target is not a validator")
        self.byzantine[spec.node] = spec
        self._ever_byzantine.add(spec.node)

    def honest_addresses(self) -> list[Address]:
        return [a for a in self.config.validators if a not in self._ever_byzantine]

    def reference_node(self) -> ValidatorNode:
        honest = self.honest_addresses()
        return self.nodes[honest[0] if honest else self.config.validators[0]]

    def schedule_tx(self, at_time: int, key: KeyPair, payload: TxPayload,
                    label: int = -1) -> None:
        self.queue.schedule(at_time, EvKind.CLIENT, None,
                            ClientTx(label, key, payload))

    def schedule_query(self, at_time: int, caller: Address, label: int = -1) -> None:
        self.queue.schedule(at_time, EvKind.CLIENT, None, ClientQuery(label, caller))

    def schedule_fault(self, at_time: int, spec: ByzantineSpec) -> None:
        # the target counts as byzantine for the whole run
        self._ever_byzantine.add(spec.node)
        self.queue.schedule(at_time, EvKind.CLIENT, None, ClientFault(spec))

    def schedule_set_gst(self, at_time: int) -> None:
        self.queue.schedule(at_time, EvKind.CLIENT, None, ClientSetGst())

    # -- run loop -----------------------------------------------------------------

    def start(self) -> None:
        """Start the validators, once. First prehash the scheduled client
        transactions; a wrong guess there is only a memo miss."""
        if self._started:
            return
        self._started = True
        self._prehash_client_txs()
        for address in self.config.validators:
            node = self.nodes[address]
            self._route(node, node.start(0), "START", 0)

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._started:
            self.start()
        if len(self.queue) == 0:
            return False
        ev = self.queue.next_event()
        now = self.queue.now
        if ev.kind is EvKind.CLIENT:
            self._exec_client(ev.payload, now)
            return True
        node = self.nodes[ev.target]
        if ev.kind is EvKind.TIMER:
            result = node.handle_timer(ev.payload, now)
            self._route(node, result, "TIMER", now)
        else:
            result = node.handle_payload(ev.payload, now)
            self._route(node, result, payload_kind(ev.payload), now)
        return True

    def run(self, until: Optional[int] = None) -> None:
        limit = self.horizon if until is None else until
        if not self._started:
            self.start()
        while len(self.queue) > 0:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > limit:
                break
            self.step()

    def run_until_min_height(self, height: int, cap: Optional[int] = None) -> bool:
        """Run until every honest node finalized `height`; True on success.
        The minimum moves only when a block is finalized, so only then is it
        checked again."""
        limit = self.horizon if cap is None else cap
        if not self._started:
            self.start()
        checked = None  # self._finalizations at the last check, which failed
        while checked == self._finalizations or self.min_honest_height() < height:
            checked = self._finalizations
            next_time = self.queue.peek_time()
            if next_time is None or next_time > limit:
                return False
            self.step()
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

    def submit_to_all(self, tx: Transaction, now: int, label: int = -1) -> dict:
        record = {"label": label, "txHash": hx(tx_hash(tx)), "accepted": []}
        for address in self.config.validators:
            accepted, reason = self.nodes[address].submit_transaction(tx)
            record["accepted"].append({"node": hx(address), "ok": accepted,
                                       "reason": reason})
        self.submissions.append(record)
        return record

    def _exec_client(self, payload: object, now: int) -> None:
        if isinstance(payload, ClientTx):
            tx = self.build_tx(payload.key, payload.payload)
            self.submit_to_all(tx, now, payload.label)
        elif isinstance(payload, ClientQuery):
            values = []
            for address in self.honest_addresses():
                node = self.nodes[address]
                try:
                    value = str(int(node.get_balance(payload.caller)))
                except NotDeployed:
                    value = "NotDeployed"
                values.append({"node": hx(address), "value": value})
            self.queries.append({"label": payload.label,
                                 "caller": hx(payload.caller),
                                 "time": now, "values": values})
        elif isinstance(payload, ClientFault):
            self.byzantine[payload.spec.node] = payload.spec
        elif isinstance(payload, ClientSetGst):
            self.network.set_gst_now()
        else:
            raise TypeError(f"unknown client payload {payload!r}")

    # -- routing -------------------------------------------------------------------

    def _route(self, node: ValidatorNode, result: NodeResult, input_kind: str,
               now: int) -> None:
        outbound = result.outbound
        spec = self.byzantine.get(node.address)
        if spec is not None:
            outbound = byzantine_transform(spec, node, outbound, self._adversary_seen)
        for payload, to in outbound:
            if to is None:
                for peer in node.peers:
                    self.network.send(payload, node.address, peer, now)
            else:
                self.network.send(payload, node.address, to, now)

        if result.timer is not None:
            deadline, epoch = result.timer
            self.queue.schedule(deadline, EvKind.TIMER, node.address,
                                TimerFire(node.address, epoch))
        if result.restart:
            self.queue.schedule(now + 1, EvKind.DELIVER, node.address,
                                HeightStart())
        for block in result.finalized:
            self._record_finalized(node, block)
        if self.consensus_trace is not None:
            for step in result.steps:
                self.consensus_trace.append({
                    "node": hx(node.address),
                    "logicalTime": now,
                    "input": input_kind,
                    "phaseBefore": step.phase_before.value,
                    "phaseAfter": step.phase_after.value,
                    "outbound": len(step.outbound),
                    "discards": step.discards,
                })

    # -- bookkeeping ------------------------------------------------------------------

    def _record_finalized(self, node: ValidatorNode, block: Block) -> None:
        self._finalizations += 1
        entry = self.finalized_hashes.setdefault(block.height, {})
        entry[node.address] = block_hash(block)
        if node.address in self._ever_byzantine or self.safety_violation:
            return
        for other, other_hash in entry.items():
            if other in self._ever_byzantine:
                continue
            if other_hash != entry[node.address]:
                self.safety_violation = {
                    "height": block.height,
                    "nodes": [hx(node.address), hx(other)],
                    "hashes": [hx(entry[node.address]), hx(other_hash)],
                }

    # -- end-of-run inspection ----------------------------------------------------------

    def finalized_height(self, address: Address) -> int:
        return self.nodes[address].chain.head_height

    def min_honest_height(self) -> int:
        return min(self.finalized_height(a) for a in self.honest_addresses())

    def conservation_ok(self, address: Address) -> bool:
        node = self.nodes[address]
        total = 0
        for receipts in node.chain.receipts_by_height:
            for receipt in receipts:
                if receipt.status is not TxStatus.SUCCESS:
                    continue
                for event in receipt.events:
                    if isinstance(event, FundsAdded):
                        total += int(event.value)
                    elif isinstance(event, AllowanceSent):
                        total -= int(event.amount)
        state = node.chain.head_ledger.contract
        org_balance = int(state.balances.get(state.organization, 0))
        return org_balance == total
