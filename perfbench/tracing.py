"""Span tracing of ledgersim's module boundaries, installed from outside.

`install` wraps the public functions and methods listed in `SPANS`. A
module-level function is replaced under every name any ``ledgersim``
module binds it to (each module imports ``keccak256`` by name, for
example), and a method is replaced on its class, so it must run before a
`Simulation` is built: `Engine` keeps bound `build_block` and
`validate_block` methods from construction on.

While `Tracer.on` is set, each wrapped call records a span (name, start,
end, parent) in flat arrays; `layer_metrics` turns the spans and the
counters the hooks keep into the per-layer metrics. A layer's `busy_s`
is self time: span durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from ledgersim import consensus, contract, crypto, keccak, model, netsim, node, replay, simulation


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.on = False
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def recording(self):
        self.on = True
        try:
            yield
        finally:
            self.on = False

    def wrap(self, name: str, fn, hook=None):
        """`hook(args, kwargs)` runs before the call; a callable it returns
        runs on the result."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            after = hook(args, kwargs) if hook is not None else None
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def self_times(self) -> array:
        """Self time of every span: its duration minus its children's."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * len(own)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += own[i]
        for i, c in enumerate(child):
            own[i] -= c
        return own

    def write(self, path) -> None:
        """All spans: one JSON header line (run id, span names, count), then
        the name-index and parent-index arrays (int32, -1 for no parent) and
        the start and end arrays (float64 perf_counter seconds), raw."""
        header = {"run_id": self.run_id, "names": self.names, "spans": len(self.start),
                  "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


# --- counters kept by hooks ------------------------------------------------------

def _keccak_hook(tracer: Tracer):
    state_root = tracer.name_id("contract.state_root")
    counts, stack, names = tracer.counts, tracer.stack, tracer.name

    def hook(args, kwargs):
        data = args[0] if args else kwargs["data"]
        counts["keccak.bytes_in"] += len(data)
        memo = getattr(keccak, "_memo", None)
        if memo is not None and data in memo:
            counts["keccak.memo_hits"] += 1
        if stack and names[stack[-1]] == state_root:
            counts["contract.state_root.bytes"] += len(data)
    return hook


def _sign_hook(tracer: Tracer):
    """Counts signatures made; the mock scheme's verification re-signs, and
    those calls are verifies, not signatures."""
    verifies = {tracer.name_id("crypto.verify"), tracer.name_id("crypto.verify_by_address")}
    counts, stack, names = tracer.counts, tracer.stack, tracer.name

    def hook(args, kwargs):
        if not (stack and names[stack[-1]] in verifies):
            counts["crypto.signatures"] += 1
    return hook


def _engine_hook(tracer: Tracer, messages: bool):
    """Counts round advances within a height and, for messages, discards."""
    counts = tracer.counts

    def hook(args, kwargs):
        engine = args[0]
        height, round_ = engine.height, engine.round

        def after(result):
            if messages and result.discards:
                counts["consensus.discarded"] += 1
            if engine.height == height and engine.round > round_:
                counts["consensus.round_changes"] += engine.round - round_
        return after
    return hook


def _drop_hook(tracer: Tracer):
    counts = tracer.counts

    def hook(args, kwargs):
        def after(result):
            if result is None:
                counts["netsim.drops"] += 1
        return after
    return hook


def _peak_hook(tracer: Tracer, key: str, size):
    peaks = tracer.peaks

    def hook(args, kwargs):
        owner = args[0]

        def after(result):
            n = size(owner)
            if n > peaks[key]:
                peaks[key] = n
        return after
    return hook


# (span name, owner, attribute, hook factory). The span name's first part
# is the layer.
SPANS = [
    ("keccak.keccak256", keccak, "keccak256", _keccak_hook),
    ("model.tx_hash", model, "tx_hash", None),
    ("model.serialize_tx", model, "serialize_tx", None),
    ("model.block_hash", model, "block_hash", None),
    ("model.serialize_block", model, "serialize_block", None),
    ("model.block_to_json", model, "block_to_json", None),
    ("model.block_from_json", model, "block_from_json", None),
    ("model.receipt_to_json", model, "receipt_to_json", None),
    ("crypto.sign", crypto, "sign", _sign_hook),
    ("crypto.verify", crypto.Registry, "verify", None),
    ("crypto.verify_by_address", crypto.Registry, "verify_by_address", None),
    ("contract.apply", contract, "apply_transaction", None),
    ("contract.state_root", contract, "state_root", None),
    ("contract.get_balance", contract, "get_balance", None),
    ("consensus.start_height", consensus.Engine, "start_height", None),
    ("consensus.handle_message", consensus.Engine, "handle_message",
     lambda t: _engine_hook(t, messages=True)),
    ("consensus.handle_timer", consensus.Engine, "handle_timer",
     lambda t: _engine_hook(t, messages=False)),
    ("consensus.make_message", consensus, "make_message", None),
    ("consensus.verify_message", consensus, "verify_message", None),
    ("consensus.validate_finalized_block", consensus, "validate_finalized_block", None),
    ("netsim.send", netsim.Network, "send", _drop_hook),
    ("netsim.schedule", netsim.EventQueue, "schedule",
     lambda t: _peak_hook(t, "netsim.queue.peak_len", len)),
    ("netsim.next_event", netsim.EventQueue, "next_event", None),
    ("netsim.byzantine_transform", netsim, "byzantine_transform", None),
    ("node.start", node.ValidatorNode, "start", None),
    ("node.build_block", node.ValidatorNode, "build_block", None),
    ("node.validate_block", node.ValidatorNode, "validate_block", None),
    ("node.submit_transaction", node.ValidatorNode, "submit_transaction", None),
    ("node.handle_payload", node.ValidatorNode, "handle_payload", None),
    ("node.handle_consensus", node.ValidatorNode, "handle_consensus", None),
    ("node.handle_timer", node.ValidatorNode, "handle_timer", None),
    ("node.handle_announce", node.ValidatorNode, "handle_announce", None),
    ("node.mempool.add", node.Mempool, "add",
     lambda t: _peak_hook(t, "node.mempool.peak_pending", lambda m: len(m.pending))),
    ("node.mempool.remove_included", node.Mempool, "remove_included", None),
    ("simulation.step", simulation.Simulation, "step", None),
    ("simulation.run", simulation.Simulation, "run", None),
    ("simulation.run_until_min_height", simulation.Simulation, "run_until_min_height", None),
    ("simulation.submit_to_all", simulation.Simulation, "submit_to_all", None),
    ("simulation.build_tx", simulation.Simulation, "build_tx", None),
    ("replay.replay_chain", replay, "replay_chain", None),
    ("replay.receipt_from_dump", replay, "receipt_from_dump", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every entry of SPANS; call once, before building a Simulation."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "ledgersim" or name.startswith("ledgersim."))]
    for span, owner, attr, hook_factory in SPANS:
        hook = hook_factory(tracer) if hook_factory is not None else None
        if isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(span, owner.__dict__[attr], hook))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, hook)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)


def layer_metrics(tracer: Tracer, heights: int, txs: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    layer_busy: dict[str, float] = defaultdict(float)
    self_t = tracer.self_times()
    names = tracer.names
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        busy[name] += self_t[i]
        layer_busy[name.split(".", 1)[0]] += self_t[i]
    counts, peaks = tracer.counts, tracer.peaks

    def per(n: float, d: float) -> float:
        return n / d if d else 0.0

    # transactions re-executed inside receipt_from_dump, per transaction
    receipt_id = tracer.name_id("replay.receipt_from_dump")
    apply_id = tracer.name_id("contract.apply")
    in_receipt = 0
    for i, nid in enumerate(tracer.name):
        if nid != apply_id:
            continue
        p = tracer.parent[i]
        while p >= 0 and tracer.name[p] != receipt_id:
            p = tracer.parent[p]
        in_receipt += p >= 0

    kc = calls["keccak.keccak256"]
    # every consensus message a node receives; those for past or future
    # heights are dropped by the node before the engine sees them
    msgs = calls["node.handle_consensus"]
    discards = counts["consensus.discarded"] + msgs - calls["consensus.handle_message"]
    verifies = calls["crypto.verify"] + calls["crypto.verify_by_address"]
    return {
        "keccak.calls": kc,
        "keccak.bytes_in": counts["keccak.bytes_in"],
        "keccak.busy_s": layer_busy["keccak"],
        "keccak.mb_per_s": per(counts["keccak.bytes_in"] / 1e6, layer_busy["keccak"]),
        "keccak.memo_hit_ratio": per(counts["keccak.memo_hits"], kc),
        "model.tx_hash.calls_per_tx": per(calls["model.tx_hash"], txs),
        "model.serialize_tx.calls_per_tx": per(calls["model.serialize_tx"], txs),
        "model.block_hash.calls_per_height": per(calls["model.block_hash"], heights),
        "model.block_from_json.busy_s": busy["model.block_from_json"],
        "model.busy_s": layer_busy["model"],
        "crypto.sign.calls": counts["crypto.signatures"],
        "crypto.verify.calls": verifies,
        "crypto.verify.per_height": per(verifies, heights),
        "crypto.busy_s": layer_busy["crypto"],
        "contract.apply.calls_per_tx": per(calls["contract.apply"], txs),
        "contract.apply.busy_s": busy["contract.apply"],
        "contract.state_root.calls_per_height": per(calls["contract.state_root"], heights),
        "contract.state_root.bytes_mean": per(counts["contract.state_root.bytes"],
                                              calls["contract.state_root"]),
        "contract.state_root.busy_s": busy["contract.state_root"],
        "consensus.msgs_in": msgs,
        "consensus.msgs_per_height": per(msgs, heights),
        "consensus.discard_ratio": per(discards, msgs),
        "consensus.round_changes_per_height": per(counts["consensus.round_changes"], heights),
        "consensus.timers_fired": calls["consensus.handle_timer"],
        "consensus.busy_s": layer_busy["consensus"],
        "netsim.sends": calls["netsim.send"],
        "netsim.drops": counts["netsim.drops"],
        "netsim.sends_per_height": per(calls["netsim.send"], heights),
        "netsim.queue.peak_len": peaks["netsim.queue.peak_len"],
        "netsim.busy_s": layer_busy["netsim"],
        "node.build_block.busy_s": busy["node.build_block"],
        "node.validate_block.calls_per_height": per(calls["node.validate_block"], heights),
        "node.validate_block.busy_s": busy["node.validate_block"],
        "node.mempool.peak_pending": peaks["node.mempool.peak_pending"],
        "node.announces": calls["node.handle_announce"],
        "node.busy_s": layer_busy["node"],
        "simulation.events": calls["simulation.step"],
        "simulation.events_per_height": per(calls["simulation.step"], heights),
        "simulation.busy_s": layer_busy["simulation"],
        "replay.replay_chain.busy_s": busy["replay.replay_chain"],
        "replay.receipt.chain_passes": per(in_receipt, txs),
        "replay.busy_s": layer_busy["replay"],
    }
