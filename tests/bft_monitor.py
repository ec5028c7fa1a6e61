"""A safety monitor and a liveness watchdog for the consensus engine,
checked after every step.

`install(sim)` adds a `BftMonitor` to `sim.observers`, so it sees every
step that `Simulation._route` routes. It reads what each honest node
broadcast and checks the invariants that IBFT 2.0's lock and
justification rules keep (Saltini & Hyland-Wood, arXiv:1909.10194):

  (a) no honest node sends two different PREPAREs, or two different
      COMMITs, for one (height, round);
  (b) an honest COMMIT follows a prepare quorum for its (round, hash) in
      that node's own `_prepares`;
  (c) at most one block per height ever reaches a commit quorum;
  (d) once block B reaches a commit quorum at (h, r), no other block
      reaches a prepare quorum at height h in a round above r.

Faulty validators count as voting for every block, so a block reaches a
quorum when its honest voters and the faulty validators make one. The
end-of-run check (`Simulation.safety_violation`) sees a broken lock only
once two honest nodes finalize different blocks; this sees it at once.
Violations are kept as strings in `violations`, in the order found.

`install_watchdog(sim)` adds a `LivenessWatchdog`: after GST, the lowest
honest head must rise within `LivenessWatchdog.bound` ticks of the start
of each wait, at GST or at its last rise. It keeps `violations` too.
Neither observer holds the simulation, so a finished run is freed by
reference counting (see `Simulation.step`).
"""

from __future__ import annotations

from ledgersim.consensus import COMMIT, PREPARE, ConsensusConfig, ConsensusMessage
from ledgersim.model import hx


def install(sim) -> "BftMonitor":
    """Watch `sim` from now on. The monitor reads the simulation's fault
    map, which a scheduled fault joins when it is scheduled."""
    monitor = BftMonitor(sim.config, sim.faults)
    sim.observers.append(monitor)
    return monitor


def install_watchdog(sim, gst=None) -> "LivenessWatchdog":
    """Watch `sim`'s progress from now on. `gst` defaults to the network's;
    a test that drops messages itself until a later time passes that time."""
    watchdog = LivenessWatchdog(sim.config, sim.nodes, sim.faults, sim.genesis.delta,
                                sim.network.gst if gst is None else gst)
    sim.observers.append(watchdog)
    return watchdog


class BftMonitor:
    def __init__(self, config: ConsensusConfig, faulty: dict) -> None:
        self.quorum = config.quorum
        self.faulty = faulty
        self.sent: dict[tuple, bytes] = {}  # (sender, kind, height, round) -> hash
        self.voters: dict[tuple, set] = {}  # (kind, height, round, hash) -> honest senders
        # (kind, height) -> the (round, hash) pairs that reached a quorum
        self.quorums: dict[tuple, set] = {}
        self.violations: list[str] = []

    def __call__(self, node, cause, now, result, sent) -> None:
        if node.address in self.faulty:
            return
        for msg, _ in result.outbound:
            if isinstance(msg, ConsensusMessage) and msg.kind in (PREPARE, COMMIT):
                self._vote(node, msg, now)

    def _flag(self, now: int, text: str) -> None:
        self.violations.append(f"t={now}: {text}")

    def _vote(self, node, msg: ConsensusMessage, now: int) -> None:
        kind, h, r, bh = msg.kind, msg.height, msg.round, msg.block_hash
        where = f"{kind.value} at height {h} round {r}"
        earlier = self.sent.setdefault((node.address, kind, h, r), bh)
        if earlier != bh:
            self._flag(now, f"(a) {hx(node.address)} sent two {where}")
        if kind is COMMIT and (node.engine.height != h or len(
                node.engine._prepares.get((r, bh), ())) < self.quorum):
            self._flag(now, f"(b) {hx(node.address)} sent {where} with no prepare quorum")
        voters = self.voters.setdefault((kind, h, r, bh), set())
        voters.add(node.address)
        reached = self.quorums.setdefault((kind, h), set())
        if len(voters) + len(self.faulty) < self.quorum or (r, bh) in reached:
            return
        reached.add((r, bh))
        if kind is COMMIT:
            if any(other != bh for _, other in reached):
                self._flag(now, f"(c) two blocks reached a commit quorum at height {h}")
            pairs = [((r, bh), p) for p in self.quorums.get((PREPARE, h), ())]
        else:
            pairs = [(c, (r, bh)) for c in self.quorums.get((COMMIT, h), ())]
        for (rc, committed), (rp, prepared) in pairs:
            if rp > rc and prepared != committed:
                self._flag(now, f"(d) height {h}: {hx(prepared)} reached a prepare "
                                f"quorum in round {rp}, above the commit quorum of "
                                f"{hx(committed)} in round {rc}")


class LivenessWatchdog:
    def __init__(self, config: ConsensusConfig, nodes: dict, faulty: dict, delta: int,
                 gst: int) -> None:
        self.config = config
        self.nodes = nodes  # the simulation's nodes, none of which holds it
        self.faulty = faulty
        self.delta = delta
        self.gst = gst
        self.low = -1  # the lowest honest head when the current wait started
        self.deadline = None  # when that wait must end; None before GST
        self.violations: list[str] = []

    def bound(self, round_: int) -> int:
        """The ticks a wait may last when the highest round an honest
        engine holds at its start is `round_`. Rounds `round_` to
        `round_ + f + 1` may each run out their timeout: the round held,
        up to f rounds whose proposers are faulty, and one whose proposer
        is honest. Each of those f + 1 round changes waits up to Δ for its
        ROUND_CHANGE quorum. A laggard's ROUND_CHANGE then takes up to Δ
        to reach a peer, and the sealed blocks it is missing up to Δ to
        come back. A node starts its next height one tick after it
        finalized one."""
        f = self.config.f
        timeouts = sum(self.config.base_round_timeout << r
                       for r in range(round_, round_ + f + 2))
        return timeouts + (f + 1) * self.delta + 2 * self.delta + 1

    def __call__(self, node, cause, now, result, sent) -> None:
        if now < self.gst:
            return
        if self.deadline is not None and now > self.deadline:
            self.violations.append(f"t={now}: the lowest honest head stayed at "
                                   f"{self.low} past t={self.deadline}")
            self.deadline = float("inf")  # one report for each wait
        if self.deadline is None:
            self._wait(self.gst)
        elif result.finalized is not None and node.address not in self.faulty:
            self._wait(now)

    def _wait(self, start: int) -> None:
        """Start a wait at `start` if the lowest honest head rose."""
        honest = [n for a, n in self.nodes.items() if a not in self.faulty]
        low = min(n.chain.head_height for n in honest)
        if low > self.low:
            self.low = low
            self.deadline = start + self.bound(max(n.engine.round for n in honest))
