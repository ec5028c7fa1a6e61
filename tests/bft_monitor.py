"""A safety monitor for the consensus engine, checked after every step.

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
"""

from __future__ import annotations

from ledgersim.consensus import COMMIT, PREPARE, ConsensusConfig, ConsensusMessage
from ledgersim.model import hx


def install(sim) -> "BftMonitor":
    """Watch `sim` from now on. The monitor reads the simulation's set of
    faulty validators, which a scheduled fault joins when it is scheduled."""
    monitor = BftMonitor(sim.config, sim._ever_byzantine)
    sim.observers.append(monitor)
    return monitor


class BftMonitor:
    def __init__(self, config: ConsensusConfig, faulty: set) -> None:
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
