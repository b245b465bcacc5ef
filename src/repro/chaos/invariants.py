"""Continuous safety and liveness invariant monitoring.

The paper argues Themis keeps one main chain with bounded fork duration
(Prop. 1) and that every honest node derives identical difficulty tables
without extra communication (§IV-A).  Under fault churn those claims must be
*checked*, not assumed: the :class:`InvariantMonitor` rides the event loop
of any experiment and fails fast the moment a run enters a state the paper
says is unreachable.

Safety invariants (checked within each connected component, so an armed
partition is not itself a violation):

* **common prefix** — no two healthy, connected nodes disagree on a block
  deeper than ``confirmation_depth`` below the shorter chain's head;
* **state-root agreement** — nodes with the *same* head hash must hold the
  same executed ledger state root (ledger-carrying nodes only);
* **difficulty-table agreement** — nodes mining under the *same* epoch
  anchor block must derive the identical table (epoch, base and every
  multiple).  Nodes of one run read their tables from a shared
  :class:`~repro.core.themis.ChainFacts`, so the monitor derives each
  node's table again from that node's own tree, once per (node, anchor),
  and compares it with the first table derived at that anchor — once, in
  the first sweep after the node's anchor moved.

Liveness invariant:

* **chain growth** — while a quorum of honest mining power is online and
  mutually connected, the tallest healthy chain must grow within
  ``liveness_window`` seconds.

Violations raise :class:`SafetyViolation` / :class:`LivenessViolation`
(subclasses of :class:`~repro.errors.SimulationError`) out of the event
loop, after being noted in the report.  After a partition heals the safety
cross-checks pause for ``partition_grace`` seconds — reconvergence is
Prop. 1's *job*, not a violation — and nodes mid-sync are excluded until
they catch up.  Deliberately suppressed nodes
(``exclude``, e.g. :class:`~repro.sim.attacks.VulnerableNodeAttack`
victims whose blocks are censored by the attack itself) are likewise left
out of cross-checks: §VII-D's claim is that the *other* nodes keep the
consensus, not that a censored producer converges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING, ClassVar

from repro.errors import ReproError, SimulationError
from repro.net.network import SimulatedNetwork
from repro.net.simulator import EventHandle, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.consensus.powfamily import MiningNode
    from repro.core.difficulty import DifficultyTable


class InvariantViolation(SimulationError):
    """A monitored invariant failed during a run."""


class SafetyViolation(InvariantViolation):
    """Conflicting finalized data among healthy connected nodes."""


class LivenessViolation(InvariantViolation):
    """The chain stopped growing while a healthy quorum was connected."""


@dataclass(frozen=True)
class InvariantConfig:
    """Monitor tuning.

    Attributes:
        confirmation_depth: blocks below the shortest healthy head that are
            considered settled; disagreement there is a safety violation.
        check_interval: simulated seconds between sweeps.
        liveness_window: no-growth tolerance in seconds (None disables the
            liveness check).

    Fixed, not fields:
        quorum: fraction of total mining power that must be online and
            connected for the liveness clock to run.
        partition_grace: seconds after a heal during which cross-node
            safety checks are suspended while fork choice reconverges.
    """

    confirmation_depth: int = 16
    check_interval: float = 10.0
    liveness_window: float | None = None
    quorum: ClassVar[float] = 0.5
    partition_grace: ClassVar[float] = 60.0

    def __post_init__(self) -> None:
        if self.confirmation_depth < 1:
            raise SimulationError("confirmation_depth must be >= 1")
        if self.check_interval <= 0:
            raise SimulationError("check_interval must be positive")
        if self.liveness_window is not None and self.liveness_window <= 0:
            raise SimulationError("liveness_window must be positive")


@dataclass
class InvariantReport:
    """What the monitor saw over one run."""

    checks_run: int = 0
    safety_violations: int = 0
    liveness_violations: int = 0
    max_height_seen: int = 0
    last_growth_time: float = 0.0
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no invariant was ever violated."""
        return self.safety_violations == 0 and self.liveness_violations == 0

    def summary(self) -> str:
        status = "OK" if self.clean else "VIOLATED"
        return (
            f"invariants {status}: {self.checks_run} checks, "
            f"{self.safety_violations} safety / {self.liveness_violations} liveness "
            f"violations, max height {self.max_height_seen}"
        )


class InvariantMonitor:
    """Periodic invariant sweeps over a fleet of mining nodes.

    The liveness quorum weighs each node by its configured
    ``config.hash_rate``; nodes in ``exclude`` sit out the cross-checks.
    """

    def __init__(
        self,
        nodes: Sequence["MiningNode"],
        network: SimulatedNetwork,
        sim: Simulator,
        config: InvariantConfig | None = None,
        exclude: Sequence[int] = (),
    ) -> None:
        self.nodes = list(nodes)
        self.exclude = frozenset(exclude)
        self.network = network
        self.sim = sim
        self.config = config or InvariantConfig()
        self.report = InvariantReport()
        self._handle: EventHandle | None = None
        self._last_partition_map: dict[int, int] | None = None
        self._partition_changed_at = -float("inf")
        self._running = False
        self._derived: dict[tuple[int, bytes], "DifficultyTable"] = {}
        # The distinct tables (by value) derived at each anchor.  A derived
        # table is replaced by its equal here, so each (node, anchor) is
        # compared by value once and the check compares identities.
        self._distinct: dict[bytes, list["DifficultyTable"]] = {}
        # The first table checked at each anchor, and its node; and the
        # anchor each node last passed the check at.  Both tables of a
        # comparison are fixed once derived, so a node whose anchor has not
        # moved since it passed would pass again and is not re-checked.
        self._reference: dict[bytes, tuple[int, "DifficultyTable"]] = {}
        self._passed_at: dict[int, bytes] = {}

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic sweeps (idempotent)."""
        if self._running:
            return
        self._running = True
        self.report.last_growth_time = self.sim.now
        self._handle = self.sim.schedule(self.config.check_interval, self._tick)

    def stop(self) -> None:
        """Stop sweeping (the report keeps its history)."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.check_now()
        self._handle = self.sim.schedule(self.config.check_interval, self._tick)

    # -- checks ----------------------------------------------------------------------

    def check_now(self) -> None:
        """Run one full sweep immediately (also used by tests)."""
        self.report.checks_run += 1
        self._note_partition_changes()
        components = self._connected_components()
        in_grace = (
            self.sim.now - self._partition_changed_at < self.config.partition_grace
        )
        for component in components:
            settled = [node for node in component if not node.sync.active]
            if not in_grace:
                self._check_common_prefix(settled)
            self._check_state_roots(settled)
            self._check_difficulty_tables(settled)
        self._check_liveness(components)

    def _violate(self, exc_type: type[InvariantViolation], message: str) -> None:
        message = f"[t={self.sim.now:.3f}] {message}"
        self.report.violations.append(message)
        if exc_type is LivenessViolation:
            self.report.liveness_violations += 1
        else:
            self.report.safety_violations += 1
        raise exc_type(message)

    def _note_partition_changes(self) -> None:
        current = self.network.partition_map
        if current != self._last_partition_map:
            self._last_partition_map = current
            self._partition_changed_at = self.sim.now

    def _connected_components(self) -> list[list["MiningNode"]]:
        """Online nodes grouped by mutual reachability (partition groups)."""
        online = [
            node
            for node in self.nodes
            if node.node_id not in self.exclude
            and not self.network.is_offline(node.node_id)
        ]
        partition = self.network.partition_map
        if partition is None:
            return [online] if online else []
        groups: dict[int | None, list["MiningNode"]] = {}
        for node in online:
            groups.setdefault(partition.get(node.node_id), []).append(node)
        # Unlisted nodes keep full connectivity with every group (see
        # SimulatedNetwork.set_partition); attach them to every component so
        # cross-checks still cover them.
        bridge = groups.pop(None, [])
        components = [group + bridge for group in groups.values()]
        if not components and bridge:
            components = [bridge]
        return components

    def _check_common_prefix(self, nodes: list["MiningNode"]) -> None:
        if len(nodes) < 2:
            return
        settled_height = (
            min(node.state.height() for node in nodes) - self.config.confirmation_depth
        )
        if settled_height < 1:
            return
        seen: dict[bytes, int] = {}
        for node in nodes:
            block_id = node.state.block_at(settled_height).block_id
            seen.setdefault(block_id, node.node_id)
        if len(seen) > 1:
            owners = ", ".join(
                f"node {owner}:{block_id.hex()[:10]}"
                for block_id, owner in sorted(seen.items())
            )
            self._violate(
                SafetyViolation,
                f"conflicting settled blocks at height {settled_height} "
                f"(depth {self.config.confirmation_depth}): {owners}",
            )

    def _check_state_roots(self, nodes: list["MiningNode"]) -> None:
        by_head: dict[bytes, dict[bytes, int]] = {}
        for node in nodes:
            state_root = getattr(node, "state_root", None)
            if state_root is None:
                continue
            roots = by_head.setdefault(node.state.head_id, {})
            roots.setdefault(state_root(), node.node_id)
        for head, roots in sorted(by_head.items()):
            if len(roots) > 1:
                owners = ", ".join(
                    f"node {owner}:{root.hex()[:10]}"
                    for root, owner in sorted(roots.items())
                )
                self._violate(
                    SafetyViolation,
                    f"divergent state roots at head {head.hex()[:10]}: {owners}",
                )

    def _own_table(self, node: "MiningNode", anchor: bytes) -> "DifficultyTable":
        """``node``'s table at ``anchor``, derived from its own tree alone and
        returned as the first equal table derived there (see ``_distinct``)."""
        key = (node.node_id, anchor)
        table = self._derived.get(key)
        if table is None:
            derived = node.state.derive_table(anchor, lambda prev: self._own_table(node, prev))
            distinct = self._distinct.setdefault(anchor, [])
            # Equal means epoch, base and every multiple.
            table = next((known for known in distinct if known == derived), None)
            if table is None:
                distinct.append(derived)
                table = derived
            self._derived[key] = table
        return table

    def _check_difficulty_tables(self, nodes: list["MiningNode"]) -> None:
        for node in nodes:
            state = node.state
            boundary = state.height() // state.epoch_blocks * state.epoch_blocks
            anchor = state.block_at(boundary).block_id
            if self._passed_at.get(node.node_id) == anchor:
                continue
            try:
                table = self._own_table(node, anchor)
            except ReproError:
                # A state that cannot derive a table for its next height
                # (pruned prefix, ...) is skipped, not a violation —
                # ChainError and DifficultyError are not SimulationError
                # subclasses, so catch the library root.
                continue
            owner, reference = self._reference.setdefault(anchor, (node.node_id, table))
            if table is not reference:  # unequal: equal tables are one object
                self._violate(
                    SafetyViolation,
                    f"difficulty-table disagreement at anchor {anchor.hex()[:10]} "
                    f"(epoch {reference.epoch}): node {owner} vs node {node.node_id}",
                )
            self._passed_at[node.node_id] = anchor

    def _check_liveness(self, components: list[list["MiningNode"]]) -> None:
        tallest = max(
            (
                node.state.height()
                for component in components
                for node in component
            ),
            default=self.report.max_height_seen,
        )
        if tallest > self.report.max_height_seen:
            self.report.max_height_seen = tallest
            self.report.last_growth_time = self.sim.now
            return
        if self.config.liveness_window is None:
            return
        total_power = sum(node.config.hash_rate for node in self.nodes)
        if total_power <= 0:
            return
        quorum_power = max(
            (
                sum(node.config.hash_rate for node in component)
                for component in components
            ),
            default=0.0,
        )
        if quorum_power / total_power < self.config.quorum:
            # No connected quorum: stalling is expected; hold the clock.
            self.report.last_growth_time = self.sim.now
            return
        stalled_for = self.sim.now - self.report.last_growth_time
        if stalled_for > self.config.liveness_window:
            self.report.last_growth_time = self.sim.now  # avoid re-firing every tick
            self._violate(
                LivenessViolation,
                f"no main-chain growth for {stalled_for:.1f}s "
                f"(window {self.config.liveness_window:.1f}s) while "
                f"{100 * quorum_power / total_power:.0f}% of power is connected",
            )
