"""Fault specifications and the controller that applies them.

The fault model covers the dynamic adversities a consortium deployment must
survive beyond the paper's static attacks (§VII-A arms drop filters once and
leaves them):

* **crash / restart** — a node's process dies (volatile state lost, chain
  store kept) and later rejoins through the chain-sync protocol;
* **transient partition** — the overlay splits into groups and heals;
* **link degradation** — loss, duplication, reordering and bandwidth
  throttling on a subset of links (:class:`~repro.net.network.LinkDisturbance`);
* **clock skew** — a node's block timestamps drift, stressing the
  self-adaptive difficulty's interval measurement (§IV-B).

Fault *specs* are frozen, hashable dataclasses with absolute simulated
times, so a :class:`~repro.chaos.schedule.FaultPlan` can ride inside the
(frozen, cache-keyed) :class:`~repro.sim.runner.ExperimentConfig`.  The
:class:`ChaosController` applies them to a live fleet and records every
action in an append-only fault log whose :func:`fault_log_signature` is the
reproducibility contract: same plan + same seed ⇒ identical log.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any, ClassVar, Union

from repro.errors import SimulationError
from repro.net.network import SimulatedNetwork
from repro.net.transport import LinkDisturbance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.consensus.powfamily import MiningNode
    from repro.net.clock import Clock


# -- fault specifications -------------------------------------------------------------


@dataclass(frozen=True)
class CrashFault:
    """Crash ``node`` at ``at``; restart at ``restart_at`` (never if None)."""

    kind: ClassVar[str] = "crash"
    node: int
    at: float
    restart_at: float | None = None

    def validate(self) -> None:
        if self.at < 0:
            raise SimulationError("crash time must be non-negative")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise SimulationError("restart must come after the crash")


@dataclass(frozen=True)
class PartitionFault:
    """Split the overlay into ``groups`` at ``at``; heal at ``heal_at``."""

    kind: ClassVar[str] = "partition"
    groups: tuple[tuple[int, ...], ...]
    at: float
    heal_at: float | None = None

    def validate(self) -> None:
        if self.at < 0:
            raise SimulationError("partition time must be non-negative")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise SimulationError("heal must come after the partition")
        if len(self.groups) < 2:
            raise SimulationError("a partition needs at least two groups")
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise SimulationError("partition groups must be non-empty")
            overlap = seen.intersection(group)
            if overlap:
                raise SimulationError(
                    f"node {min(overlap)} appears in more than one partition group"
                )
            seen.update(group)


@dataclass(frozen=True)
class LinkFault:
    """Degrade links touching ``nodes`` (all links when None) in a window."""

    kind: ClassVar[str] = "link"
    at: float
    until: float | None = None
    nodes: tuple[int, ...] | None = None
    loss: float = 0.0
    duplicate: float = 0.0
    reorder_jitter: float = 0.0
    bandwidth_factor: float = 1.0

    def validate(self) -> None:
        if self.at < 0:
            raise SimulationError("link-fault time must be non-negative")
        if self.until is not None and self.until <= self.at:
            raise SimulationError("link-fault window must have positive length")
        # Delegates range checks to LinkDisturbance's own validation.
        self.disturbance()

    def disturbance(self) -> LinkDisturbance:
        return LinkDisturbance(
            loss=self.loss,
            duplicate=self.duplicate,
            reorder_jitter=self.reorder_jitter,
            bandwidth_factor=self.bandwidth_factor,
        )


@dataclass(frozen=True)
class ClockSkewFault:
    """Offset ``node``'s clock by ``skew`` seconds within a window.

    Keep ``|skew|`` well below one epoch's wall time: the difficulty
    retarget divides by the observed epoch interval, which clamps at a tiny
    positive floor when skew inverts it (see ``table_for_anchor``).
    """

    kind: ClassVar[str] = "clock_skew"
    node: int
    skew: float
    at: float
    until: float | None = None

    def validate(self) -> None:
        if self.at < 0:
            raise SimulationError("skew time must be non-negative")
        if self.until is not None and self.until <= self.at:
            raise SimulationError("skew window must have positive length")


#: The members are the registry: each declares the ``kind`` it is tagged with
#: in JSON (CrashFault and ClockSkewFault share field names, so a bare field
#: dump is ambiguous) and :mod:`repro.serde` reads a spec back by that tag.
FaultSpec = Union[CrashFault, PartitionFault, LinkFault, ClockSkewFault]


# -- fault log --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault action, as recorded in the reproducible log."""

    time: float
    action: str
    detail: tuple[tuple[str, Any], ...] = ()

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail)
        return f"[{self.time:10.3f}] {self.action:<18s} {extra}"


def fault_log_signature(log: Sequence[FaultEvent]) -> str:
    """Stable digest of a fault log — equal across bit-identical replays."""
    digest = sha256()
    for event in log:
        digest.update(repr((round(event.time, 9), event.action, event.detail)).encode())
    return digest.hexdigest()


# -- controller -------------------------------------------------------------------------


class ChaosController:
    """Applies fault actions to a live fleet and logs every one of them.

    The controller is the single write path for faults: scheduler events,
    tests and examples all go through it, so the fault log is a complete
    record of what was injected — the first thing a post-mortem reads.
    """

    def __init__(
        self,
        nodes: Sequence["MiningNode"],
        network: SimulatedNetwork,
        sim: "Clock",
    ) -> None:
        self.nodes: dict[int, "MiningNode"] = {node.node_id: node for node in nodes}
        self.network = network
        self.sim = sim
        self.log: list[FaultEvent] = []
        self._link_fault_counter = 0
        self._produced_at_restart: dict[int, int] = {}

    def _record(self, action: str, **detail: Any) -> None:
        event = FaultEvent(
            time=self.sim.now,
            action=action,
            detail=tuple(sorted(detail.items())),
        )
        self.log.append(event)

    def _node(self, node_id: int) -> "MiningNode":
        node = self.nodes.get(node_id)
        if node is None:
            raise SimulationError(f"chaos target {node_id} is not in the fleet")
        return node

    # -- crash / restart ---------------------------------------------------------

    def crash_node(self, node_id: int) -> None:
        node = self._node(node_id)
        if node.crashed:
            return
        node.crash()
        self._record("crash", node=node_id, height=node.state.height())

    def restart_node(self, node_id: int, sync_peer: int | None = None) -> None:
        node = self._node(node_id)
        if not node.crashed:
            return
        node.restart(sync_peer)
        self._produced_at_restart[node_id] = node.stats.blocks_produced
        self._record("restart", node=node_id, height=node.state.height())

    def recovered_producer_count(self) -> int:
        """Restarted nodes that produced at least one block after rejoining.

        The acceptance evidence for crash recovery: a node that synced back
        but never mines again did *not* resume at a usable difficulty.
        """
        return sum(
            1
            for node_id, baseline in self._produced_at_restart.items()
            if self.nodes[node_id].stats.blocks_produced > baseline
        )

    # -- partitions ---------------------------------------------------------------

    def start_partition(self, groups: Iterable[Iterable[int]]) -> None:
        groups = [list(group) for group in groups]
        self.network.set_partition(groups)
        self._record(
            "partition", groups=tuple(tuple(sorted(g)) for g in groups)
        )

    def heal_partition(self) -> None:
        if self.network.partition_map is None:
            return
        self.network.set_partition(None)
        self._record("heal")

    # -- link degradation ------------------------------------------------------------

    def apply_link_fault(
        self,
        disturbance: LinkDisturbance,
        nodes: Iterable[int] | None = None,
        name: str | None = None,
    ) -> str:
        """Install a named link disturbance; returns the name for clearing."""
        if name is None:
            name = f"chaos-link-{self._link_fault_counter}"
            self._link_fault_counter += 1
        scope = tuple(sorted(nodes)) if nodes is not None else None
        self.network.set_link_disturbance(name, disturbance, nodes)
        self._record(
            "link_fault",
            name=name,
            nodes=scope,
            loss=disturbance.loss,
            duplicate=disturbance.duplicate,
            reorder_jitter=disturbance.reorder_jitter,
            bandwidth_factor=disturbance.bandwidth_factor,
        )
        return name

    def clear_link_fault(self, name: str) -> None:
        if name not in self.network.active_disturbances():
            return
        self.network.set_link_disturbance(name, None)
        self._record("link_heal", name=name)

    # -- clock skew ----------------------------------------------------------------------

    def set_clock_skew(self, node_id: int, skew: float) -> None:
        node = self._node(node_id)
        node.clock_skew = skew
        self._record("clock_skew", node=node_id, skew=skew)

    def clear_clock_skew(self, node_id: int) -> None:
        node = self._node(node_id)
        if node.clock_skew == 0.0:
            return
        node.clock_skew = 0.0
        self._record("clock_heal", node=node_id)
