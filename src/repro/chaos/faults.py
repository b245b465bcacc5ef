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
(frozen, cache-keyed) :class:`~repro.sim.runner.ExperimentConfig`.  Each
spec starts and stops itself on a :class:`ChaosController` — the fleet
handles plus an append-only fault log whose :func:`fault_log_signature` is
the reproducibility contract: same plan + same seed ⇒ identical log.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, ClassVar, Union

from repro.errors import SimulationError
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.transport import LinkDisturbance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.consensus.powfamily import MiningNode


# -- fault specifications -------------------------------------------------------------
#
# Besides its fields each spec declares ``target`` (the key two of its windows
# may not share at once; None if windows compose), ``end`` (None: never) and
# ``start`` / ``stop``, which change the fleet and log it.  A repeat that would
# be a no-op (second crash, heal without partition, clear of zero skew) logs
# nothing.


@dataclass(frozen=True)
class CrashFault:
    """Crash ``node`` at ``at``; restart at ``restart_at`` (never if None)."""

    kind: ClassVar[str] = "crash"
    node: int
    at: float
    restart_at: float | None = None

    @property
    def target(self) -> tuple[str, int | None]:
        return self.kind, self.node

    @property
    def end(self) -> float | None:
        return self.restart_at

    def validate(self) -> None:
        if self.at < 0:
            raise SimulationError("crash time must be non-negative")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise SimulationError("restart must come after the crash")

    def start(self, controller: ChaosController, name: str) -> None:
        node = controller.node(self.node)
        if node.crashed:
            return
        node.crash()
        controller.record("crash", node=self.node, height=node.state.height())

    def stop(self, controller: ChaosController, name: str) -> None:
        node = controller.node(self.node)
        if not node.crashed:
            return
        node.restart()
        controller.produced_at_restart[self.node] = node.stats.blocks_produced
        controller.record("restart", node=self.node, height=node.state.height())


@dataclass(frozen=True)
class PartitionFault:
    """Split the overlay into ``groups`` at ``at``; heal at ``heal_at``."""

    kind: ClassVar[str] = "partition"
    groups: tuple[tuple[int, ...], ...]
    at: float
    heal_at: float | None = None

    @property
    def target(self) -> tuple[str, int | None]:
        return self.kind, None

    @property
    def end(self) -> float | None:
        return self.heal_at

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

    def start(self, controller: ChaosController, name: str) -> None:
        controller.network.set_partition([list(group) for group in self.groups])
        controller.record("partition", groups=tuple(tuple(sorted(g)) for g in self.groups))

    def stop(self, controller: ChaosController, name: str) -> None:
        if controller.network.partition_map is None:
            return
        controller.network.set_partition(None)
        controller.record("heal")


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

    @property
    def target(self) -> None:
        """Link disturbances compose in name order, so windows may overlap."""
        return None

    @property
    def end(self) -> float | None:
        return self.until

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

    def start(self, controller: ChaosController, name: str) -> None:
        """Install the disturbance under ``name`` (the handle ``stop`` clears)."""
        controller.network.set_link_disturbance(name, self.disturbance(), self.nodes)
        controller.record(
            "link_fault",
            name=name,
            nodes=tuple(sorted(self.nodes)) if self.nodes is not None else None,
            loss=self.loss,
            duplicate=self.duplicate,
            reorder_jitter=self.reorder_jitter,
            bandwidth_factor=self.bandwidth_factor,
        )

    def stop(self, controller: ChaosController, name: str) -> None:
        if name not in controller.network.active_disturbances():
            return
        controller.network.set_link_disturbance(name, None)
        controller.record("link_heal", name=name)


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

    @property
    def target(self) -> tuple[str, int | None]:
        return self.kind, self.node

    @property
    def end(self) -> float | None:
        return self.until

    def validate(self) -> None:
        if self.at < 0:
            raise SimulationError("skew time must be non-negative")
        if self.until is not None and self.until <= self.at:
            raise SimulationError("skew window must have positive length")

    def start(self, controller: ChaosController, name: str) -> None:
        controller.node(self.node).clock_skew = self.skew
        controller.record("clock_skew", node=self.node, skew=self.skew)

    def stop(self, controller: ChaosController, name: str) -> None:
        node = controller.node(self.node)
        if node.clock_skew == 0.0:
            return
        node.clock_skew = 0.0
        controller.record("clock_heal", node=self.node)


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
    """The fleet a plan's faults act on, and the log of every action taken.

    Every spec's ``start`` / ``stop`` writes through :meth:`record`, whether
    an armed plan, a test or an example calls it, so the fault log is a
    complete record of what was injected — the first thing a post-mortem
    reads.
    """

    def __init__(
        self,
        nodes: Sequence["MiningNode"],
        network: SimulatedNetwork,
        sim: Simulator,
    ) -> None:
        self.nodes: dict[int, "MiningNode"] = {node.node_id: node for node in nodes}
        self.network = network
        self.sim = sim
        self.log: list[FaultEvent] = []
        #: Blocks each restarted node had produced when it came back.
        self.produced_at_restart: dict[int, int] = {}

    def record(self, action: str, **detail: Any) -> None:
        self.log.append(
            FaultEvent(time=self.sim.now, action=action, detail=tuple(sorted(detail.items())))
        )

    def node(self, node_id: int) -> "MiningNode":
        node = self.nodes.get(node_id)
        if node is None:
            raise SimulationError(f"chaos target {node_id} is not in the fleet")
        return node

    def recovered_producer_count(self) -> int:
        """Restarted nodes that produced at least one block after rejoining.

        The acceptance evidence for crash recovery: a node that synced back
        but never mines again did *not* resume at a usable difficulty.
        """
        return sum(
            1
            for node_id, baseline in self.produced_at_restart.items()
            if self.nodes[node_id].stats.blocks_produced > baseline
        )
