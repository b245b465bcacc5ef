"""Deterministic, seeded fault scheduling.

A :class:`FaultPlan` is a frozen, ordered set of fault specs with absolute
simulated times — pure data, hashable, serializable, and independent of the
run it is applied to.  :func:`random_fault_plan` generates one from its own
seeded generator (deliberately *not* the simulator's: generating a plan must
never perturb the run's random stream, so the same experiment seed with and
without faults stays comparable).  :class:`FaultScheduler` arms a plan onto
a live :class:`~repro.chaos.faults.ChaosController` as plain simulator
events.

Replayability contract: the same plan applied to the same seeded experiment
produces a bit-identical fault log (``fault_log_signature``) and an
identical final chain — this is asserted by ``tests/test_chaos.py``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import pairwise
from typing import Any

import numpy as np

from repro.chaos.faults import (
    ChaosController,
    ClockSkewFault,
    CrashFault,
    FaultSpec,
    LinkFault,
    PartitionFault,
)
from repro.errors import SimulationError
from repro.serde import to_json


def _exclusive_window(
    fault: FaultSpec,
) -> tuple[tuple[str, int | None], float, float] | None:
    """``(target, start, end)`` of a fault that must not overlap another on
    its target, or ``None`` for a link fault (they compose by name).

    The overlay has one partition at a time; a node has one crash and one
    clock offset at a time.  A second window opened inside the first would
    be cancelled by the first one's close.  An open window runs to the end
    of the run.
    """
    if isinstance(fault, PartitionFault):
        node, end = None, fault.heal_at
    elif isinstance(fault, CrashFault):
        node, end = fault.node, fault.restart_at
    elif isinstance(fault, ClockSkewFault):
        node, end = fault.node, fault.until
    else:
        return None
    return (fault.kind, node), fault.at, math.inf if end is None else end


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault injection schedule.

    Construction validates every fault and refuses two windows that overlap
    on one target (see :func:`_exclusive_window`), so an armed plan applies
    exactly the faults it lists.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for fault in self.faults:
            fault.validate()
        windows = sorted(w for f in self.faults if (w := _exclusive_window(f)) is not None)
        for (target, _, end), (next_target, start, _) in pairwise(windows):
            if target == next_target and start < end:
                kind, node = target
                where = "" if node is None else f" on node {node}"
                raise SimulationError(
                    f"two {kind} windows overlap{where} (one opens at {start} "
                    f"before the other closes at {end})"
                )

    def __len__(self) -> int:
        return len(self.faults)

    def crashed_nodes(self) -> set[int]:
        """Every node id that crashes at some point under this plan."""
        return {f.node for f in self.faults if isinstance(f, CrashFault)}

    def sorted_faults(self) -> list[FaultSpec]:
        return sorted(self.faults, key=lambda f: f.at)


def plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    """JSON-safe dictionary form of a whole plan (each fault tagged ``kind``)."""
    return to_json(plan)


#: Draws of one window before a plan with no room left is refused.
_WINDOW_DRAWS = 100


def _free_window(
    taken: list[tuple[float, float]], draw: Callable[[], tuple[float, float]]
) -> tuple[float, float]:
    """The first drawn ``(start, end)`` that overlaps no window in ``taken``.

    A window that fits on the first draw costs no extra random numbers, so
    a plan whose windows never collide is the plan of a plain draw.
    """
    for _ in range(_WINDOW_DRAWS):
        start, end = draw()
        if all(end <= other_start or other_end <= start for other_start, other_end in taken):
            taken.append((start, end))
            return start, end
    raise SimulationError("no room left for another non-overlapping fault window")


def random_fault_plan(
    seed: int,
    node_ids: Sequence[int],
    duration: float,
    *,
    churn: float = 0.2,
    crashes: int | None = None,
    partitions: int = 0,
    link_faults: int = 0,
    clock_skews: int = 0,
    max_skew: float = 2.0,
    spare: int = 1,
) -> FaultPlan:
    """Generate a seeded random plan over ``[0, duration]`` simulated seconds.

    Args:
        seed: plan seed — same seed, same plan, independent of the run seed.
        node_ids: fleet membership the plan draws victims from.
        duration: the expected run length the fault windows are placed in.
        churn: fraction of nodes that crash and restart (when ``crashes``
            is not given) — 0.2 is the benchmark's "20 % node churn".
        crashes: exact crash count, overriding ``churn``.
        partitions: healing partitions to schedule (each splits off a random
            minority group and heals within the run; a window that would
            overlap an earlier one is drawn again).
        link_faults: lossy/duplicating/reordering link windows to schedule.
        clock_skews: clock-skewed-mining windows to schedule (likewise
            redrawn while one would overlap an earlier one on its node).
        max_skew: largest absolute clock offset, seconds.
        spare: nodes guaranteed never to crash (observers need one).
    """
    if duration <= 0:
        raise SimulationError("plan duration must be positive")
    if not 0.0 <= churn <= 1.0:
        raise SimulationError("churn must be in [0, 1]")
    rng = np.random.default_rng(seed)
    ids = list(node_ids)
    crash_count = crashes if crashes is not None else round(churn * len(ids))
    crash_count = min(crash_count, max(0, len(ids) - max(spare, 0)))
    faults: list[FaultSpec] = []

    # Crash/restart churn: crashes land in the middle of the run so the
    # bootstrap calibration stays clean, and every restart completes by 70%
    # of the run — recovery (sync + at least one produced block) must be
    # observable before the run ends.
    if crash_count > 0:
        victims = sorted(int(v) for v in rng.choice(ids, crash_count, replace=False))
        for victim in victims:
            at = float(rng.uniform(0.15, 0.45)) * duration
            downtime = float(rng.uniform(0.08, 0.20)) * duration
            faults.append(
                CrashFault(node=victim, at=at, restart_at=min(at + downtime, 0.7 * duration))
            )
    else:
        victims = []

    never_crash = [i for i in ids if i not in set(victims)]

    def partition_window() -> tuple[float, float]:
        at = float(rng.uniform(0.15, 0.5)) * duration
        heal_at = at + float(rng.uniform(0.08, 0.2)) * duration
        return at, min(heal_at, 0.85 * duration)

    partition_windows: list[tuple[float, float]] = []
    for _ in range(partitions):
        # Split off a random minority (a quarter to a half of the fleet,
        # at least one node) and heal within the run.
        minority_size = max(1, int(rng.integers(len(ids) // 4 or 1, len(ids) // 2 + 1)))
        minority = {int(v) for v in rng.choice(ids, minority_size, replace=False)}
        majority = tuple(i for i in ids if i not in minority)
        at, heal_at = _free_window(partition_windows, partition_window)
        faults.append(
            PartitionFault(groups=(majority, tuple(sorted(minority))), at=at, heal_at=heal_at)
        )

    for _ in range(link_faults):
        scope_size = max(2, len(ids) // 3)
        scope = tuple(sorted(int(v) for v in rng.choice(ids, scope_size, replace=False)))
        at = float(rng.uniform(0.1, 0.6)) * duration
        until = at + float(rng.uniform(0.1, 0.25)) * duration
        faults.append(
            LinkFault(
                at=at,
                until=min(until, 0.9 * duration),
                nodes=scope,
                loss=float(rng.uniform(0.05, 0.25)),
                duplicate=float(rng.uniform(0.0, 0.1)),
                reorder_jitter=float(rng.uniform(0.0, 0.3)),
                bandwidth_factor=float(rng.uniform(1.0, 3.0)),
            )
        )

    def skew_window() -> tuple[float, float]:
        at = float(rng.uniform(0.1, 0.6)) * duration
        until = at + float(rng.uniform(0.1, 0.3)) * duration
        return at, min(until, 0.9 * duration)

    skew_windows: dict[int, list[tuple[float, float]]] = {}
    for _ in range(clock_skews):
        pool = never_crash or ids
        node = int(pool[int(rng.integers(len(pool)))])
        at, until = _free_window(skew_windows.setdefault(node, []), skew_window)
        skew = float(rng.uniform(0.25 * max_skew, max_skew)) * (
            1.0 if rng.random() < 0.5 else -1.0
        )
        faults.append(ClockSkewFault(node=node, skew=skew, at=at, until=until))

    return FaultPlan(faults=tuple(sorted(faults, key=lambda f: (f.at, repr(f)))))


class FaultScheduler:
    """Arms a :class:`FaultPlan` onto a controller's simulator."""

    def __init__(self, controller: ChaosController, plan: FaultPlan) -> None:
        self.controller = controller
        self.plan = plan
        self._armed = False

    def arm(self) -> "FaultScheduler":
        """Schedule every fault action as a simulator event; idempotent."""
        if self._armed:
            return self
        self._armed = True
        sim = self.controller.sim
        for index, fault in enumerate(self.plan.sorted_faults()):
            if isinstance(fault, CrashFault):
                sim.schedule_at(
                    fault.at, lambda f=fault: self.controller.crash_node(f.node)
                )
                if fault.restart_at is not None:
                    sim.schedule_at(
                        fault.restart_at,
                        lambda f=fault: self.controller.restart_node(f.node),
                    )
            elif isinstance(fault, PartitionFault):
                sim.schedule_at(
                    fault.at,
                    lambda f=fault: self.controller.start_partition(f.groups),
                )
                if fault.heal_at is not None:
                    sim.schedule_at(
                        fault.heal_at, lambda: self.controller.heal_partition()
                    )
            elif isinstance(fault, LinkFault):
                name = f"plan-link-{index}"
                sim.schedule_at(
                    fault.at,
                    lambda f=fault, name=name: self.controller.apply_link_fault(
                        f.disturbance(), f.nodes, name=name
                    ),
                )
                if fault.until is not None:
                    sim.schedule_at(
                        fault.until,
                        lambda name=name: self.controller.clear_link_fault(name),
                    )
            elif isinstance(fault, ClockSkewFault):
                sim.schedule_at(
                    fault.at,
                    lambda f=fault: self.controller.set_clock_skew(f.node, f.skew),
                )
                if fault.until is not None:
                    sim.schedule_at(
                        fault.until,
                        lambda f=fault: self.controller.clear_clock_skew(f.node),
                    )
            else:  # pragma: no cover - exhaustive over FaultSpec
                raise SimulationError(f"unknown fault spec {fault!r}")
        return self
