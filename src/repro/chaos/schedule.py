"""Deterministic, seeded fault scheduling.

A :class:`FaultPlan` is a frozen, ordered set of fault specs with absolute
simulated times — pure data, hashable, serializable, and independent of the
run it is applied to.  :func:`random_fault_plan` generates one from its own
seeded generator (deliberately *not* the simulator's: generating a plan must
never perturb the run's random stream, so the same experiment seed with and
without faults stays comparable).  :meth:`FaultPlan.arm` schedules each
spec's own ``start`` and ``stop`` on a live
:class:`~repro.chaos.faults.ChaosController` as plain simulator events.

Replayability contract: the same plan applied to the same seeded experiment
produces a bit-identical fault log (``fault_log_signature``) and an
identical final chain — this is asserted by ``tests/test_chaos.py``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import pairwise
from typing import Any, TypeVar, cast

from repro.chaos.faults import (
    ChaosController,
    ClockSkewFault,
    CrashFault,
    FaultSpec,
    LinkFault,
    PartitionFault,
)
from repro.errors import SimulationError
from repro.rng import below, distinct, seeded_rng
from repro.serde import to_json


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault injection schedule.

    Construction validates every fault and refuses two windows that overlap
    on one ``target`` — the overlay has one partition at a time, a node one
    crash and one clock offset — since the first window's close would cancel
    the second.  An open window runs to the end of the run.  So an armed
    plan applies exactly the faults it lists.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        for fault in self.faults:
            fault.validate()
        windows = sorted(
            (key, f.at, math.inf if f.end is None else f.end)
            for f in self.faults
            if (key := f.target) is not None
        )
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
        return {cast(CrashFault, f).node for f in self.faults if f.kind == CrashFault.kind}

    def arm(self, controller: ChaosController) -> None:
        """Schedule each fault's ``start`` at ``at`` and ``stop`` at ``end``.

        Faults go in ``at`` order, the ``i``-th named ``plan-{kind}-{i}``
        (the name a link fault installs its disturbance under).
        """
        sim = controller.sim
        for index, fault in enumerate(sorted(self.faults, key=lambda f: f.at)):
            name = f"plan-{fault.kind}-{index}"
            sim.schedule_at(fault.at, partial(fault.start, controller, name))
            if fault.end is not None:
                sim.schedule_at(fault.end, partial(fault.stop, controller, name))


def plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    """JSON-safe dictionary form of a whole plan (each fault tagged ``kind``)."""
    return to_json(plan)


T = TypeVar("T")

#: Draws of one window before a plan with no room left is refused.
_WINDOW_DRAWS = 100


def _free_window(
    taken: dict[T, list[tuple[float, float]]], draw: Callable[[], tuple[T, float, float]]
) -> tuple[T, float, float]:
    """The first drawn ``(target, start, end)`` whose window overlaps none
    already ``taken`` on its target.

    The target is drawn again with its window, so one crowded target does
    not refuse a plan another target has room for.  A window that fits on
    the first draw costs no extra random numbers, so a plan whose windows
    never collide is the plan of a plain draw.
    """
    for _ in range(_WINDOW_DRAWS):
        target, start, end = draw()
        windows = taken.setdefault(target, [])
        if all(end <= other_start or other_end <= start for other_start, other_end in windows):
            windows.append((start, end))
            return target, start, end
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
        seed: plan seed — same seed, same plan, independent of the run seed
            (a non-negative integer, :func:`repro.rng.seeded_rng`).
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
    rng = seeded_rng(seed)
    ids = list(node_ids)
    crash_count = crashes if crashes is not None else round(churn * len(ids))
    crash_count = min(crash_count, max(0, len(ids) - max(spare, 0)))
    faults: list[FaultSpec] = []

    # Crash/restart churn: crashes land in the middle of the run so the
    # bootstrap calibration stays clean, and every restart completes by 70%
    # of the run — recovery (sync + at least one produced block) must be
    # observable before the run ends.
    if crash_count > 0:
        victims = sorted(distinct(rng, ids, crash_count))
        for victim in victims:
            at = rng.uniform(0.15, 0.45) * duration
            downtime = rng.uniform(0.08, 0.20) * duration
            faults.append(
                CrashFault(node=victim, at=at, restart_at=min(at + downtime, 0.7 * duration))
            )
    else:
        victims = []

    never_crash = [i for i in ids if i not in set(victims)]

    def partition_window() -> tuple[None, float, float]:
        at = rng.uniform(0.15, 0.5) * duration
        heal_at = at + rng.uniform(0.08, 0.2) * duration
        return None, at, min(heal_at, 0.85 * duration)

    partition_windows: dict[None, list[tuple[float, float]]] = {}
    for _ in range(partitions):
        # Split off a random minority (a quarter to a half of the fleet,
        # at least one node) and heal within the run.
        low = len(ids) // 4 or 1
        minority_size = max(1, low + below(rng, len(ids) // 2 + 1 - low))
        minority = set(distinct(rng, ids, minority_size))
        majority = tuple(i for i in ids if i not in minority)
        _, at, heal_at = _free_window(partition_windows, partition_window)
        faults.append(
            PartitionFault(groups=(majority, tuple(sorted(minority))), at=at, heal_at=heal_at)
        )

    for _ in range(link_faults):
        scope_size = max(2, len(ids) // 3)
        scope = tuple(sorted(distinct(rng, ids, scope_size)))
        at = rng.uniform(0.1, 0.6) * duration
        until = at + rng.uniform(0.1, 0.25) * duration
        faults.append(
            LinkFault(
                at=at,
                until=min(until, 0.9 * duration),
                nodes=scope,
                loss=rng.uniform(0.05, 0.25),
                duplicate=rng.uniform(0.0, 0.1),
                reorder_jitter=rng.uniform(0.0, 0.3),
                bandwidth_factor=rng.uniform(1.0, 3.0),
            )
        )

    pool = never_crash or ids

    def skew_window() -> tuple[int, float, float]:
        node = pool[below(rng, len(pool))]
        at = rng.uniform(0.1, 0.6) * duration
        until = at + rng.uniform(0.1, 0.3) * duration
        return node, at, min(until, 0.9 * duration)

    skew_windows: dict[int, list[tuple[float, float]]] = {}
    for _ in range(clock_skews):
        node, at, until = _free_window(skew_windows, skew_window)
        skew = rng.uniform(0.25 * max_skew, max_skew) * (
            1.0 if rng.random() < 0.5 else -1.0
        )
        faults.append(ClockSkewFault(node=node, skew=skew, at=at, until=until))

    return FaultPlan(faults=tuple(sorted(faults, key=lambda f: (f.at, repr(f)))))
