"""Chaos drill: a seeded 10-node run surviving crashes and a partition.

A fixed fault plan crashes two nodes mid-run (both restart and re-sync
through the chain-sync protocol) and splits the overlay into a 6/4 partition
that heals — all while the safety/liveness invariant monitors sweep the
fleet.  The drill prints the injected fault log, the per-fault impact
counters, the recovery evidence, and the invariant report.

Everything derives from the two seeds below: rerunning this script produces
the identical fault log signature and the identical final chain head.

    python examples/chaos_drill.py
"""

from __future__ import annotations

from repro.chaos.faults import CrashFault, PartitionFault, fault_log_signature
from repro.chaos.schedule import FaultPlan
from repro.sim.runner import ExperimentConfig, run_experiment

SEED = 7

PLAN = FaultPlan(
    faults=(
        CrashFault(node=3, at=150.0, restart_at=320.0),
        CrashFault(node=8, at=260.0, restart_at=430.0),
        PartitionFault(
            groups=((0, 1, 2, 3, 4, 5), (6, 7, 8, 9)), at=550.0, heal_at=640.0
        ),
    )
)


def main() -> None:
    cfg = ExperimentConfig(
        n=10,
        epochs=3,
        seed=SEED,
        i0=5.0,
        fault_plan=PLAN,
        confirmation_depth=8,
        invariant_check_interval=15.0,
    )
    print("Chaos drill: 10 nodes, 2 crash/restarts, 1 healing partition")
    result = run_experiment(cfg)

    print("\nInjected fault log:")
    for event in result.fault_log:
        print(f"  {event}")
    print(f"  signature: {fault_log_signature(result.fault_log)[:16]}…")

    print("\nImpact:")
    print(f"  {result.chaos.summary()}")
    print(
        f"  recovered producers: {result.chaos.recovered_producers}/2 "
        f"(each crashed node synced back and produced again)"
    )
    print(
        f"  tps {result.tps:.1f}, {result.committed_blocks} blocks committed, "
        f"head {result.observer.state.head_id.hex()[:16]}…"
    )

    print("\nInvariant report:")
    print(f"  {result.invariants.summary()}")
    for violation in result.invariants.violations:
        print(f"  {violation}")


if __name__ == "__main__":
    main()
