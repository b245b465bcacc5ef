"""Chaos engineering: deterministic fault injection and invariant monitoring.

Three pieces compose a chaos experiment:

* :mod:`repro.chaos.faults` — fault specs (crash/restart, partition, link
  degradation, clock skew) and the :class:`ChaosController` that applies
  them to a live fleet while keeping a reproducible fault log;
* :mod:`repro.chaos.schedule` — seeded :func:`random_fault_plan` generation
  and the :class:`FaultScheduler` that arms a plan as simulator events;
* :mod:`repro.chaos.invariants` — the :class:`InvariantMonitor` that sweeps
  safety (common prefix, state roots, difficulty tables) and liveness
  (chain growth under quorum) continuously during any run.

Entry points: set ``ExperimentConfig.fault_plan`` and call
:func:`repro.sim.runner.run_experiment`, or drive a whole churn comparison
with :func:`repro.sim.runner.run_chaos_suite`.  See ``docs/chaos.md``.
"""

from repro.chaos.faults import (
    ChaosController,
    ChaosStats,
    ClockSkewFault,
    CrashFault,
    FaultEvent,
    FaultSpec,
    LinkFault,
    PartitionFault,
    fault_log_signature,
)
from repro.chaos.invariants import (
    InvariantConfig,
    InvariantMonitor,
    InvariantReport,
    InvariantViolation,
    LivenessViolation,
    SafetyViolation,
)
from repro.chaos.schedule import (
    FaultPlan,
    FaultScheduler,
    plan_from_dict,
    plan_to_dict,
    random_fault_plan,
)

__all__ = [
    "ChaosController",
    "ChaosStats",
    "ClockSkewFault",
    "CrashFault",
    "FaultEvent",
    "FaultPlan",
    "FaultScheduler",
    "FaultSpec",
    "InvariantConfig",
    "InvariantMonitor",
    "InvariantReport",
    "InvariantViolation",
    "LinkFault",
    "LivenessViolation",
    "PartitionFault",
    "SafetyViolation",
    "fault_log_signature",
    "plan_from_dict",
    "plan_to_dict",
    "random_fault_plan",
]
