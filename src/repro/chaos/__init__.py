"""Chaos engineering: deterministic fault injection and invariant monitoring.

Three pieces compose a chaos experiment:

* :mod:`repro.chaos.faults` — fault specs (crash/restart, partition, link
  degradation, clock skew), each starting and stopping itself on a
  :class:`~repro.chaos.faults.ChaosController` — the live fleet plus a
  reproducible fault log;
* :mod:`repro.chaos.schedule` — the :class:`~repro.chaos.schedule.FaultPlan`
  that arms its specs as simulator events, and seeded
  :func:`~repro.chaos.schedule.random_fault_plan` generation;
* :mod:`repro.chaos.invariants` — the
  :class:`~repro.chaos.invariants.InvariantMonitor` that sweeps
  safety (common prefix, state roots, difficulty tables) and liveness
  (chain growth under quorum) continuously during any run.

Entry points: set ``ExperimentConfig.fault_plan`` and call
:func:`repro.sim.runner.run_experiment`, or drive a whole churn comparison
with :func:`repro.sim.runner.run_chaos_suite`.  See ``docs/chaos.md``.
"""
