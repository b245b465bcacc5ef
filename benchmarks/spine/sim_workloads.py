"""``sim_n40`` and ``sim_churn_n20``: the simulator through ``run_experiment``.

Both workloads run the same public entry point the figure suite uses, once
per seed, single-threaded.  The number of seeds is fixed by ``--seconds``
(never by how fast the runs turn out), so two runs of one seed do identical
work and their digests can be compared exactly.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.chaos.faults import PartitionFault
from repro.chaos.schedule import FaultPlan, plan_to_dict, random_fault_plan
from repro.errors import ReproError
from repro.sim import runner
from repro.sim.runner import ExperimentConfig, RunResult

from benchmarks.spine import catalogue, stats
from benchmarks.spine.common import Outcome

if TYPE_CHECKING:
    from benchmarks.spine.trace import Tracer

#: Wall seconds one run takes on the 2-vCPU sizing host; turns ``--seconds``
#: into a seed count and nothing else.
NOMINAL_RUN_S = {"sim_n40": 3.0, "sim_churn_n20": 2.1}

SETUP_REPEATS = 3

#: The churn workload's explicit partition: 15 | 5 nodes for 100 simulated
#: seconds (10 block intervals) from the middle of the run.  Longer ones
#: outlast ``confirmation_depth`` and end in sync storms or safety
#: violations — see the README's baseline observations.
PARTITION_GROUPS = (tuple(range(15)), tuple(range(15, 20)))
PARTITION_SECONDS = 100.0


def n40_config(seed: int, quick: bool) -> ExperimentConfig:
    return ExperimentConfig("themis", n=40, epochs=1 if quick else 4, seed=seed)


def churn_config(seed: int, quick: bool) -> ExperimentConfig:
    """n=20 with 20 % crash/restart churn, one lossy-link window and the
    explicit partition, all placed over the run's expected duration."""
    cfg = ExperimentConfig("themis", n=20, epochs=3 if quick else 12, seed=seed)
    duration = cfg.epochs * cfg.difficulty_params().epoch_length(cfg.n) * cfg.i0
    plan = random_fault_plan(seed + 7919, range(cfg.n), duration, churn=0.2, link_faults=1)
    partition = PartitionFault(
        groups=PARTITION_GROUPS,
        at=0.5 * duration,
        heal_at=0.5 * duration + PARTITION_SECONDS,
    )
    return replace(cfg, fault_plan=FaultPlan(faults=(*plan.faults, partition)))


def _run_is_sound(result: RunResult) -> bool:
    """Invariants clean and every crash victim back to producing blocks."""
    if result.invariants is None or not result.invariants.clean:
        return False
    chaos = result.chaos
    return chaos is None or chaos.crashes == chaos.restarts == chaos.recovered_producers


def _run_seeds(
    workload: str,
    make_config: Callable[[int, bool], ExperimentConfig],
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    quick: bool,
) -> Outcome:
    out = Outcome()
    # Seeds are numpy seeds; fold anything the driver passes into their range.
    base = seed % 2**31
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        runner.run_experiment(ExperimentConfig("themis", n=10, epochs=1, seed=base))
        out.setup_samples.append(time.perf_counter() - begin)

    count = 1 if quick else max(1, round(seconds / NOMINAL_RUN_S[workload]))
    configs = [make_config(base + offset, quick) for offset in range(count)]
    out.inputs_digest = stats.digest(
        repr((cfg.n, cfg.epochs, cfg.seed, plan_to_dict(cfg.fault_plan or FaultPlan())))
        for cfg in configs
    )

    untraced_wall = None
    nodes: list = []
    if tracer is not None:
        # One untraced run of the first seed, then every seed traced: the
        # pair on the same seed is the tracing overhead.
        begin = time.perf_counter()
        runner.run_experiment(configs[0])
        untraced_wall = time.perf_counter() - begin
        tracer.install(catalogue.SIM_BOUNDARIES)
        nodes = tracer.collect_instances("repro.consensus.powfamily", "MiningNode")

    rates: list[float] = []
    walls: list[float] = []
    heads: list[str] = []
    events = blocks = sent = sent_bytes = dropped = recovered = 0
    try:
        for run_id, cfg in enumerate(configs, start=1):
            if tracer is not None:
                tracer.run_id = run_id
            begin = time.perf_counter()
            try:
                result = runner.run_experiment(cfg)
            except ReproError as exc:
                walls.append(time.perf_counter() - begin)
                out.failed += 1
                heads.append(f"{cfg.seed}:{type(exc).__name__}")
                continue
            wall = time.perf_counter() - begin
            walls.append(wall)
            observer = result.observer
            if observer is None or not _run_is_sound(result):
                out.failed += 1
            if observer is None:
                continue
            rates.append(observer.state.height() / wall)
            run_events = observer.ctx.sim.events_processed
            heads.append(
                f"{cfg.seed}:{run_events}:{len(observer.tree)}:{observer.state.head_id.hex()}"
            )
            events += run_events
            blocks += len(observer.tree)
            sent += result.network.messages_sent
            sent_bytes += result.network.bytes_sent
            dropped += result.network.messages_dropped
            recovered += result.chaos.recovered_producers if result.chaos else 0
    finally:
        if tracer is not None:
            tracer.uninstall()

    out.attempted = count
    out.checks["every_run_sound"] = out.failed == 0
    out.timed_s = sum(walls)
    out.digests["sim.head_digest"] = stats.digest(heads)
    out.digests["sim.events"] = str(events)
    out.digests["sim.blocks"] = str(blocks)
    out.metrics["sim_blocks_per_s"] = stats.metric("blocks/s", "higher", rates or [0.0])
    if tracer is not None and untraced_wall is not None:
        out.traced_wall_s = out.timed_s
        out.overhead_pair = (untraced_wall, walls[0])
        per_block = 1.0 / max(1, blocks)
        out.layer = {
            "sim.events": float(events),
            "sim.blocks": float(blocks),
            "net.messages_sent": float(sent),
            "net.bytes_sent": float(sent_bytes),
            "net.messages_dropped": float(dropped),
            "net.msgs_per_block": sent * per_block,
            "chain.tree_adds_per_block": tracer.calls["chain.blocktree.add_block"] * per_block,
            "core.validates_per_block": tracer.calls["core.election.validate"] * per_block,
            "consensus.reorgs": float(sum(node.stats.reorgs for node in nodes)),
            "node.sync.syncs_completed": float(
                sum(node.sync.stats.syncs_completed for node in nodes)
            ),
            "node.sync.blocks_received": float(
                sum(node.sync.stats.blocks_received for node in nodes)
            ),
            "chaos.crashes_recovered": float(recovered),
        }
    return out


def run_n40(seed: int, seconds: float, tracer: Tracer | None, quick: bool = False) -> Outcome:
    return _run_seeds("sim_n40", n40_config, seed, seconds, tracer, quick)


def run_churn_n20(
    seed: int, seconds: float, tracer: Tracer | None, quick: bool = False
) -> Outcome:
    return _run_seeds("sim_churn_n20", churn_config, seed, seconds, tracer, quick)
