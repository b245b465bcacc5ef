"""End-to-end experiment orchestration.

One entry point, :func:`run_experiment`, reproduces any of the paper's
evaluation runs: it builds the seeded simulator, topology, power profile and
node fleet for the requested algorithm, runs to a target number of difficulty
epochs (or PBFT rounds), and returns a :class:`RunResult` carrying every
§VII-C metric series the figures plot.

All four §VII-B algorithms are supported:

* ``themis`` — GEOST + self-adaptive difficulty;
* ``themis-lite`` — GHOST + self-adaptive difficulty;
* ``pow-h`` — GHOST + fixed difficulty multiples;
* ``pbft`` — the PBFT baseline cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable
from typing import Any, Literal

from repro.chaos.faults import ChaosController, FaultEvent
from repro.chaos.invariants import InvariantConfig, InvariantMonitor, InvariantReport
from repro.chaos.schedule import FaultPlan, random_fault_plan
from repro.consensus.pbft import PBFTCluster, PBFTConfig, PBFTReplica
from repro.consensus.powfamily import (
    MiningNode,
    MiningNodeConfig,
    powh_config,
    themis_config,
    themis_lite_config,
)
from repro.core.difficulty import DifficultyParams
from repro.core.equality import round_robin_probability_variance
from repro.errors import SimulationError
from repro.mining.power import PowerProfile, pool_distribution_profile, uniform_profile
from repro.net.latency import LinkModel
from repro.net.transport import NetworkStats
from repro.serde import NOT_ON_WIRE
from repro.sim.attacks import VulnerableNodeAttack
from repro.sim.fleet import SimStack, build_stack
from repro.sim.metrics import (
    ChaosReport,
    ForkReport,
    chaos_report,
    committed_tps,
    degradation_ratio,
    equality_series_from_producers,
    fork_report,
    stable_value,
    unpredictability_series,
)

Algorithm = Literal["themis", "themis-lite", "pow-h", "pbft"]

#: Simulated-seconds safety cap on every run.
MAX_SIM_TIME = 10_000_000.0

#: The epoch TPS and fork statistics start from (epoch 0 is the warmup where
#: ``D_base`` is still calibrating to the invested power).
MEASURE_FROM_EPOCH = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one evaluation run (§VII-A defaults).

    Attributes:
        algorithm: which §VII-B algorithm to run.
        n: consensus node count.
        seed: master seed, a non-negative integer; everything stochastic
            derives from it — the overlay sampler and the simulator's one
            :class:`random.Random` (:func:`repro.rng.seeded_rng`).
        epochs: difficulty epochs to complete (PoW family) — the run stops
            once the observer's main chain spans this many epochs.
        pbft_rounds: committed rounds for a PBFT run.
        beta: epoch length factor, ``Δ = β·n`` (§VII-A uses 8).
        i0: target block interval ``I0`` seconds.
        h0: minimum node hash rate ``H0``.
        power: initial computing-power distribution — ``"pools"`` is the
            Fig. 3 snapshot, ``"uniform"`` the all-``H0`` ideal.
        degree: gossip overlay degree (complete graph when ``n <= degree+1``).
        batch_size: transactions represented per block (TPS accounting).
        vulnerable_ratio: Fig. 7's attacked-producer fraction ``R_vul``.
        jitter: per-hop uniform delay jitter in seconds (breaks ties the way
            real networks do).
        bandwidth_bps / min_delay: §VII-A link parameters.
        max_events: event-count safety cap.
        fault_plan: optional chaos schedule (crashes, partitions, link
            degradation, clock skew) armed onto the run; PoW-family only.
        confirmation_depth: settled-prefix depth for the safety monitor,
            which sweeps every PoW-family run and fails fast on violation.
        invariant_check_interval: simulated seconds between monitor sweeps.
        liveness_window: no-growth tolerance in seconds; defaults (None) to
            ``100 · i0``.
    """

    algorithm: Algorithm = "themis"
    n: int = 40
    seed: int = 0
    epochs: int = 10
    pbft_rounds: int = 50
    beta: float = 8.0
    i0: float = 10.0
    h0: float = 1.0
    power: Literal["pools", "uniform"] = "pools"
    degree: int = 6
    batch_size: int = 2000
    vulnerable_ratio: float = 0.0
    target_height: int | None = None
    measure_from_height: int | None = None
    jitter: float = 0.02
    bandwidth_bps: float = 20_000_000.0
    min_delay: float = 0.100
    max_events: int = 200_000_000
    fault_plan: FaultPlan | None = None
    confirmation_depth: int = 16
    invariant_check_interval: float = 20.0
    liveness_window: float | None = None

    def difficulty_params(self) -> DifficultyParams:
        # The initial base difficulty is calibrated to the invested power.
        scale = self.power_profile().total / (self.n * self.h0)
        return DifficultyParams(
            i0=self.i0, h0=self.h0, beta=self.beta, initial_base_scale=scale
        )

    def power_profile(self) -> PowerProfile:
        if self.power == "pools":
            return pool_distribution_profile(self.n, self.h0)
        return uniform_profile(self.n, self.h0)

    def mining_config(self, hash_rate: float) -> MiningNodeConfig:
        factory = {
            "themis": themis_config,
            "themis-lite": themis_lite_config,
            "pow-h": powh_config,
        }[self.algorithm]
        return factory(hash_rate=hash_rate, batch_size=self.batch_size)


@dataclass
class RunResult:
    """Everything the benchmarks need from one finished run."""

    config: ExperimentConfig
    duration: float
    committed_blocks: int
    tps: float
    equality: list[float]
    unpredictability: list[float]
    fork: ForkReport | None
    network: NetworkStats
    members: list[bytes] = field(default_factory=list)
    # Live simulator handles: in-process only, never serialized (see
    # repro.sim.reporting module docstring).  Their stack is released when
    # the run ends (``SimStack.release``): readable, not resumable, and
    # freed by reference counting when the result goes.
    observer: MiningNode | None = field(default=None, metadata=NOT_ON_WIRE)
    pbft: PBFTCluster | None = field(default=None, metadata=NOT_ON_WIRE)
    view_changes: int = 0
    chaos: ChaosReport | None = None
    invariants: InvariantReport | None = None
    fault_log: tuple[FaultEvent, ...] = ()

    @property
    def epoch_blocks(self) -> int:
        return self.config.difficulty_params().epoch_length(self.config.n)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run one evaluation experiment and collect its metric series."""
    pbft = cfg.algorithm == "pbft"
    if pbft and cfg.fault_plan is not None:
        raise SimulationError(
            "fault plans target the PoW-family crash/sync path; PBFT runs "
            "do not support chaos injection"
        )
    node_class: Any = PBFTReplica if pbft else MiningNode
    configs: list[Any] = (
        [PBFTConfig(batch_size=cfg.batch_size)] * cfg.n
        if pbft
        else [cfg.mining_config(power) for power in cfg.power_profile().powers]
    )
    link = LinkModel(bandwidth_bps=cfg.bandwidth_bps, min_delay=cfg.min_delay, jitter=cfg.jitter)
    params = cfg.difficulty_params()
    with build_stack(
        node_class, configs, seed=cfg.seed, degree=cfg.degree, link=link, params=params
    ) as stack:
        victims: list[int] = []
        if cfg.vulnerable_ratio > 0:
            victims = VulnerableNodeAttack.select(
                stack.network, list(range(cfg.n)), cfg.vulnerable_ratio, stack.sim.rng
            ).victims
        if pbft:
            return _run_pbft(cfg, stack)
        return _run_mining(cfg, stack, victims)


def _drive(cfg: ExperimentConfig, stack: SimStack[Any], done: Callable[[], bool]) -> None:
    """Run the event loop until ``done``; the caps bound every run."""
    stack.sim.run(until=MAX_SIM_TIME, max_events=cfg.max_events, stop_when=done)


def _result(
    cfg: ExperimentConfig,
    stack: SimStack[Any],
    *,
    committed_blocks: int,
    duration: float,
    **fields: Any,
) -> RunResult:
    return RunResult(
        config=cfg,
        duration=duration,
        committed_blocks=committed_blocks,
        tps=committed_tps(committed_blocks, cfg.batch_size, duration),
        network=stack.network.stats,
        members=list(stack.ctx.members),
        **fields,
    )


def _run_mining(
    cfg: ExperimentConfig, stack: SimStack[MiningNode], victims: list[int]
) -> RunResult:
    ctx = stack.ctx
    nodes = stack.nodes
    profile = cfg.power_profile()
    controller = None
    if cfg.fault_plan is not None and len(cfg.fault_plan):
        controller = ChaosController(nodes, stack.network, stack.sim)
        cfg.fault_plan.arm(controller)
    monitor = InvariantMonitor(
        nodes,
        stack.network,
        stack.sim,
        InvariantConfig(
            confirmation_depth=cfg.confirmation_depth,
            check_interval=cfg.invariant_check_interval,
            liveness_window=(
                cfg.liveness_window
                if cfg.liveness_window is not None
                else 100.0 * cfg.i0
            ),
        ),
        # Censored producers diverge by design; §VII-D's claim is about
        # the surviving nodes, so victims sit outside the cross-checks.
        exclude=victims,
    )
    monitor.start()
    for node in nodes:
        node.start()

    epoch_blocks = ctx.params.epoch_length(cfg.n)
    # Epoch-driven runs (equality/unpredictability curves) stop after a
    # number of complete difficulty epochs; throughput runs may instead pin
    # an absolute chain height (cheaper at n = 600, Fig. 6).
    target_height = (
        cfg.target_height
        if cfg.target_height is not None
        else cfg.epochs * epoch_blocks
    )
    # Observe via a non-vulnerable node that never crashes, so suppressed
    # blocks and downtime don't skew the observer's view of the main chain.
    excluded = set(victims)
    if cfg.fault_plan is not None:
        excluded |= cfg.fault_plan.crashed_nodes()
    try:
        observer = next(nodes[i] for i in range(cfg.n) if i not in excluded)
    except StopIteration:
        raise SimulationError(
            "no node is both attack-free and crash-free to observe the run"
        ) from None

    _drive(cfg, stack, lambda: observer.state.height() >= target_height)
    monitor.stop()
    if observer.state.height() < target_height:
        raise SimulationError(
            f"run ended at height {observer.state.height()} < {target_height} "
            f"(raise max_events)"
        )

    chain = observer.main_chain()
    # Equality / Unpredictability track convergence from launch (the Fig. 4/5
    # x-axis starts at epoch 0); TPS and fork statistics exclude the warmup
    # where D_base is still calibrating to the invested power.
    if cfg.measure_from_height is not None:
        measure_height = min(cfg.measure_from_height, target_height - 1)
    else:
        measure_height = min(MEASURE_FROM_EPOCH, cfg.epochs - 1) * epoch_blocks
        measure_height = min(measure_height, max(0, target_height - 1))
    duration = (
        chain[target_height].header.timestamp - chain[measure_height].header.timestamp
    )
    complete_epochs = target_height // epoch_blocks
    return _result(
        cfg,
        stack,
        committed_blocks=target_height - measure_height,
        duration=duration,
        equality=equality_series_from_producers(
            [b.producer for b in chain[: target_height + 1] if b.height > 0],
            ctx.members,
            epoch_blocks,
        ),
        unpredictability=unpredictability_series(
            observer.state, profile, ctx.members, complete_epochs
        ),
        fork=fork_report(observer.tree, chain, from_height=measure_height + 1),
        observer=observer,
        chaos=(
            chaos_report(controller, stack.network.stats, monitor)
            if controller is not None
            else None
        ),
        invariants=monitor.report,
        fault_log=tuple(controller.log) if controller is not None else (),
    )


def _run_pbft(cfg: ExperimentConfig, stack: SimStack[PBFTReplica]) -> RunResult:
    ctx = stack.ctx
    cluster = PBFTCluster(stack.nodes)
    cluster.start()
    _drive(cfg, stack, lambda: cluster.stats.rounds_committed >= cfg.pbft_rounds)
    cluster.stop()
    committed = cluster.stats.rounds_committed
    if committed == 0:
        raise SimulationError("PBFT committed no rounds (timeout too small?)")
    duration = cluster.committed[-1].committed_at
    epoch_blocks = ctx.params.epoch_length(cfg.n)
    producers = cluster.committed_producers()
    # PBFT's leader is deterministic each round: σ_p² is the round-robin
    # constant, reported once per completed counting epoch for the Fig. 5
    # series (or once if no epoch completed).
    epoch_count = max(1, len(producers) // epoch_blocks)
    return _result(
        cfg,
        stack,
        committed_blocks=committed,
        duration=duration,
        equality=equality_series_from_producers(producers, ctx.members, epoch_blocks),
        unpredictability=[round_robin_probability_variance(cfg.n)] * epoch_count,
        fork=None,  # PBFT is fork-free (footnote 14)
        pbft=cluster,
        view_changes=cluster.stats.view_changes,
    )


# -- chaos suite -------------------------------------------------------------------


@dataclass
class ChaosSuiteResult:
    """A baseline run paired with one or more faulted replays of it.

    The graceful-degradation evidence for ``benchmarks/test_chaos_recovery.py``:
    under churn TPS drops (ratio < 1) and equality variance grows (ratio > 1),
    but neither collapses, and every invariant sweep stays clean.
    """

    baseline: RunResult
    chaos_runs: list[RunResult]

    def tps_ratios(self) -> list[float]:
        """Per-run ``chaos TPS / baseline TPS`` (1.0 = unaffected)."""
        return [degradation_ratio(self.baseline.tps, r.tps) for r in self.chaos_runs]

    def equality_ratios(self) -> list[float]:
        """Per-run ``chaos σ_f² / baseline σ_f²`` over the stable tail.

        σ_f² is a variance — *larger* is worse — so graceful degradation
        means ratios stay bounded above 0 and below a blow-up ceiling.
        """
        base = stable_value(self.baseline.equality, robust=True)
        return [
            degradation_ratio(base, stable_value(r.equality, robust=True))
            for r in self.chaos_runs
        ]

    def summary(self) -> str:
        lines = [
            f"baseline: tps={self.baseline.tps:.1f} "
            f"sigma_f2={stable_value(self.baseline.equality, robust=True):.3f}"
        ]
        for index, (run, tps_ratio, eq_ratio) in enumerate(
            zip(self.chaos_runs, self.tps_ratios(), self.equality_ratios(), strict=True)
        ):
            chaos = run.chaos.summary() if run.chaos else "no faults applied"
            lines.append(
                f"plan {index}: tps x{tps_ratio:.2f} "
                f"sigma_f2 x{eq_ratio:.2f} | {chaos}"
            )
        return "\n".join(lines)


def run_chaos_suite(
    cfg: ExperimentConfig,
    *,
    runs: int = 1,
    churn: float = 0.2,
    partitions: int = 0,
) -> ChaosSuiteResult:
    """Run a clean baseline plus faulted replays of the same experiment.

    The baseline strips any fault plan from ``cfg``; each chaos run replays
    the identical experiment (same seed, same topology, same power profile)
    under a seeded :func:`random_fault_plan`, so every difference in the
    metrics is attributable to the injected faults.  Plan ``i`` draws from
    seed ``cfg.seed + 7919 + i``, which never collides with the run seed.

    Args:
        cfg: the experiment to perturb (PoW family only).
        runs: faulted replays, one generated plan each.
        churn: crash/restart fraction (0.2 = the benchmark's 20 % node churn).
        partitions: healing partitions per plan.
    """
    if cfg.algorithm == "pbft":
        raise SimulationError("chaos suites target the PoW-family algorithms")
    baseline = run_experiment(replace(cfg, fault_plan=None))
    # Place fault windows within the expected span of the run: the baseline
    # actually measured how long this experiment takes.  The head timestamp
    # covers the full run including the warmup that RunResult.duration
    # excludes.
    if baseline.observer is not None:
        duration = baseline.observer.main_chain()[-1].header.timestamp
    else:  # pragma: no cover - mining runs always have an observer
        duration = baseline.duration
    duration = max(duration, cfg.i0)
    chaos_runs = [
        run_experiment(
            replace(
                cfg,
                fault_plan=random_fault_plan(
                    cfg.seed + 7919 + i,
                    list(range(cfg.n)),
                    duration,
                    churn=churn,
                    partitions=partitions,
                ),
            )
        )
        for i in range(runs)
    ]
    return ChaosSuiteResult(baseline=baseline, chaos_runs=chaos_runs)
