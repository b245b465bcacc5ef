"""Tests for the chaos subsystem: fault injection, recovery, invariants."""

from __future__ import annotations

import typing
from dataclasses import replace

import pytest

from repro.chaos.faults import (
    ChaosController,
    ClockSkewFault,
    CrashFault,
    FaultSpec,
    LinkFault,
    PartitionFault,
    fault_log_signature,
)
from repro.chaos.invariants import (
    InvariantConfig,
    InvariantMonitor,
    LivenessViolation,
    SafetyViolation,
)
from repro.chaos.schedule import FaultPlan, _free_window, random_fault_plan
from repro.consensus.powfamily import MiningNode, powh_config, themis_config
from repro.errors import SimulationError
from repro.net.latency import LinkModel
from repro.net.message import HeadersResponse, is_sync_kind
from repro.node.node import FullNode
from repro.node.sync import SyncConfig
from repro.sim.fleet import build_stack
from repro.sim.runner import ExperimentConfig, run_experiment

from tests.conftest import FAST, TEST_FLEET
from tests.test_fullnode import CONSORTIUM, UNSIGNED, addr


def logged(controller: ChaosController, action: str) -> list[dict]:
    """The details of each ``action`` entry in the controller's fault log."""
    return [dict(event.detail) for event in controller.log if event.action == action]


class TestFaultSpecs:
    def test_restart_must_follow_crash(self):
        with pytest.raises(SimulationError):
            CrashFault(node=0, at=10.0, restart_at=5.0).validate()

    def test_partition_needs_two_groups(self):
        with pytest.raises(SimulationError):
            PartitionFault(groups=((0, 1),), at=1.0).validate()

    def test_partition_groups_must_be_nonempty(self):
        with pytest.raises(SimulationError):
            PartitionFault(groups=((0, 1), ()), at=1.0).validate()

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(SimulationError):
            PartitionFault(groups=((0, 1), (1, 2)), at=1.0).validate()

    def test_link_fault_window_must_be_positive(self):
        with pytest.raises(SimulationError):
            LinkFault(at=5.0, until=5.0).validate()

    def test_plan_validates_on_construction(self):
        with pytest.raises(SimulationError):
            FaultPlan(faults=(ClockSkewFault(node=0, skew=1.0, at=-1.0),))

    def test_plan_crashed_nodes(self):
        plan = FaultPlan(
            faults=(
                CrashFault(node=1, at=10.0, restart_at=20.0),
                CrashFault(node=2, at=10.0),
            )
        )
        assert plan.crashed_nodes() == {1, 2}


#: Two windows on one target that overlap: the second opens inside the first,
#: and the first one's close would cancel it.
OVERLAPPING = {
    "partitions": (
        PartitionFault(groups=((0, 1, 2), (3, 4, 5)), at=10.0, heal_at=50.0),
        PartitionFault(groups=((0, 1), (2, 3, 4, 5)), at=30.0, heal_at=90.0),
    ),
    "crashes on one node": (
        CrashFault(node=2, at=10.0),
        CrashFault(node=2, at=30.0, restart_at=40.0),
    ),
    "skews on one node": (
        ClockSkewFault(node=1, skew=1.0, at=5.0, until=40.0),
        ClockSkewFault(node=1, skew=-1.0, at=20.0, until=80.0),
    ),
}


#: One windowed example of each ``FaultSpec`` member, with the actions its
#: ``start`` and ``stop`` log.  A new member fails the test below until it
#: has an entry here.
DECLARED = {
    CrashFault: (CrashFault(node=1, at=5.0, restart_at=15.0), "crash", "restart"),
    PartitionFault: (
        PartitionFault(groups=((0, 1), (2, 3)), at=5.0, heal_at=15.0),
        "partition",
        "heal",
    ),
    LinkFault: (LinkFault(at=5.0, until=15.0, nodes=(0, 1), loss=0.1), "link_fault", "link_heal"),
    ClockSkewFault: (
        ClockSkewFault(node=1, skew=0.5, at=5.0, until=15.0),
        "clock_skew",
        "clock_heal",
    ),
}


@pytest.mark.parametrize("spec", typing.get_args(FaultSpec), ids=lambda c: c.__name__)
def test_every_fault_kind_declares_itself(spec):
    fault, started, stopped = DECLARED[spec]
    stack = build_stack(MiningNode, [themis_config()] * 4, seed=5, params=FAST, **TEST_FLEET)
    controller = ChaosController(stack.nodes, stack.network, stack.sim)
    FaultPlan(faults=(fault,)).arm(controller)
    stack.sim.run(until=20.0)
    assert [(e.time, e.action) for e in controller.log] == [
        (fault.at, started),
        (fault.end, stopped),
    ]
    # A second window opening inside the first on the same target.
    inside = replace(fault, at=fault.at + 1.0)
    if fault.target is None:
        FaultPlan(faults=(fault, inside))
    else:
        with pytest.raises(SimulationError, match="overlap"):
            FaultPlan(faults=(fault, inside))


class TestOverlappingWindows:
    @pytest.mark.parametrize("kind", sorted(OVERLAPPING))
    def test_a_plan_refuses_overlapping_windows_on_one_target(self, kind):
        with pytest.raises(SimulationError, match="overlap"):
            FaultPlan(faults=OVERLAPPING[kind])

    def test_windows_that_touch_or_target_other_nodes_are_accepted(self):
        FaultPlan(
            faults=(
                PartitionFault(groups=((0, 1, 2), (3, 4, 5)), at=10.0, heal_at=30.0),
                PartitionFault(groups=((0, 1), (2, 3, 4, 5)), at=30.0, heal_at=90.0),
                CrashFault(node=2, at=10.0),
                CrashFault(node=3, at=10.0),
                ClockSkewFault(node=1, skew=1.0, at=5.0, until=20.0),
                ClockSkewFault(node=1, skew=-1.0, at=20.0, until=80.0),
                LinkFault(at=0.0, loss=0.1),
                LinkFault(at=0.0, loss=0.2),
            )
        )

    def test_back_to_back_windows_each_apply(self):
        """The second window of each pair is still in force at t = 60."""
        stack = build_stack(MiningNode, [themis_config()] * 6, seed=1, link=LinkModel(jitter=0.01))
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        plan = FaultPlan(
            faults=(
                PartitionFault(groups=((0, 1, 2), (3, 4, 5)), at=10.0, heal_at=30.0),
                PartitionFault(groups=((0, 1), (2, 3, 4, 5)), at=30.0, heal_at=90.0),
                ClockSkewFault(node=1, skew=1.0, at=5.0, until=20.0),
                ClockSkewFault(node=1, skew=-1.0, at=20.0, until=80.0),
            )
        )
        plan.arm(controller)
        for node in stack.nodes:
            node.start()
        stack.sim.run(until=60.0)
        assert stack.network.partition_map == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
        assert stack.nodes[1].clock_skew == -1.0
        assert len(logged(controller, "partition")) == 2
        assert len(logged(controller, "heal")) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_random_plans_redraw_colliding_windows(self, seed):
        """A plain draw collides on seeds 0, 1, 2 and 4 (the partitions on 1
        and 2, a skew window on a node that has one on 0 and 4); each plan
        still holds every fault asked for."""
        plan = random_fault_plan(
            seed, list(range(6)), 1000.0, crashes=0, partitions=2, clock_skews=4
        )
        assert sum(isinstance(f, PartitionFault) for f in plan.faults) == 2
        assert sum(isinstance(f, ClockSkewFault) for f in plan.faults) == 4

    def test_a_crowded_target_is_drawn_again_with_its_window(self):
        """A skew whose node has no room left moves to another node."""
        draws = iter([("a", 0.0, 1.0), ("b", 0.0, 1.0)])
        taken = {"a": [(0.5, 2.0)]}
        assert _free_window(taken, lambda: next(draws)) == ("b", 0.0, 1.0)
        assert taken == {"a": [(0.5, 2.0)], "b": [(0.0, 1.0)]}

    def test_a_plan_with_no_room_left_is_refused(self):
        with pytest.raises(SimulationError, match="no room"):
            random_fault_plan(0, list(range(6)), 1000.0, crashes=0, partitions=6)


class TestRandomFaultPlan:
    def test_same_seed_same_plan(self):
        ids = list(range(10))
        a = random_fault_plan(7, ids, 1000.0, partitions=1, link_faults=1, clock_skews=1)
        b = random_fault_plan(7, ids, 1000.0, partitions=1, link_faults=1, clock_skews=1)
        assert a == b
        assert random_fault_plan(8, ids, 1000.0) != a

    def test_negative_seed_is_refused(self):
        with pytest.raises(SimulationError, match="non-negative"):
            random_fault_plan(-7, list(range(10)), 1000.0)

    def test_churn_and_spare_respected(self):
        plan = random_fault_plan(3, list(range(10)), 500.0, churn=0.2)
        crashes = [f for f in plan.faults if isinstance(f, CrashFault)]
        assert len(crashes) == 2
        for fault in crashes:
            assert 0 <= fault.at < fault.restart_at <= 0.85 * 500.0

    def test_spare_caps_crash_count(self):
        plan = random_fault_plan(3, list(range(4)), 500.0, churn=1.0, spare=2)
        assert len(plan.crashed_nodes()) == 2


class TestChaosController:
    def test_crash_and_restart_are_idempotent(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=5, params=FAST, **TEST_FLEET)
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        crash = CrashFault(node=2, at=0.0)
        crash.stop(controller, "c")  # not crashed: no-op
        crash.start(controller, "c")
        crash.start(controller, "c")
        assert len(logged(controller, "crash")) == 1
        assert stack.nodes[2].crashed and stack.network.is_offline(2)
        crash.stop(controller, "c")
        crash.stop(controller, "c")
        assert [entry["node"] for entry in logged(controller, "restart")] == [2]
        assert not stack.nodes[2].crashed and not stack.network.is_offline(2)

    def test_unknown_target_rejected(self):
        stack = build_stack(MiningNode, [themis_config()] * 3, seed=5, params=FAST, **TEST_FLEET)
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        with pytest.raises(SimulationError):
            CrashFault(node=99, at=0.0).start(controller, "c")

    def test_partition_heal_and_log(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=5, params=FAST, **TEST_FLEET)
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        partition = PartitionFault(groups=((0, 1), (2, 3)), at=0.0)
        partition.stop(controller, "p")  # nothing armed: no-op
        partition.start(controller, "p")
        assert stack.network.partition_map == {0: 0, 1: 0, 2: 1, 3: 1}
        partition.stop(controller, "p")
        assert stack.network.partition_map is None
        actions = [event.action for event in controller.log]
        assert actions == ["partition", "heal"]

    def test_clock_skew_applies_and_clears(self):
        stack = build_stack(MiningNode, [themis_config()] * 3, seed=5, params=FAST, **TEST_FLEET)
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        skew = ClockSkewFault(node=1, skew=1.5, at=0.0)
        skew.start(controller, "s")
        assert stack.nodes[1].local_time() == pytest.approx(stack.sim.now + 1.5)
        skew.stop(controller, "s")
        skew.stop(controller, "s")  # already cleared: no-op
        assert stack.nodes[1].local_time() == pytest.approx(stack.sim.now)
        assert len(logged(controller, "clock_heal")) == 1

    def test_link_fault_installs_under_its_name_and_clears_once(self):
        stack = build_stack(MiningNode, [themis_config()] * 3, seed=5, params=FAST, **TEST_FLEET)
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        link = LinkFault(at=0.0, nodes=(2, 0), loss=0.3)
        link.start(controller, "plan-link-4")
        assert set(stack.network.active_disturbances()) == {"plan-link-4"}
        link.stop(controller, "plan-link-4")
        link.stop(controller, "plan-link-4")  # already cleared: no-op
        assert stack.network.active_disturbances() == {}
        assert logged(controller, "link_fault")[0]["nodes"] == (0, 2)
        assert logged(controller, "link_heal") == [{"name": "plan-link-4"}]


class TestCrashRecovery:
    def _sync_fleet(self, timeout=2.0):
        cfg = themis_config(sync=SyncConfig(timeout=timeout, max_retries=4))
        return build_stack(MiningNode, [cfg] * 4, seed=6, params=FAST, **TEST_FLEET)

    def test_recovery_after_forced_timeout_and_retry(self):
        """A crashed node recovers even when its first sync attempts die.

        Healthy peers drop sync responses for a while after the restart, so
        the first request(s) time out and the manager must retry with backoff
        before the chain pages in.
        """
        stack = self._sync_fleet()
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 15)
        crash = CrashFault(node=3, at=stack.sim.now)
        crash.start(controller, "c")
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 30)
        assert stack.nodes[3].state.height() < 25  # provably stale

        # Black-hole every sync response until one timeout has fired.
        for peer in (0, 1, 2):
            stack.network.set_drop_filter(
                peer, lambda msg: msg.kind == HeadersResponse.kind
            )
        blackhole_until = stack.sim.now + 3.0
        stack.sim.schedule_at(
            blackhole_until,
            lambda: [stack.network.set_drop_filter(p, None) for p in (0, 1, 2)],
        )
        crash.stop(controller, "c")
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 70, max_events=5_000_000)

        sync = stack.nodes[3].sync
        assert sync.stats.timeouts >= 1 and sync.stats.retries >= 1
        assert sync.stats.syncs_completed >= 1
        assert stack.nodes[3].state.height() >= stack.nodes[0].state.height() - 3
        assert controller.recovered_producer_count() == 1

    def test_crash_loses_volatile_state_and_goes_offline(self):
        stack = self._sync_fleet()
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 10)
        height_at_crash = stack.nodes[3].state.height()
        stack.nodes[3].crash()
        assert stack.nodes[3].crashed and stack.network.is_offline(3)
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 25)
        # Chain store is durable, but nothing new arrived while down.
        assert stack.nodes[3].state.height() == height_at_crash

    def test_fullnode_state_root_matches_after_recovery(self):
        stack = build_stack(FullNode, [UNSIGNED] * 4, seed=11, params=CONSORTIUM, **TEST_FLEET)
        for node in stack.nodes:
            node.start()
        stack.nodes[0].pay(addr(1), 100)
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 8)
        stack.nodes[3].crash()
        stack.nodes[1].pay(addr(2), 75)
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 20)
        stack.nodes[3].restart(sync_peer=0)
        stack.sim.run(
            stop_when=lambda: not stack.nodes[3].sync.active
            and stack.nodes[3].state.height() >= stack.nodes[0].state.height()
        )
        stack.sim.run(until=stack.sim.now + 30.0)  # drain in-flight gossip
        prefix = min(stack.nodes[3].state.height(), stack.nodes[0].state.height())
        assert (
            stack.nodes[3].main_chain()[prefix].block_id
            == stack.nodes[0].main_chain()[prefix].block_id
        )
        # Same head implies the re-executed ledger must agree exactly.
        if stack.nodes[3].state.head_id == stack.nodes[0].state.head_id:
            assert stack.nodes[3].state_root() == stack.nodes[0].state_root()


class TestInvariantMonitor:
    def test_clean_on_healthy_run(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=3, params=FAST, **TEST_FLEET)
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 25)
        monitor = InvariantMonitor(
            stack.nodes, stack.network, stack.sim, InvariantConfig(confirmation_depth=4)
        )
        monitor.check_now()
        assert monitor.report.clean and monitor.report.checks_run == 1

    def test_attack_victims_excluded_from_cross_checks(self):
        """Fig. 7 runs stay monitor-clean: censored victims diverge by design.

        A vulnerable-node victim keeps mining blocks nobody receives, so its
        own chain can drift past the confirmation depth — that is the attack
        working, not a consensus failure (§VII-D claims the *other* nodes
        keep the consensus).  The runner must exclude victims from the
        monitor's cross-checks the same way it excludes them as observers.
        """
        cfg = ExperimentConfig(
            algorithm="pow-h",
            n=6,
            epochs=2,
            seed=3,
            i0=5.0,
            vulnerable_ratio=0.34,
            confirmation_depth=2,
        )
        result = run_experiment(cfg)
        assert result.invariants is not None
        assert result.invariants.checks_run > 0
        assert result.invariants.clean

    def test_catches_forged_settled_fork(self):
        """A majority-power node mining a private fork trips common-prefix.

        Node 3 holds most of the hash power but its block announcements are
        suppressed, so it extends a private chain that diverges from the
        public one well beyond the confirmation depth — exactly the
        conflicting-finalized-blocks state the monitor must catch.  Fixed
        difficulty (pow-h) keeps the attacker's production rate high; under
        self-adaptive difficulty its own table would throttle the fork.
        """
        configs = [powh_config(hash_rate=1.0)] * 3 + [powh_config(hash_rate=8.0)]
        stack = build_stack(MiningNode, configs, seed=4, params=FAST, **TEST_FLEET)
        stack.network.set_drop_filter(
            3, lambda msg: msg.kind == "block" and msg.origin == 3
        )
        for node in stack.nodes:
            node.start()
        stack.sim.run(
            stop_when=lambda: min(n.state.height() for n in stack.nodes) >= 12,
            max_events=5_000_000,
        )
        monitor = InvariantMonitor(
            stack.nodes, stack.network, stack.sim, InvariantConfig(confirmation_depth=2)
        )
        with pytest.raises(SafetyViolation):
            monitor.check_now()
        assert monitor.report.safety_violations == 1
        assert not monitor.report.clean

    def test_liveness_violation_when_connected_quorum_stalls(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=3, params=FAST, **TEST_FLEET)
        # Everyone is online and connected but nobody ever mines.
        monitor = InvariantMonitor(
            stack.nodes,
            stack.network,
            stack.sim,
            InvariantConfig(check_interval=10.0, liveness_window=30.0),
        )
        monitor.start()
        with pytest.raises(LivenessViolation):
            stack.sim.run(until=200.0)
        monitor.stop()
        assert monitor.report.liveness_violations == 1

    def test_stall_without_quorum_is_not_a_violation(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=3, params=FAST, **TEST_FLEET)
        for node_id in range(1, 4):
            stack.network.set_offline(node_id, True)
        monitor = InvariantMonitor(
            stack.nodes,
            stack.network,
            stack.sim,
            InvariantConfig(check_interval=10.0, liveness_window=30.0),
        )
        monitor.start()
        stack.sim.run(until=200.0)  # must not raise: 3/4 of power is offline
        monitor.stop()
        assert monitor.report.clean

    def test_partitioned_divergence_is_not_a_violation(self):
        """Chains on opposite sides of an armed partition may diverge freely;
        cross-checks only apply within a connected component."""
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=8, params=FAST, **TEST_FLEET)
        stack.network.set_partition([[0, 1], [2, 3]])
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: min(n.state.height() for n in stack.nodes) >= 10)
        monitor = InvariantMonitor(
            stack.nodes, stack.network, stack.sim, InvariantConfig(confirmation_depth=2)
        )
        monitor.check_now()
        assert monitor.report.clean


class TestScheduledRuns:
    def _plan(self):
        return FaultPlan(
            faults=(
                CrashFault(node=2, at=100.0, restart_at=220.0),
                PartitionFault(groups=((0, 1, 2), (3, 4, 5)), at=320.0, heal_at=380.0),
            )
        )

    def _cfg(self, plan):
        return ExperimentConfig(
            n=6,
            epochs=2,
            seed=5,
            i0=5.0,
            fault_plan=plan,
            confirmation_depth=8,
            invariant_check_interval=15.0,
        )

    def test_seeded_chaos_run_is_bit_for_bit_reproducible(self):
        plan = self._plan()
        first = run_experiment(self._cfg(plan))
        second = run_experiment(self._cfg(plan))
        assert fault_log_signature(first.fault_log) == fault_log_signature(
            second.fault_log
        )
        assert first.observer.state.head_id == second.observer.state.head_id
        assert first.chaos.crashes == 1 and first.chaos.restarts == 1
        assert first.chaos.partitions == 1 and first.chaos.heals == 1
        assert first.chaos.recovered_producers == 1
        assert first.invariants is not None and first.invariants.clean
        assert first.chaos.messages_dropped > 0

    def test_arm_names_faults_by_their_place_in_at_order(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=5, params=FAST, **TEST_FLEET)
        controller = ChaosController(stack.nodes, stack.network, stack.sim)
        plan = FaultPlan(
            faults=(
                LinkFault(at=9.0, loss=0.1),
                CrashFault(node=1, at=1.0, restart_at=2.0),
                LinkFault(at=3.0, until=4.0, loss=0.2),
            )
        )
        plan.arm(controller)
        stack.sim.run(until=10.0)
        assert [(e.action, dict(e.detail).get("name")) for e in controller.log] == [
            ("crash", None),
            ("restart", None),
            ("link_fault", "plan-link-1"),
            ("link_heal", "plan-link-1"),
            ("link_fault", "plan-link-2"),
        ]

    def test_pbft_rejects_fault_plans(self):
        cfg = ExperimentConfig(
            algorithm="pbft",
            n=4,
            fault_plan=FaultPlan(faults=(CrashFault(node=1, at=5.0),)),
        )
        with pytest.raises(SimulationError):
            run_experiment(cfg)

    def test_sync_kinds_are_point_to_point(self):
        assert is_sync_kind(HeadersResponse.kind)
        assert not is_sync_kind("block")
