"""Transport-refactor parity: the protocol split must not move a single byte.

The golden hash below was captured on the pre-refactor tree (concrete
``Simulator``/``SimulatedNetwork`` types wired straight into the nodes).
If the ``Transport``/``Clock`` protocol extraction — or any later backend
work — perturbs the simulated schedule by even one event, the fixed-seed
chain hash changes and this suite fails.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import replace

import pytest

from repro.chaos.faults import PartitionFault
from repro.chaos.schedule import FaultPlan, random_fault_plan
from repro.live.clock import LiveClock
from repro.live.manifest import localhost_manifest
from repro.live.transport import TcpGossipTransport
from repro.net.clock import Clock
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.net.transport import FaultableTransport, NetworkStats, Transport
from repro.sim.fleet import build_mining_fleet, run_fleet_to_height
from repro.sim.reporting import result_to_dict
from repro.sim.runner import ExperimentConfig, run_experiment

#: sha256 over the concatenated canonical bytes of the height-30 main chain
#: of ``build_mining_fleet(n=6, seed=42, i0=2.0)``, captured pre-refactor.
GOLDEN_CHAIN_SHA256 = "c34de878b1fd6491e9d5a94297fcb263d0a4d080774abf3a4d4409f0236c0bfe"


def _chain_hash() -> str:
    ctx, nodes = build_mining_fleet(n=6, seed=42, i0=2.0)
    run_fleet_to_height(ctx, nodes, height=30)
    blob = b"".join(block.to_bytes() for block in nodes[0].main_chain())
    return hashlib.sha256(blob).hexdigest()


#: sha256 over ``repr((sim.events_processed, len(observer.tree),
#: observer.state.head_id.hex(), network.messages_sent,
#: network.messages_dropped))`` of :func:`recovery_config` runs — the
#: ingredients of the spine's ``sim.head_digest`` plus the send/drop counters.
#: Captured at commit ``d82031f`` (the parent of the lazy-statistics /
#: shared-chain-facts change), before any source edit, with
#:
#:   PYTHONPATH=src python -c "from tests.test_transport_parity import \
#:       recovery_digest; print(recovery_digest(False), recovery_digest(True))"
#:
#: The faulted run (3 crash/restarts, one lossy-link window, a 9 | 3
#: partition) goes through 6 syncs, 4 orphan attachments, 76 reorgs and 511
#: dropped messages; the fault-free one through 30 reorgs on a degree-4
#: overlay.  Each takes ~0.2 s.
GOLDEN_RECOVERY_SHA256 = {
    False: "fcfaaecaade35310fdae3e0f24e7e30379a1be4b1e43b8353e1779a3ff3c60a1",
    True: "8647bcfb815ad96d917dcf44f83e024b9496d872dd0d70b801d61105274a313e",
}


def recovery_config(faulted: bool) -> ExperimentConfig:
    cfg = ExperimentConfig("themis", n=12, epochs=3, seed=7, degree=4)
    if not faulted:
        return cfg
    duration = cfg.epochs * cfg.difficulty_params().epoch_length(cfg.n) * cfg.i0
    plan = random_fault_plan(7926, range(cfg.n), duration, churn=0.25, link_faults=1)
    partition = PartitionFault(
        groups=(tuple(range(9)), tuple(range(9, 12))),
        at=0.5 * duration,
        heal_at=0.5 * duration + 100.0,
    )
    return replace(cfg, fault_plan=FaultPlan(faults=(*plan.faults, partition)))


def recovery_digest(faulted: bool) -> str:
    result = run_experiment(recovery_config(faulted))
    observer = result.observer
    assert observer is not None
    facts = (
        observer.ctx.sim.events_processed,
        len(observer.tree),
        observer.state.head_id.hex(),
        result.network.messages_sent,
        result.network.messages_dropped,
    )
    return hashlib.sha256(repr(facts).encode()).hexdigest()


#: sha256 over the ``result_to_dict`` JSON of five runs — themis, themis-lite
#: (n = 21, degree 5), pow-h with 30 % vulnerable nodes, pbft, and themis
#: under ``random_fault_plan(churn=0.2, link_faults=1)`` — captured at commit
#: ``9fd7d86`` (the parent of the consensus-node / data-plane split), before
#: any source edit, with
#:
#:   PYTHONPATH=src python -c "from tests.test_transport_parity import \
#:       results_digest; print(results_digest())"
#:
#: The four config keys that change removed are left out of the hashed
#: record on both sides; every metric, counter, fault log and invariant
#: report is in it.
GOLDEN_RESULTS_SHA256 = "1c813db9e08ec54ecd4331924f192d83fe939f18ecf45fe065709d366c3a092a"

_REMOVED_CONFIG_KEYS = (
    "monitor_invariants",
    "calibrate_initial_difficulty",
    "measure_from_epoch",
    "max_sim_time",
)


def results_digest() -> str:
    base = ExperimentConfig("themis", n=12, epochs=3, seed=5)
    duration = base.epochs * base.difficulty_params().epoch_length(base.n) * base.i0
    plan = random_fault_plan(5, range(base.n), duration, churn=0.2, link_faults=1)
    configs = [
        base,
        ExperimentConfig("themis-lite", n=21, epochs=2, seed=5, degree=5),
        ExperimentConfig("pow-h", n=12, epochs=3, seed=5, vulnerable_ratio=0.3),
        ExperimentConfig("pbft", n=12, pbft_rounds=20, seed=5),
        replace(base, fault_plan=plan),
    ]
    digest = hashlib.sha256()
    for cfg in configs:
        record = result_to_dict(run_experiment(cfg))
        for key in _REMOVED_CONFIG_KEYS:
            record["config"].pop(key, None)
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


class TestGoldenParity:
    def test_result_records_are_identical_to_the_parent(self):
        assert results_digest() == GOLDEN_RESULTS_SHA256

    def test_fixed_seed_chain_is_byte_identical_to_pre_refactor(self):
        assert _chain_hash() == GOLDEN_CHAIN_SHA256

    def test_repeat_run_is_byte_identical(self):
        assert _chain_hash() == _chain_hash()

    @pytest.mark.parametrize("faulted", [False, True], ids=["sparse", "churn"])
    def test_recovery_paths_are_event_identical(self, faulted):
        """Sync, orphans, reorgs, drops and duplicates: same schedule, same head."""
        assert recovery_digest(faulted) == GOLDEN_RECOVERY_SHA256[faulted]


class TestProtocolConformance:
    def test_simulated_backend_satisfies_both_protocols(self):
        sim = Simulator(seed=0)
        network = SimulatedNetwork(sim=sim, adjacency=complete_topology(3))
        assert isinstance(network, Transport)
        assert isinstance(network, FaultableTransport)

    def test_simulator_satisfies_clock(self):
        assert isinstance(Simulator(seed=0), Clock)

    def test_live_backend_satisfies_transport(self):
        async def check() -> tuple[bool, bool]:
            manifest = localhost_manifest(ports=[20001, 20002])
            clock = LiveClock(seed=0)
            transport = TcpGossipTransport(
                manifest=manifest, node_id=0, clock=clock
            )
            return isinstance(transport, Transport), isinstance(clock, Clock)

        is_transport, is_clock = asyncio.run(check())
        assert is_transport
        assert is_clock


class TestNetworkStatsSerde:
    """Regression: defaultdict counters used to poison JSON round-trips.

    Merely *reading* an absent key of a ``defaultdict`` materializes a zero
    entry, so two observably identical stats objects could serialize to
    different dicts (and a round-trip could gain keys).  ``to_dict`` /
    ``from_dict`` normalize away the zeros and ``__eq__`` compares the
    normalized forms.
    """

    def _stats(self) -> NetworkStats:
        stats = NetworkStats()
        stats.record_send("block", 700)
        stats.record_send("tx", 512)
        stats.record_drop("offline")
        stats.messages_delivered = 2
        return stats

    def test_round_trip_exact(self):
        stats = self._stats()
        assert NetworkStats.from_dict(stats.to_dict()) == stats

    def test_round_trip_through_json_text(self):
        stats = self._stats()
        restored = NetworkStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert restored == stats

    def test_materialized_zero_entries_do_not_leak(self):
        stats = self._stats()
        # A read of an absent kind materializes bytes_by_kind["pbft/vote"]=0.
        assert stats.bytes_by_kind["pbft/vote"] == 0
        record = stats.to_dict()
        assert "pbft/vote" not in record["bytes_by_kind"]
        assert NetworkStats.from_dict(record) == stats

    def test_equality_ignores_materialized_zeros(self):
        a, b = self._stats(), self._stats()
        assert a.drops_by_reason["partition"] == 0  # materialize on one side
        assert a == b
        b.record_drop("partition")
        assert a != b

    def test_counters_stay_incrementable_after_from_dict(self):
        restored = NetworkStats.from_dict(self._stats().to_dict())
        restored.record_drop("filtered")  # defaultdict behavior preserved
        assert restored.drops_by_reason["filtered"] == 1
