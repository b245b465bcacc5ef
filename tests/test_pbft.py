"""Tests for the PBFT baseline: commits, rotation, view changes, scaling."""

from __future__ import annotations

import pytest

from repro.chain.genesis import make_genesis
from repro.consensus.base import RunContext
from repro.consensus.pbft import PBFTCluster, PBFTConfig
from repro.core.difficulty import DifficultyParams
from repro.errors import ConsensusError
from repro.mining.oracle import MiningOracle
from repro.net.latency import LinkModel
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology

from tests.conftest import keypair


def make_cluster(n: int = 4, seed: int = 0, config: PBFTConfig | None = None):
    sim = Simulator(seed=seed)
    network = SimulatedNetwork(sim=sim, adjacency=complete_topology(n), link=LinkModel())
    keys = [keypair(i) for i in range(n)] if n <= 8 else None
    if keys is None:
        from repro.crypto.keys import KeyPair

        keys = [KeyPair.from_seed(f"pbft-{i}") for i in range(n)]
    ctx = RunContext(
        sim=sim,
        network=network,
        oracle=MiningOracle(sim.rng, DifficultyParams().t0),
        genesis=make_genesis(),
        params=DifficultyParams(),
        members=[k.public.fingerprint() for k in keys],
    )
    return PBFTCluster(ctx, keys, config or PBFTConfig(batch_size=100)), ctx


class TestBasicOperation:
    def test_minimum_size_enforced(self):
        with pytest.raises(ConsensusError):
            make_cluster(3)

    def test_commits_rounds(self):
        cluster, ctx = make_cluster(4)
        cluster.start()
        ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 10)
        cluster.stop()
        assert cluster.stats.rounds_committed == 10
        assert len(cluster.committed) == 10
        assert cluster.stats.view_changes == 0

    def test_round_robin_rotation(self):
        """Each sequence rotates the leader — PBFT's perfect Equality."""
        cluster, ctx = make_cluster(4)
        cluster.start()
        ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 8)
        cluster.stop()
        proposers = [entry.proposer_id for entry in cluster.committed]
        assert proposers == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_committed_chain_is_linked(self):
        cluster, ctx = make_cluster(4)
        cluster.start()
        ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 5)
        cluster.stop()
        heights = [entry.height for entry in cluster.committed]
        assert heights == [1, 2, 3, 4, 5]
        times = [entry.committed_at for entry in cluster.committed]
        assert times == sorted(times)

    def test_f_is_third(self):
        cluster, _ = make_cluster(7)
        assert cluster.f == 2


class TestTrafficAccounting:
    def test_vote_traffic_charged(self):
        cluster, ctx = make_cluster(4)
        cluster.start()
        ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 3)
        cluster.stop()
        # 2·n·(n-1) votes per committed round.
        assert cluster.stats.votes_charged == 3 * 2 * 4 * 3
        assert ctx.network.stats.bytes_by_kind["pbft/vote"] > 0

    def test_preprepare_traffic_scales_with_n(self):
        small, ctx_small = make_cluster(4)
        small.start()
        ctx_small.sim.run(stop_when=lambda: small.stats.rounds_committed >= 2)
        big, ctx_big = make_cluster(8)
        big.start()
        ctx_big.sim.run(stop_when=lambda: big.stats.rounds_committed >= 2)
        small_bytes = ctx_small.network.stats.bytes_by_kind["pbft/pre-prepare"]
        big_bytes = ctx_big.network.stats.bytes_by_kind["pbft/pre-prepare"]
        assert big_bytes > small_bytes * 2


class TestScalability:
    def test_round_duration_grows_with_n(self):
        """Leader dissemination is O(n) on its uplink — Fig. 6's mechanism."""
        durations = {}
        for n in (4, 16, 32):
            cluster, ctx = make_cluster(n, config=PBFTConfig(batch_size=2000))
            cluster.start()
            ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 3)
            cluster.stop()
            durations[n] = cluster.committed[-1].committed_at / 3
        assert durations[4] < durations[16] < durations[32]

    def test_expected_round_duration_estimate_close(self):
        cluster, ctx = make_cluster(8, config=PBFTConfig(batch_size=1000))
        cluster.start()
        ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 4)
        cluster.stop()
        measured = cluster.committed[-1].committed_at / 4
        assert measured == pytest.approx(cluster.expected_round_duration(), rel=0.5)


class TestViewChange:
    def test_vulnerable_leader_triggers_view_change(self):
        """§VII-D: a suppressed leader stalls the round until the timeout."""
        cluster, ctx = make_cluster(4, config=PBFTConfig(batch_size=100))
        # Node 0 (first leader) cannot send pre-prepares.
        ctx.network.set_drop_filter(
            0, lambda m: m.kind == "pbft/pre-prepare" and m.origin == 0
        )
        cluster.start()
        ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 3)
        cluster.stop()
        assert cluster.stats.view_changes >= 1
        # Node 0 never lands a block while suppressed.
        assert all(e.proposer_id != 0 for e in cluster.committed)

    def test_block_interval_increases_under_attack(self):
        healthy, ctx_h = make_cluster(4, config=PBFTConfig(batch_size=100))
        healthy.start()
        ctx_h.sim.run(stop_when=lambda: healthy.stats.rounds_committed >= 4)
        attacked, ctx_a = make_cluster(4, config=PBFTConfig(batch_size=100))
        ctx_a.network.set_drop_filter(
            0, lambda m: m.kind == "pbft/pre-prepare" and m.origin == 0
        )
        attacked.start()
        ctx_a.sim.run(stop_when=lambda: attacked.stats.rounds_committed >= 4)
        healthy_time = healthy.committed[3].committed_at
        attacked_time = attacked.committed[3].committed_at
        assert attacked_time > healthy_time * 2  # timeout dominates

    def test_timeout_backoff(self):
        cluster, _ = make_cluster(4, config=PBFTConfig(base_timeout=1.0))
        assert cluster.current_timeout() == pytest.approx(1.0)
        cluster._consecutive_view_changes = 2
        assert cluster.current_timeout() == pytest.approx(4.0)
