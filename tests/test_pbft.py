"""Tests for the PBFT baseline: commits, rotation, view changes, scaling."""

from __future__ import annotations

import pytest

from repro.consensus.pbft import PBFTCluster, PBFTConfig, PBFTReplica
from repro.errors import ConsensusError
from repro.sim.fleet import build_stack


#: The cluster most tests run: four replicas proposing 100-transaction batches.
BATCH_100 = PBFTConfig(batch_size=100)


class TestBasicOperation:
    def test_minimum_size_enforced(self):
        with pytest.raises(ConsensusError):
            PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 3).nodes)

    def test_commits_rounds(self):
        cluster = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        cluster.start()
        cluster.ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 10)
        cluster.stop()
        assert cluster.stats.rounds_committed == 10
        assert len(cluster.committed) == 10
        assert cluster.stats.view_changes == 0

    def test_round_robin_rotation(self):
        """Each sequence rotates the leader — PBFT's perfect Equality."""
        cluster = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        cluster.start()
        cluster.ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 8)
        cluster.stop()
        proposers = [entry.proposer_id for entry in cluster.committed]
        assert proposers == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_committed_chain_is_linked(self):
        cluster = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        cluster.start()
        cluster.ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 5)
        cluster.stop()
        heights = [entry.height for entry in cluster.committed]
        assert heights == [1, 2, 3, 4, 5]
        times = [entry.committed_at for entry in cluster.committed]
        assert times == sorted(times)

    def test_f_is_third(self):
        cluster = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 7).nodes)
        assert cluster.f == 2


class TestTrafficAccounting:
    def test_vote_traffic_charged(self):
        cluster = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        cluster.start()
        cluster.ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 3)
        cluster.stop()
        # 2·n·(n-1) votes per committed round.
        assert cluster.stats.votes_charged == 3 * 2 * 4 * 3
        assert cluster.ctx.network.stats.bytes_by_kind["pbft/vote"] > 0

    def test_preprepare_traffic_scales_with_n(self):
        small = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        small.start()
        small.ctx.sim.run(stop_when=lambda: small.stats.rounds_committed >= 2)
        big = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 8, degree=7).nodes)
        big.start()
        big.ctx.sim.run(stop_when=lambda: big.stats.rounds_committed >= 2)
        small_bytes = small.ctx.network.stats.bytes_by_kind["pbft/pre-prepare"]
        big_bytes = big.ctx.network.stats.bytes_by_kind["pbft/pre-prepare"]
        assert big_bytes > small_bytes * 2


class TestScalability:
    def test_round_duration_grows_with_n(self):
        """Leader dissemination is O(n) on its uplink — Fig. 6's mechanism."""
        durations = {}
        for n in (4, 16, 32):
            configs = [PBFTConfig(batch_size=2000)] * n
            cluster = PBFTCluster(build_stack(PBFTReplica, configs, degree=n - 1).nodes)
            cluster.start()
            cluster.ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 3)
            cluster.stop()
            durations[n] = cluster.committed[-1].committed_at / 3
        assert durations[4] < durations[16] < durations[32]

    def test_expected_round_duration_estimate_close(self):
        configs = [PBFTConfig(batch_size=1000)] * 8
        cluster = PBFTCluster(build_stack(PBFTReplica, configs, degree=7).nodes)
        cluster.start()
        cluster.ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 4)
        cluster.stop()
        measured = cluster.committed[-1].committed_at / 4
        assert measured == pytest.approx(cluster.expected_round_duration(), rel=0.5)


class TestViewChange:
    def test_vulnerable_leader_triggers_view_change(self):
        """§VII-D: a suppressed leader stalls the round until the timeout."""
        cluster = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        # Node 0 (first leader) cannot send pre-prepares.
        cluster.ctx.network.set_drop_filter(
            0, lambda m: m.kind == "pbft/pre-prepare" and m.origin == 0
        )
        cluster.start()
        cluster.ctx.sim.run(stop_when=lambda: cluster.stats.rounds_committed >= 3)
        cluster.stop()
        assert cluster.stats.view_changes >= 1
        # Node 0 never lands a block while suppressed.
        assert all(e.proposer_id != 0 for e in cluster.committed)

    def test_block_interval_increases_under_attack(self):
        healthy = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        healthy.start()
        healthy.ctx.sim.run(stop_when=lambda: healthy.stats.rounds_committed >= 4)
        attacked = PBFTCluster(build_stack(PBFTReplica, [BATCH_100] * 4).nodes)
        attacked.ctx.network.set_drop_filter(
            0, lambda m: m.kind == "pbft/pre-prepare" and m.origin == 0
        )
        attacked.start()
        attacked.ctx.sim.run(stop_when=lambda: attacked.stats.rounds_committed >= 4)
        healthy_time = healthy.committed[3].committed_at
        attacked_time = attacked.committed[3].committed_at
        assert attacked_time > healthy_time * 2  # timeout dominates

    def test_timeout_backoff(self):
        cluster = PBFTCluster(build_stack(PBFTReplica, [PBFTConfig(base_timeout=1.0)] * 4).nodes)
        assert cluster.current_timeout() == pytest.approx(1.0)
        cluster._consecutive_view_changes = 2
        assert cluster.current_timeout() == pytest.approx(4.0)
