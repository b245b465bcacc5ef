"""Tests for the experiment runner (small-scale smoke of every algorithm)."""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro.chain.block import Block
from repro.chaos.faults import PartitionFault
from repro.chaos.schedule import FaultPlan, random_fault_plan
from repro.consensus.pbft import PBFTReplica
from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.difficulty import DifficultyParams
from repro.net.latency import LinkModel
from repro.node.config import FullNodeConfig
from repro.node.node import FullNode
from repro.sim import runner
from repro.sim.fleet import build_stack
from repro.sim.runner import ExperimentConfig, run_experiment
from repro.sim.scenarios import (
    ALL_ALGORITHMS,
    attack_spec,
    epoch_length_spec,
    equality_spec,
    fork_spec,
    scalability_spec,
)


def small(algorithm, **overrides):
    defaults = dict(algorithm=algorithm, n=8, epochs=3, pbft_rounds=20, seed=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMiningRuns:
    @pytest.mark.parametrize("algorithm", ["themis", "themis-lite", "pow-h"])
    def test_run_produces_metrics(self, algorithm):
        result = run_experiment(small(algorithm))
        assert result.committed_blocks > 0
        assert result.tps > 0
        assert len(result.equality) == 3
        assert len(result.unpredictability) == 3
        assert result.fork is not None
        assert result.observer is not None
        assert all(v >= 0 for v in result.equality)

    def test_determinism(self):
        a = run_experiment(small("themis"))
        b = run_experiment(small("themis"))
        assert a.equality == b.equality
        assert a.tps == b.tps

    def test_seed_changes_outcome(self):
        a = run_experiment(small("themis", seed=1))
        b = run_experiment(small("themis", seed=2))
        assert a.equality != b.equality

    def test_vulnerable_ratio(self):
        result = run_experiment(small("themis", vulnerable_ratio=0.25))
        assert result.committed_blocks > 0

    def test_uniform_power(self):
        result = run_experiment(small("themis", power="uniform"))
        # Uniform power: already equal, variance near the sampling floor.
        assert result.unpredictability[0] == pytest.approx(0.0, abs=1e-9)

    def test_fleet_is_freed_before_the_result_returns(self, monkeypatch):
        made = []

        class Recorded(MiningNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(runner, "MiningNode", Recorded)
        result = run_experiment(small("themis", epochs=1))
        assert len(made) == 8
        assert [ref() for ref in made if ref() is not None] == [result.observer]
        assert result.observer.ctx.sim.pending_events == 0
        assert result.observer.ctx.network.node_ids == []

    def test_live_bytes_per_view_and_block(self, monkeypatch):
        """What a run holds per (node, block) pair, pinned.

        Bytes allocated by the event loop and still live when it returns,
        over the summed tree sizes of the fleet.  With every node's tree a
        set of columns over one shared block arena this reads ≈ 133 B (in
        Python 3.11; it repeats to within a few bytes); per-node entry
        objects, child and height lists and seen sets read 585 B.
        """
        nodes: list[MiningNode] = []

        class Recorded(MiningNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nodes.append(self)

        measured: dict[str, float] = {}
        drive = runner._drive

        def traced_drive(cfg, stack, done):
            before = tracemalloc.get_traced_memory()[0]
            drive(cfg, stack, done)
            live = tracemalloc.get_traced_memory()[0] - before
            measured["per_view_block"] = live / sum(len(node.tree) for node in nodes)

        monkeypatch.setattr(runner, "MiningNode", Recorded)
        monkeypatch.setattr(runner, "_drive", traced_drive)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            run_experiment(ExperimentConfig("themis", n=20, epochs=2, seed=1))
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(nodes) == 20
        assert measured["per_view_block"] <= 150, measured

    def test_collector_state_is_restored(self):
        assert gc.isenabled()
        run_experiment(small("themis", epochs=1))
        assert gc.isenabled()
        gc.disable()
        try:
            run_experiment(small("themis", epochs=1))
            assert not gc.isenabled()
        finally:
            gc.enable()


def churn(seed=1):
    """The spine's churn shape at its quick size: 20 % crash/restart churn,
    one lossy-link window and a 15 | 5 partition healed after 100 s."""
    cfg = ExperimentConfig("themis", n=20, epochs=3, seed=seed)
    duration = cfg.epochs * cfg.difficulty_params().epoch_length(cfg.n) * cfg.i0
    plan = random_fault_plan(seed + 7919, range(cfg.n), duration, churn=0.2, link_faults=1)
    partition = PartitionFault(
        groups=(tuple(range(15)), tuple(range(15, 20))),
        at=0.5 * duration,
        heal_at=0.5 * duration + 100.0,
    )
    return replace(cfg, fault_plan=FaultPlan(faults=(*plan.faults, partition)))


@pytest.fixture()
def collector_off():
    """Run the test with the cyclic collector off, from a clean heap."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def cyclic_garbage(*types: type) -> list[str]:
    """Type names of the ``types`` instances only a collection would free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage if isinstance(obj, types)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestRefcountFreed:
    """A run forms no reference cycles, so reference counting frees it.

    With the collector off: the fleet goes when ``run_experiment`` returns,
    and the observer (or PBFT cluster), its simulator and its network go
    when the result does.  A collection afterwards finds none of a run's
    nodes or blocks.  Before the cycles were broken these runs left 292
    (themis), 2,075 (churn), 75 (pbft) and 510 (vulnerable) objects to it.
    """

    CONFIGS = {
        "themis": small("themis", n=6, epochs=1),
        "themis-lite": small("themis-lite", n=6, epochs=1),
        "pow-h": small("pow-h", n=6, epochs=1),
        "pbft": small("pbft", n=6, pbft_rounds=10),
        "churn": churn(),
        "vulnerable": small("themis", n=10, epochs=1, vulnerable_ratio=0.25),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_run_is_freed_without_a_collection(self, name, monkeypatch, collector_off):
        made = []

        class RecordedNode(MiningNode):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        class RecordedReplica(PBFTReplica):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(runner, "MiningNode", RecordedNode)
        monkeypatch.setattr(runner, "PBFTReplica", RecordedReplica)
        result = run_experiment(self.CONFIGS[name])
        held = result.observer if result.observer is not None else result.pbft
        refs = {
            "held": weakref.ref(held),
            "simulator": weakref.ref(held.ctx.sim),
            "network": weakref.ref(held.ctx.network),
            "other node": next(ref for ref in made if ref() is not held),
        }
        del held, result
        assert [key for key, ref in refs.items() if ref() is not None] == []
        assert cyclic_garbage(MiningNode, PBFTReplica, Block) == []

    def test_mining_fleet_is_freed_when_its_block_ends(self, collector_off):
        """A fleet built with ``build_stack`` goes when its ``with`` block
        ends (the fleet builder it replaced dropped its stack, and an n = 6
        fleet run to height 20 left 780 objects to the collector)."""
        with build_stack(MiningNode, [themis_config()] * 6, seed=2) as stack:
            stack.run_to_height(20)
            refs = [weakref.ref(node) for node in stack.nodes]
        assert [ref for ref in refs if ref() is not None] == []
        assert cyclic_garbage(MiningNode, Block) == []

    def test_full_node_fleet_is_freed_without_a_collection(self, collector_off):
        """A released ``FullNode`` fleet goes by reference counting too: its
        member view closes over the node's one contract, not the node (while
        it closed over the node, this fleet stayed alive until a collection,
        every ``FullNode`` in it)."""
        config = FullNodeConfig(verify_signatures=False, sign_blocks=False)
        link, params = LinkModel(jitter=0.01), DifficultyParams(i0=5.0, beta=2.0)
        with build_stack(FullNode, [config] * 4, seed=3, link=link, params=params) as stack:
            nodes = stack.nodes
            for node in nodes:
                node.start()
            nodes[0].pay(nodes[1].address, 5)
            stack.sim.run(
                stop_when=lambda: all(node.state.height() >= 5 for node in nodes),
                max_events=1_000_000,
            )
            assert nodes[1].balance() > nodes[0].balance()
            refs = [weakref.ref(node) for node in nodes]
            del nodes, node
        assert [ref() for ref in refs if ref() is not None] == []
        assert cyclic_garbage(FullNode) == []

    def test_release_drops_the_flood_state(self):
        network = run_experiment(self.CONFIGS["churn"]).observer.ctx.network
        assert (network._msg_index, network._seen, network._due) == ({}, {}, {})
        assert network._elided == []


class TestPBFTRuns:
    def test_run_produces_metrics(self):
        result = run_experiment(small("pbft", pbft_rounds=70))
        assert result.committed_blocks == 70
        assert result.tps > 0
        assert result.fork is None
        assert result.pbft is not None
        # Round-robin over complete epochs: perfect equality.
        assert result.equality[0] == pytest.approx(0.0)
        # σ_p² is the round-robin constant.
        assert result.unpredictability[0] == pytest.approx(7 / 64)

    def test_pbft_under_attack_has_view_changes(self):
        result = run_experiment(
            small("pbft", n=8, pbft_rounds=16, vulnerable_ratio=0.25)
        )
        assert result.view_changes > 0


class TestScenarios:
    def test_all_specs_construct(self):
        grid = equality_spec(algorithms=ALL_ALGORITHMS).grid
        assert tuple(cfg.algorithm for cfg in grid) == ALL_ALGORITHMS
        assert scalability_spec(ns=(16,), algorithms=("pbft",)).grid[0].n == 16
        attack = attack_spec(ratios=(0.16,), algorithms=("themis",)).grid[0]
        assert attack.vulnerable_ratio == 0.16
        assert fork_spec(algorithms=("pow-h",)).grid[0].i0 == 4.0
        assert epoch_length_spec(betas=(7.0,)).grid[0].beta == 7.0

    def test_epoch_blocks_property(self):
        result = run_experiment(small("themis"))
        assert result.epoch_blocks == 64  # beta 8 × n 8
