"""Whole chains judged by the node code that judges a live block.

A consortium regulator (or a light client) holding only the member list and
the deployment parameters can verify an entire chain without having watched
it grow: :func:`replay` feeds a chain to a fresh node on a fresh run context,
and every block passes the same §III admission a gossiped one does.  Every
chain this library produces must replay clean.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import pytest

from repro.chain.block import Block, build_block
from repro.chaos.schedule import random_fault_plan
from repro.consensus.base import RunContext
from repro.consensus.powfamily import MiningNode, MiningNodeConfig, themis_config
from repro.mining.oracle import MiningOracle
from repro.net.latency import LinkModel
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.sim.runner import ExperimentConfig, run_experiment
from repro.sim.tracing import Tracer

from tests.conftest import keypair
from tests.test_powfamily import make_fleet, run_to_height


def replay(
    source: RunContext, blocks: Sequence[Block], config: MiningNodeConfig | None = None
) -> MiningNode:
    """Feed ``blocks`` in order to a fresh node on a fresh run context with
    ``source``'s genesis, members and params; the node traces its refusals."""
    sim = Simulator(seed=0)
    ctx = RunContext(
        sim=sim,
        network=SimulatedNetwork(sim=sim, adjacency=complete_topology(2), link=LinkModel()),
        oracle=MiningOracle(sim.rng, source.params.t0),
        genesis=source.genesis,
        params=source.params,
        members=list(source.members),
    )
    node = MiningNode(0, keypair(99), ctx, config or themis_config())
    node.observers.append(Tracer())
    for block in blocks:
        node._handle_block(block)
    return node


def rejections(node: MiningNode) -> list[str]:
    """Why ``node`` refused each block it refused, in order."""
    (tracer,) = node.observers
    return [event.detail["reason"] for event in tracer.events(kind="block/rejected")]


def assert_clean(node: MiningNode, chain: Sequence[Block]) -> None:
    assert rejections(node) == []
    assert node.state.head_id == chain[-1].block_id
    assert node.stats.blocks_accepted == len(chain) - 1
    assert node.tree.orphan_count == 0


@pytest.fixture(scope="module")
def simulated_chain():
    """A real simulated Themis chain plus its run context."""
    ctx, nodes = make_fleet(4, seed=13, beta=2.0, i0=5.0)
    run_to_height(ctx, nodes, 30)
    chain = nodes[0].main_chain()[:31]
    return ctx, chain


class TestCleanChains:
    def test_simulated_chain_passes_audit(self, simulated_chain):
        """Every chain our own consensus produces must replay clean."""
        ctx, chain = simulated_chain
        assert_clean(replay(ctx, chain[1:]), chain)
        # Δ = 8: the replay judged blocks under four epochs' tables.
        assert {block.header.epoch for block in chain[1:]} == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        ("algorithm", "faulted"),
        [("themis", False), ("themis-lite", False), ("pow-h", False), ("themis", True)],
        ids=["themis", "themis-lite", "pow-h", "themis-random-faults"],
    )
    def test_every_algorithm_replays_clean(self, algorithm, faulted):
        cfg = ExperimentConfig(algorithm, n=8, epochs=2, seed=3, i0=5.0)
        if faulted:
            duration = cfg.epochs * cfg.difficulty_params().epoch_length(cfg.n) * cfg.i0
            plan = random_fault_plan(11, range(cfg.n), duration, churn=0.25, link_faults=1)
            cfg = replace(cfg, fault_plan=plan)
        observer = run_experiment(cfg).observer
        assert observer is not None
        chain = observer.main_chain()
        assert_clean(replay(observer.ctx, chain[1:], observer.config), chain)

    def test_requires_genesis_start(self, simulated_chain):
        """A chain that does not link to the node's genesis is never adopted."""
        ctx, chain = simulated_chain
        node = replay(ctx, chain[2:])
        assert node.state.height() == 0
        assert node.tree.orphan_count == 29
        assert rejections(node) == []


class TestViolationsDetected:
    def test_detects_non_member_producer(self, simulated_chain):
        ctx, chain = simulated_chain
        intruder = build_block(
            keypair(7),
            chain[5].block_id,
            6,
            [],
            chain[5].header.timestamp + 1,
            chain[6].header.difficulty_multiple,
            chain[6].header.base_difficulty,
            chain[6].header.epoch,
        )
        node = replay(ctx, [*chain[1:6], intruder, chain[7]])
        (reason,) = rejections(node)
        assert "not a consensus member" in reason
        assert node.state.head_id == chain[5].block_id
        assert node.tree.orphan_count == 1  # chain[7] still waits for chain[6]

    def test_detects_wrong_multiple(self, simulated_chain):
        ctx, chain = simulated_chain
        victim = chain[12].header
        forged = build_block(
            keypair(0),  # whoever — multiple won't match the table
            victim.parent_hash,
            victim.height,
            [],
            victim.timestamp,
            victim.difficulty_multiple * 7.0,
            victim.base_difficulty,
            victim.epoch,
        )
        node = replay(ctx, [*chain[1:12], forged])
        (reason,) = rejections(node)
        assert "multiple" in reason
        assert node.state.head_id == chain[11].block_id

    def test_detects_broken_linkage(self, simulated_chain):
        ctx, chain = simulated_chain
        gap = replay(ctx, [*chain[1:5], chain[7]])
        assert gap.state.head_id == chain[4].block_id
        assert gap.tree.orphan_count == 1
        skipped = Block(replace(chain[5].header, height=7), None, ())
        node = replay(ctx, [*chain[1:5], skipped])
        (reason,) = rejections(node)
        assert "height" in reason
        assert node.state.head_id == chain[4].block_id

    @pytest.mark.xfail(
        strict=True,
        reason="no time rule yet: ROADMAP 'one §III rulebook', missing rule (i)",
    )
    def test_decreasing_timestamp_awaits_the_time_rule(self, simulated_chain):
        ctx, chain = simulated_chain
        back_in_time = Block(
            replace(chain[4].header, timestamp=chain[3].header.timestamp - 50.0),
            None,
            (),
        )
        node = replay(ctx, [*chain[1:4], back_in_time])
        (reason,) = rejections(node)
        assert "timestamp" in reason

    def test_signature_requirement(self, simulated_chain):
        ctx, chain = simulated_chain
        node = replay(ctx, chain[1:], themis_config(verify_signatures=True))
        # Simulation blocks are unsigned: the first is refused, and nothing
        # above it can attach.
        (reason,) = rejections(node)
        assert "signature" in reason
        assert node.state.height() == 0
        assert node.tree.orphan_count == 29


class TestRealPoWAudit:
    def test_real_pow_chain_passes_with_pow_check(self):
        from repro.chain.genesis import make_genesis
        from repro.core.difficulty import DifficultyParams
        from repro.crypto.hashing import EASY_T0

        n = 3
        sim = Simulator(seed=4)
        network = SimulatedNetwork(sim=sim, adjacency=complete_topology(n), link=LinkModel(jitter=0.01))
        params = DifficultyParams(t0=EASY_T0, i0=4.0, h0=1.0, beta=2.0)
        keys = [keypair(i) for i in range(n)]
        ctx = RunContext(
            sim=sim,
            network=network,
            oracle=MiningOracle(sim.rng, params.t0),
            genesis=make_genesis(),
            params=params,
            members=[k.public.fingerprint() for k in keys],
        )
        config = MiningNodeConfig(
            rule_kind="geost",
            adaptive=True,
            sign_blocks=True,
            verify_signatures=True,
            real_pow=True,
        )
        nodes = [MiningNode(i, keys[i], ctx, config) for i in range(n)]
        for node in nodes:
            node.start()
        sim.run(stop_when=lambda: nodes[0].state.height() >= 10, max_events=500_000)
        chain = nodes[0].main_chain()[:11]
        assert_clean(replay(ctx, chain[1:], config), chain)
