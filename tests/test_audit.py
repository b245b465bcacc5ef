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
from repro.core.difficulty import DifficultyParams
from repro.sim.fleet import build_stack
from repro.sim.runner import ExperimentConfig, run_experiment
from repro.sim.tracing import Tracer

from tests.conftest import TEST_FLEET, keypair


def replay(
    source: RunContext,
    blocks: Sequence[Block],
    config: MiningNodeConfig | None = None,
    key_prefix: str = "test-node",
) -> MiningNode:
    """Feed ``blocks`` in order to a fresh node on a fresh fleet with
    ``source``'s genesis, members and params; the node traces its refusals.
    The fleet's members derive from ``key_prefix``, the prefix ``source``'s
    fleet was built with; the node never mines."""
    configs = [config or themis_config()] * source.n
    stack = build_stack(MiningNode, configs, params=source.params, key_prefix=key_prefix)
    assert (stack.ctx.genesis, stack.ctx.members) == (source.genesis, source.members)
    node = stack.nodes[0]
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
    params = DifficultyParams(i0=5.0, beta=2.0)
    stack = build_stack(MiningNode, [themis_config()] * 4, seed=13, params=params, **TEST_FLEET)
    stack.run_to_height(30)
    chain = stack.nodes[0].main_chain()[:31]
    return stack.ctx, chain


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
        assert_clean(replay(observer.ctx, chain[1:], observer.config, "node"), chain)

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
        from repro.crypto.hashing import EASY_T0

        config = themis_config(sign_blocks=True, verify_signatures=True, real_pow=True)
        params = DifficultyParams(t0=EASY_T0, i0=4.0, beta=2.0)
        stack = build_stack(MiningNode, [config] * 3, seed=4, params=params, **TEST_FLEET)
        stack.run_to_height(10, max_events=500_000)
        chain = stack.nodes[0].main_chain()[:11]
        assert_clean(replay(stack.ctx, chain[1:], config), chain)
