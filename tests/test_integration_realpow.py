"""End-to-end integration with REAL SHA-256 mining.

The benchmark sweeps use the mining oracle; this test closes the loop by
running a miniature consortium where every node actually grinds nonces at an
easy target, signs headers, gossips full blocks, and validates the puzzle on
receipt (``check_pow=True``) — the complete §III pipeline with no stochastic
substitution.
"""

from __future__ import annotations

import pytest

from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.difficulty import DifficultyParams
from repro.crypto.hashing import EASY_T0
from repro.mining.miner import RealMiner
from repro.sim.fleet import build_stack

from tests.conftest import TEST_FLEET


@pytest.fixture(scope="module")
def real_pow_run():
    """One shared real-mining run (module-scoped: hashing is the slow part)."""
    config = themis_config(batch_size=0, sign_blocks=True, verify_signatures=True, real_pow=True)
    params = DifficultyParams(t0=EASY_T0, i0=5.0, beta=2.0)
    stack = build_stack(MiningNode, [config] * 3, seed=21, params=params, **TEST_FLEET)
    stack.run_to_height(12, max_events=500_000)
    stack.sim.run(until=stack.sim.now + 30.0)
    return stack.ctx, stack.nodes


class TestRealPoW:
    def test_chain_grows(self, real_pow_run):
        _, nodes = real_pow_run
        assert nodes[0].state.height() >= 12

    def test_every_header_meets_its_target(self, real_pow_run):
        ctx, nodes = real_pow_run
        miner = RealMiner(EASY_T0)
        for block in nodes[0].main_chain()[1:]:
            assert miner.verify(block.header)

    def test_every_header_signed_by_member(self, real_pow_run):
        ctx, nodes = real_pow_run
        for block in nodes[0].main_chain()[1:]:
            assert block.verify_signature()
            assert block.producer in ctx.members

    def test_nodes_agree_on_prefix(self, real_pow_run):
        _, nodes = real_pow_run
        ids = {node.main_chain()[8].block_id for node in nodes}
        assert len(ids) == 1

    def test_no_blocks_rejected_between_honest_nodes(self, real_pow_run):
        _, nodes = real_pow_run
        assert all(node.stats.blocks_rejected == 0 for node in nodes)
