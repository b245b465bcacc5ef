"""Replay of non-adaptive (PoW-H) chains and cross-mode detection."""

from __future__ import annotations

import pytest

from repro.consensus.powfamily import MiningNode, powh_config, themis_config
from repro.core.difficulty import DifficultyParams
from repro.sim.fleet import build_stack

from tests.conftest import TEST_FLEET
from tests.test_audit import assert_clean, rejections, replay


@pytest.fixture(scope="module")
def powh_chain():
    configs, params = [powh_config()] * 4, DifficultyParams(i0=5.0, beta=2.0)
    stack = build_stack(MiningNode, configs, seed=14, params=params, **TEST_FLEET)
    stack.run_to_height(24)
    return stack.ctx, stack.nodes[0].main_chain()[:25]


class TestPoWHAudit:
    def test_powh_chain_passes_non_adaptive_audit(self, powh_chain):
        ctx, chain = powh_chain
        assert_clean(replay(ctx, chain[1:], powh_config()), chain)

    def test_powh_chain_fails_adaptive_audit(self, powh_chain):
        """Judging a PoW-H chain under adaptive rules refuses the multiples:
        Eq. 6 would have raised over-producers' multiples above 1."""
        ctx, chain = powh_chain
        node = replay(ctx, chain[1:], themis_config())
        reasons = rejections(node)
        assert reasons and all("multiple" in reason for reason in reasons)
        assert node.state.height() < chain[-1].height

    def test_all_multiples_one_on_powh_chain(self, powh_chain):
        _, chain = powh_chain
        assert all(b.header.difficulty_multiple == 1.0 for b in chain[1:])
