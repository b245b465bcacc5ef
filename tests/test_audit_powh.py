"""Replay of non-adaptive (PoW-H) chains and cross-mode detection."""

from __future__ import annotations

import pytest

from repro.consensus.powfamily import powh_config, themis_config

from tests.test_audit import assert_clean, rejections, replay
from tests.test_powfamily import make_fleet, run_to_height


@pytest.fixture(scope="module")
def powh_chain():
    configs = [powh_config(hash_rate=1.0) for _ in range(4)]
    ctx, nodes = make_fleet(4, configs=configs, seed=14, beta=2.0, i0=5.0)
    run_to_height(ctx, nodes, 24)
    return ctx, nodes[0].main_chain()[:25]


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
