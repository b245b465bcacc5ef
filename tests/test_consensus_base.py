"""Tests for shared consensus-node plumbing (wire sizes, run context)."""

from __future__ import annotations

import pytest

from repro.consensus.base import COMPACT_TX_BYTES, FULL_TX_BYTES, HEADER_WIRE_BYTES
from repro.consensus.powfamily import MiningNode, themis_config
from repro.sim.fleet import build_stack

from tests.conftest import keypair

#: Four Themis members on the §VII-A link and difficulty defaults.
THEMIS_4 = [themis_config()] * 4


class TestWireSizes:
    def test_compact_block_relay(self):
        node = build_stack(MiningNode, THEMIS_4, key_prefix="test-node").nodes[0]
        size = node.block_wire_size(1000, compact=True)
        assert size == HEADER_WIRE_BYTES + 1000 * COMPACT_TX_BYTES

    def test_full_block_relay_uses_512b_txs(self):
        """§VII-A: full bodies are 512 bytes per transaction."""
        node = build_stack(MiningNode, THEMIS_4, key_prefix="test-node").nodes[0]
        size = node.block_wire_size(100, compact=False)
        assert size == HEADER_WIRE_BYTES + 100 * FULL_TX_BYTES
        assert FULL_TX_BYTES == 512

    def test_compact_much_smaller(self):
        node = build_stack(MiningNode, THEMIS_4, key_prefix="test-node").nodes[0]
        assert node.block_wire_size(2000, True) < node.block_wire_size(2000, False) / 10


class TestRunContext:
    def test_n_property(self):
        assert build_stack(MiningNode, THEMIS_4).ctx.n == 4

    def test_node_attaches_to_network(self):
        stack = build_stack(MiningNode, THEMIS_4, key_prefix="test-node")
        assert stack.network.node_ids == [0, 1, 2, 3]
        assert stack.nodes[2].address == keypair(2).public.fingerprint()

    def test_current_difficulty_initial(self):
        node = build_stack(MiningNode, THEMIS_4, key_prefix="test-node").nodes[0]
        # Epoch 0: multiple 1, base per Eq. 7 (uncalibrated params here).
        expected_base = node.ctx.params.initial_base_difficulty(4)
        assert node.current_difficulty() == pytest.approx(expected_base)
