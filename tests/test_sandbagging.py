"""Tests for the sandbagging attacker (duty-cycle against Eq. 6)."""

from __future__ import annotations

import pytest

from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.difficulty import DifficultyParams
from repro.errors import SimulationError
from repro.sim.attacks import SandbaggingMiner
from repro.sim.fleet import build_stack

from tests.conftest import TEST_FLEET, keypair


class TestSandbaggingMiner:
    def _fleet(self):
        params = DifficultyParams(i0=5.0, beta=2.0)
        stack = build_stack(MiningNode, [themis_config()] * 6, seed=4, params=params, **TEST_FLEET)
        stack.network.detach(0)
        attacker = SandbaggingMiner(
            0, keypair(0), stack.ctx, themis_config(hash_rate=10.0)
        )
        stack.nodes[0] = attacker
        return stack.ctx, stack.nodes, attacker

    def test_duty_cycle_validation(self):
        ctx, nodes, _ = self._fleet()
        with pytest.raises(SimulationError):
            SandbaggingMiner(
                1, keypair(1), ctx, themis_config(), idle_epochs=0
            )

    def test_idles_in_idle_epochs(self):
        """Epoch 0 is idle: the attacker produces nothing during it."""
        ctx, nodes, attacker = self._fleet()
        delta = ctx.params.epoch_length(6)
        for node in nodes:
            node.start()
        ctx.sim.run(
            stop_when=lambda: nodes[1].state.height() >= delta, max_events=2_000_000
        )
        assert attacker.stats.blocks_produced == 0

    def test_bursts_in_active_epochs(self):
        """In epoch 1 (active, m reset to 1) the attacker produces heavily."""
        ctx, nodes, attacker = self._fleet()
        delta = ctx.params.epoch_length(6)
        for node in nodes:
            node.start()
        ctx.sim.run(
            stop_when=lambda: nodes[1].state.height() >= 2 * delta,
            max_events=3_000_000,
        )
        chain = nodes[1].main_chain()[delta + 1 : 2 * delta + 1]
        attacker_blocks = sum(1 for b in chain if b.producer == attacker.address)
        # With h = 10 vs 5 honest nodes at 1: expected share ~ 10/15.
        assert attacker_blocks > len(chain) * 0.3

    def test_timer_is_live_exactly_in_active_phases(self):
        """An idle attacker holds no timer; it arms one once the next block
        falls in an active epoch, and drops it when an idle one comes."""
        ctx, nodes, attacker = self._fleet()
        delta = ctx.params.epoch_length(6)
        for node in nodes:
            node.start()

        def out_of_phase():
            return (attacker._mining_handle is not None) != attacker._phase_active()

        ctx.sim.run(
            stop_when=lambda: out_of_phase() or nodes[1].state.height() >= 3 * delta,
            max_events=3_000_000,
        )
        assert not out_of_phase()
        assert nodes[1].state.height() >= 3 * delta
        assert attacker.stats.blocks_produced > 0

    def test_phase_function_cycles(self):
        ctx, nodes, attacker = self._fleet()
        # Height 0 -> next block in epoch 0 -> idle phase.
        assert attacker._phase_active() is False
