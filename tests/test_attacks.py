"""Tests for attack models: vulnerable nodes, selfish mining, 51 % races."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.consensus.powfamily import MiningNode, themis_config
from repro.errors import SimulationError
from repro.serde import to_json
from repro.sim.attacks import (
    SelfishMiner,
    VulnerableNodeAttack,
    nakamoto_catch_up_probability,
    private_chain_race,
)
from repro.sim.fleet import build_stack

from tests.conftest import FAST, TEST_FLEET, keypair


class TestVulnerableNodes:
    def test_selection_respects_ratio(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        attack = VulnerableNodeAttack.select(
            stack.network, list(range(4)), 0.5, random.Random(0)
        )
        assert len(attack.victims) == 2

    def test_ratio_validation(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        with pytest.raises(SimulationError):
            VulnerableNodeAttack.select(
                stack.network, list(range(4)), 1.5, random.Random(0)
            )

    def test_victim_blocks_never_land(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=8, params=FAST, **TEST_FLEET)
        attack = VulnerableNodeAttack(network=stack.network, victims=[0])
        attack.arm()
        stack.run_to_height(20)
        victim_addr = stack.nodes[0].address
        # The victim produced blocks locally but none reached peers' chains.
        chain = stack.nodes[1].main_chain()
        producers = {b.producer for b in chain[1:]}
        assert victim_addr not in producers
        assert stack.nodes[0].stats.blocks_produced > 0

    def test_consensus_survives_attack(self):
        """§VII-D: other nodes continue the consensus on schedule.

        The run stops when one honest node reaches height 20; every other
        honest node is then at most one block behind it.  The victim's
        own chain is honest blocks with its suppressed blocks on top.
        """
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=8, params=FAST, **TEST_FLEET)
        victim, honest = stack.nodes[0], stack.nodes[1:]
        VulnerableNodeAttack(network=stack.network, victims=[0]).arm()
        for node in stack.nodes:
            node.start()
        stack.sim.run(
            stop_when=lambda: honest[0].state.height() >= 20, max_events=5_000_000
        )
        assert min(node.state.height() for node in honest) >= 19
        own = [block.producer == victim.address for block in victim.main_chain()[1:]]
        honest_height = own.index(True) if True in own else len(own)
        assert all(own[honest_height:])  # no honest block above a suppressed one

    def test_disarm_restores(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=8, params=FAST, **TEST_FLEET)
        attack = VulnerableNodeAttack(network=stack.network, victims=[0])
        attack.arm()
        attack.disarm()
        stack.run_to_height(15)
        producers = {b.producer for b in stack.nodes[1].main_chain()[1:]}
        assert stack.nodes[0].address in producers

    def test_arm_disarm_idempotent(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=8, params=FAST, **TEST_FLEET)
        attack = VulnerableNodeAttack(network=stack.network, victims=[0])
        attack.arm()
        attack.arm()  # second arm must not stack a duplicate filter
        assert attack.armed
        attack.disarm()
        attack.disarm()  # and disarm after disarm is a no-op
        assert not attack.armed
        stack.run_to_height(15)
        producers = {b.producer for b in stack.nodes[1].main_chain()[1:]}
        assert stack.nodes[0].address in producers

    def test_context_manager_disarms(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=8, params=FAST, **TEST_FLEET)
        attack = VulnerableNodeAttack(network=stack.network, victims=[0])
        with attack as armed:
            assert armed is attack
            assert attack.armed
        assert not attack.armed
        stack.run_to_height(15)
        producers = {b.producer for b in stack.nodes[1].main_chain()[1:]}
        assert stack.nodes[0].address in producers

    def test_context_manager_disarms_on_exception(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=8, params=FAST, **TEST_FLEET)
        attack = VulnerableNodeAttack(network=stack.network, victims=[0])
        with pytest.raises(RuntimeError):
            with attack:
                raise RuntimeError("boom")
        assert not attack.armed


class TestSelfishMiner:
    def _fleet_with_attacker(self, seed=3, attacker_power=3.0):

        stack = build_stack(MiningNode, [themis_config()] * 4, seed=seed, params=FAST, **TEST_FLEET)
        # Replace node 0 with a selfish miner of outsized power.
        stack.network.detach(0)
        attacker = SelfishMiner(
            0,
            keypair(0),
            stack.ctx,
            themis_config(hash_rate=attacker_power),
            release_lead=1,
        )
        stack.nodes[0] = attacker
        return stack.ctx, stack.nodes, attacker

    def test_attacker_withholds(self):
        ctx, nodes, attacker = self._fleet_with_attacker()
        for node in nodes:
            node.start()
        ctx.sim.run(
            stop_when=lambda: attacker.withheld_count >= 1, max_events=2_000_000
        )
        assert attacker.withheld_count >= 1
        # Peers have not seen the withheld block.
        assert nodes[1].state.height() < attacker.state.height()

    def test_release_publishes_all(self):
        ctx, nodes, attacker = self._fleet_with_attacker()
        for node in nodes:
            node.start()
        ctx.sim.run(
            stop_when=lambda: attacker.withheld_count >= 2, max_events=2_000_000
        )
        withheld = attacker.withheld_count
        attacker.release()
        assert attacker.withheld_count == 0
        ctx.sim.run(until=ctx.sim.now + 5.0)
        # Peers received the private chain blocks.
        assert nodes[1].tree.has_block(attacker.state.head_id) or withheld == 0


#: sha256 of :func:`selfish_fleet_digest`, re-captured at commit ``19c69bd``
#: (the parent of the stdlib-randomness change), after that change, with
#:
#:   PYTHONPATH=src python -c "from tests.test_attacks import \
#:       selfish_fleet_digest; print(selfish_fleet_digest())"
#:
#: The run's one generator is now a ``random.Random``, not a numpy
#: ``Generator``: the same block process in distribution, other bytes.  The
#: capture before, at ``3f23eec``, was for the memoryless mining timers.
GOLDEN_SELFISH_SHA256 = "2303ec9dec48b914e7c5234e406742f6b65ea1b570126711b7d094cd729f8c7f"


def selfish_fleet_digest() -> str:
    """The seed-3 attacker fleet to height 40: withholding and releasing.

    Covers every node's head and tree size, the production counters, the
    network counters and the event count; the withheld blocks are in the
    attacker's tree, so their bytes (timestamp, no signature, empty body) are
    hashed in full.
    """
    ctx, nodes, attacker = TestSelfishMiner()._fleet_with_attacker(seed=3)
    for node in nodes:
        node.start()
    withheld_peak = 0

    def done() -> bool:
        nonlocal withheld_peak
        withheld_peak = max(withheld_peak, attacker.withheld_count)
        return all(node.state.height() >= 40 for node in nodes)

    ctx.sim.run(stop_when=done, max_events=5_000_000)
    assert withheld_peak >= 2 and attacker.stats.blocks_produced > withheld_peak
    facts = (
        [(node.state.head_id.hex(), len(node.tree)) for node in nodes],
        [node.stats.blocks_produced for node in nodes],
        sorted(
            block.to_bytes().hex()
            for block in attacker.tree.iter_blocks()
            if block.producer == attacker.address
        ),
        json.dumps(to_json(ctx.network.stats), sort_keys=True),
        ctx.sim.events_processed,
    )
    return hashlib.sha256(repr(facts).encode()).hexdigest()


class TestGoldenSelfishFleet:
    def test_withholding_fleet_is_event_identical_to_the_parent(self):
        assert selfish_fleet_digest() == GOLDEN_SELFISH_SHA256


class TestPrivateChainRace:
    def test_zero_power_never_wins(self):
        rng = random.Random(0)
        assert private_chain_race(0.0, 2, trials=200, rng=rng) == 0.0

    def test_probability_decreases_with_depth(self):
        rng = random.Random(1)
        shallow = private_chain_race(0.4, 0, trials=3000, rng=rng)
        deep = private_chain_race(0.4, 6, trials=3000, rng=rng)
        assert deep < shallow

    def test_matches_nakamoto_closed_form(self):
        """Prop. 2 backbone: empirical race ≈ q^(z+1)."""
        rng = random.Random(2)
        for q, z in ((0.3, 2), (0.5, 3)):
            empirical = private_chain_race(q, z, trials=20_000, rng=rng)
            analytic = nakamoto_catch_up_probability(q, z)
            assert empirical == pytest.approx(analytic, abs=0.02)

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(SimulationError):
            private_chain_race(1.0, 2, trials=10, rng=rng)
        with pytest.raises(SimulationError):
            private_chain_race(0.5, -1, trials=10, rng=rng)
        with pytest.raises(SimulationError):
            private_chain_race(0.5, 1, trials=0, rng=rng)
        with pytest.raises(SimulationError):
            nakamoto_catch_up_probability(1.2, 3)

    def test_closed_form_values(self):
        assert nakamoto_catch_up_probability(0.5, 0) == 0.5
        assert nakamoto_catch_up_probability(0.5, 5) == pytest.approx(0.5**6)
