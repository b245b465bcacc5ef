"""Attack models (§VII-A "Proportion of Vulnerable Nodes", §V-B, §VI-B).

Three attacker behaviours from the paper's evaluation and analysis:

* :class:`VulnerableNodeAttack` — Fig. 7.  "Vulnerable nodes mean the nodes
  that are easily conquered by malicious nodes through single-point attacks
  etc., and prevented from putting the produced blocks into the main chain
  after they are determined to be the producer in a certain round."
  Implemented as outbound suppression of the victim's own block /
  pre-prepare messages: the victim still mines (wasting its rounds) but its
  products never reach the network — exactly a post-election single-point
  attack.

* :class:`SelfishMiner` — Fig. 2 / §V-B.  Withholds its blocks to build a
  private chain and releases it to displace honest work.

* :func:`private_chain_race` — Prop. 2.  The 51 %-attack race between an
  attacker producing at ``q·λ_honest`` and the honest chain, as a seeded
  random walk (no network needed: both processes are Poisson).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.chain.block import Block
from repro.consensus.powfamily import MiningNode
from repro.errors import SimulationError
from repro.net.network import SimulatedNetwork
from repro.rng import distinct


@dataclass
class VulnerableNodeAttack:
    """Suppresses block production of a fraction of nodes (Fig. 7).

    Also usable as a context manager for scoped attack windows::

        with VulnerableNodeAttack(network, victims=[3, 7]):
            sim.run(until=...)
        # filters removed here, even if the run raised
    """

    network: SimulatedNetwork
    victims: list[int] = field(default_factory=list)
    armed: bool = field(default=False, init=False)

    @classmethod
    def select(
        cls,
        network: SimulatedNetwork,
        node_ids: list[int],
        ratio: float,
        rng: random.Random,
    ) -> "VulnerableNodeAttack":
        """Pick ``ratio·n`` victims uniformly at random and arm the attack."""
        if not 0.0 <= ratio <= 1.0:
            raise SimulationError("vulnerable ratio must be in [0, 1]")
        count = round(ratio * len(node_ids))
        victims = sorted(distinct(rng, node_ids, count))
        attack = cls(network=network, victims=victims)
        attack.arm()
        return attack

    def arm(self) -> None:
        """Install outbound drop filters on every victim (idempotent)."""
        if self.armed:
            return
        self.armed = True
        suppressed_kinds = ("block", "pbft/pre-prepare")
        for victim in self.victims:
            self.network.set_drop_filter(
                victim,
                lambda msg, victim=victim: (
                    msg.kind in suppressed_kinds and msg.origin == victim
                ),
            )

    def disarm(self) -> None:
        """Remove all drop filters (idempotent — safe to call twice, or on
        a never-armed attack, without clobbering filters installed later)."""
        if not self.armed:
            return
        self.armed = False
        for victim in self.victims:
            self.network.set_drop_filter(victim, None)

    def __enter__(self) -> "VulnerableNodeAttack":
        self.arm()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.disarm()


class SelfishMiner(MiningNode):
    """A selfish-mining attacker (Eyal & Sirer) on the PoW family.

    Withholds solved blocks, extending a private chain; releases the private
    chain whenever the honest public chain threatens to catch up (lead
    shrinks to ``release_lead``).  Under the longest-chain rule a released
    longer private chain hijacks the head; GHOST and GEOST resist because the
    honest subtree carries more observed weight (Fig. 2).
    """

    def __init__(self, *args: Any, release_lead: int = 1, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.release_lead = release_lead
        self._withheld: list[Block] = []

    def _announce(self, block: Block) -> None:
        """Withhold instead of gossiping: the block stays private."""
        self._withheld.append(block)

    def _handle_block(self, block: Block) -> None:
        """Track honest progress; release the private chain when threatened."""
        super()._handle_block(block)
        if not self._withheld:
            return
        private_tip_height = self._withheld[-1].height
        honest_height = block.height
        if private_tip_height - honest_height <= self.release_lead:
            self.release()

    def release(self) -> None:
        """Publish all withheld blocks at once."""
        for block in self._withheld:
            super()._announce(block)
        self._withheld.clear()

    @property
    def withheld_count(self) -> int:
        """Blocks currently withheld."""
        return len(self._withheld)


class SandbaggingMiner(MiningNode):
    """A duty-cycling attacker probing Eq. 6's memoryless reset (extension).

    Eq. 6 floors a non-producer's multiple at 1 ("the difficulty for each
    consensus node should be at least set to basic block-producing
    difficulty", §IV-A).  A strong miner can exploit that: idle for one
    epoch (its ``q_i = 0`` resets ``m_i`` to 1), then mine the next epoch at
    basic difficulty with its full power — far above its fair 1/n share.

    This attacker alternates idle/active epochs.  The
    ``test_extension_sandbagging`` benchmark measures the payoff, which is a
    *finding about the mechanism* this reproduction documents (the paper
    does not analyze duty-cycling; a deployment would want a floor tied to
    history, not a constant).
    """

    def __init__(
        self, *args: Any, idle_epochs: int = 1, active_epochs: int = 1, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        if idle_epochs < 1 or active_epochs < 1:
            raise SimulationError("duty cycle phases must be >= 1 epoch")
        self.idle_epochs = idle_epochs
        self.active_epochs = active_epochs

    def _phase_active(self) -> bool:
        next_height = self.state.height() + 1
        epoch = self.state.epoch_of_height(next_height)
        cycle = self.idle_epochs + self.active_epochs
        # Idle first (to earn the m = 1 reset), then burst.
        return (epoch % cycle) >= self.idle_epochs

    def _arm_miner(self) -> None:
        if not self._started:
            return
        if not self._phase_active():
            if self._mining_handle is not None:
                self._mining_handle.cancel()
                self._mining_handle = None
            # Re-check at the next head change; also poll so an idle phase
            # ends even if we produce nothing (head changes wake us anyway).
            return
        super()._arm_miner()

    def _handle_block(self, block) -> None:
        super()._handle_block(block)
        # Waking up at an epoch boundary: head changes re-arm us via the
        # parent class only when the head moved; ensure the duty cycle is
        # re-evaluated every block.
        if self._started and self._mining_handle is None and self._phase_active():
            super()._arm_miner()


def private_chain_race(
    q: float,
    confirmation_depth: int,
    trials: int,
    rng: random.Random,
    abandon_deficit: int = 60,
) -> float:
    """Empirical probability that a ``q·λ_honest`` attacker reverts a block.

    Prop. 2's setting: block ``B_j`` is on the honest main chain with
    ``confirmation_depth`` honest blocks on top; the attacker mines a private
    fork from below ``B_j``.  Both chains grow as Poisson processes, so the
    race reduces to a biased random walk: each step is an attacker block with
    probability ``q/(1+q)``.  The attacker wins on reaching the honest tip; a
    trial is abandoned as lost once the attacker falls ``abandon_deficit``
    blocks behind (the residual catch-up probability ``q^deficit`` is far
    below any measurable resolution, and near-critical walks would otherwise
    wander for millions of steps).

    Returns the fraction of trials the attacker caught up — which Prop. 2
    says must vanish as ``confirmation_depth`` grows for ``q < 1``.
    """
    if not 0.0 <= q < 1.0:
        raise SimulationError("attacker fraction q must be in [0, 1)")
    if confirmation_depth < 0:
        raise SimulationError("confirmation depth must be non-negative")
    if trials < 1:
        raise SimulationError("need at least one trial")
    p_attacker = q / (1.0 + q)
    ceiling = confirmation_depth + 1 + abandon_deficit
    wins = 0
    for _ in range(trials):
        deficit = confirmation_depth + 1  # blocks the attacker is behind
        while 0 < deficit < ceiling:
            if rng.random() < p_attacker:
                deficit -= 1
            else:
                deficit += 1
        if deficit == 0:
            wins += 1
    return wins / trials


def nakamoto_catch_up_probability(q: float, confirmation_depth: int) -> float:
    """Closed-form gambler's-ruin catch-up probability ``q^(z+1)``.

    For an attacker at relative rate ``q < 1`` starting ``z+1`` blocks
    behind, the probability of ever catching up is ``(q)^(z+1)`` — the
    analytic curve the empirical race is checked against.
    """
    if not 0.0 <= q < 1.0:
        raise SimulationError("attacker fraction q must be in [0, 1)")
    return q ** (confirmation_depth + 1)
