"""Reference mining node: a fresh solve time on every head move.

This is ``MiningNode._arm_miner`` as ``repro.consensus.powfamily`` shipped
it before a miner kept its running timer across head moves at an unchanged
difficulty: every call cancels the live timer and draws a new one from the
oracle.  Exponential solve times are memoryless, so the two arming rules
give the same block process in distribution but not in bytes (the shared
generator is drawn in a different order); ``benchmarks/
test_memoryless_timers.py`` compares the two statistically.
"""

from __future__ import annotations

from repro.consensus.powfamily import MiningNode


class ReferenceMiningNode(MiningNode):
    """A :class:`MiningNode` that re-draws its solve time on every head move."""

    def _arm_miner(self) -> None:
        if not self._started:
            return
        if self._mining_handle is not None:
            self._mining_handle.cancel()
        solve_delay = self.ctx.oracle.sample_solve_time(
            self.config.hash_rate, self.current_difficulty()
        )
        self._mining_handle = self.ctx.sim.schedule(solve_delay, self._produce_block)
