"""The one place a simulated fleet is built.

:func:`build_stack` wires simulator → overlay → member identities →
consortium context (:func:`~repro.consensus.base.consortium_context`, the
derivation the live tier uses too) → nodes, and hands them back as one
:class:`SimStack`.  Every simulated run starts from it:
:func:`repro.sim.runner.run_experiment` (which layers attacks, chaos,
monitors and metrics on top), the tests, the examples and the benchmarks.

A stack owns its nodes and is a context manager: leaving the ``with`` block
releases the run, so reference counting frees the fleet there.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.consensus.base import ConsensusNode, RunContext, consortium_context
from repro.consensus.powfamily import MiningNode
from repro.core.difficulty import DifficultyParams
from repro.crypto.keys import KeyPair
from repro.errors import SimulationError
from repro.net.latency import LinkModel
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import overlay_topology

N = TypeVar("N", bound=ConsensusNode)
M = TypeVar("M", bound=MiningNode)
C = TypeVar("C")


@dataclass
class SimStack(Generic[N]):
    """One built simulation stack and the fleet that runs on it.

    ``ctx`` types its network/clock as the :class:`Transport` /
    :class:`~repro.net.clock.Clock` protocols (all a node may touch); the
    stack keeps the concrete simulator and network so orchestration code
    can drive the event loop and arm chaos hooks without downcasting.
    """

    ctx: RunContext
    sim: Simulator
    network: SimulatedNetwork
    nodes: list[N]

    def __enter__(self) -> SimStack[N]:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def run_to_height(
        self: SimStack[M], height: int, max_events: int = 10_000_000
    ) -> None:
        """Start every node and run until the first node's chain reaches
        ``height``; raise :class:`SimulationError` if the fleet stalls first."""
        for node in self.nodes:
            node.start()
        observer = self.nodes[0]
        self.sim.run(
            stop_when=lambda: observer.state.height() >= height, max_events=max_events
        )
        if observer.state.height() < height:
            raise SimulationError(
                f"fleet stalled at height {observer.state.height()} < {height}"
            )

    def release(self) -> None:
        """Let go of a finished run: settle and drop the flood's per-message
        state, detach and drop every node and drop every queued event.

        The stack stays readable (clock, counters, topology), but it no
        longer reaches the nodes that ran on it.  A run's objects form no
        reference cycles, so reference counting frees the fleet here and
        what outlives the run, such as one observer holding ``ctx``, when
        its last holder goes (``tests/test_runner.py::TestRefcountFreed``).
        """
        self.network.forget_floods()
        for node_id in self.network.node_ids:
            self.network.detach(node_id)
        self.sim.discard_pending()
        self.nodes = []


def build_stack(
    node_class: Callable[[int, KeyPair, RunContext, C], N],
    configs: Sequence[C],
    *,
    seed: int = 0,
    degree: int = 6,
    link: LinkModel | None = None,
    params: DifficultyParams | None = None,
    key_prefix: str = "node",
) -> SimStack[N]:
    """A seeded fleet of ``len(configs)`` nodes, node ``i`` built as
    ``node_class(i, keys[i], ctx, configs[i])``.

    Args:
        degree: overlay degree (complete graph when ``n <= degree + 1``).
        link: per-hop link model; the §VII-A link by default.
        params: difficulty constants; the §VII-A defaults by default
            (``ExperimentConfig.difficulty_params`` calibrates them to the
            invested power).
        key_prefix: member ``i`` holds ``KeyPair.from_seed(f"{key_prefix}-{i}")``.

    The oracle draws from the simulator's generator, so mining, jitter and
    attack picks share one seeded stream; node constructors draw nothing.
    """
    n = len(configs)
    sim = Simulator(seed=seed)
    network = SimulatedNetwork(
        sim=sim, adjacency=overlay_topology(n, degree, seed=seed), link=link or LinkModel()
    )
    keys = [KeyPair.from_seed(f"{key_prefix}-{i}") for i in range(n)]
    ctx = consortium_context(sim, sim.rng, network, params or DifficultyParams(), keys)
    nodes = [node_class(i, keys[i], ctx, config) for i, config in enumerate(configs)]
    return SimStack(ctx=ctx, sim=sim, network=network, nodes=nodes)

