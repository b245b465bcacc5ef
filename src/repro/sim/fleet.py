"""The one place a simulated run is assembled.

:func:`build_stack` wires simulator → overlay → oracle → identities →
:class:`~repro.consensus.base.RunContext`; both
:func:`repro.sim.runner.run_experiment` (which layers attacks, chaos,
monitors and metrics on top) and :func:`build_mining_fleet` (tests, examples
and ad-hoc exploration) start from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.chain.genesis import make_genesis
from repro.consensus.base import RunContext
from repro.consensus.powfamily import MiningNode, MiningNodeConfig, themis_config
from repro.core.difficulty import DifficultyParams
from repro.crypto.keys import KeyPair
from repro.errors import SimulationError
from repro.mining.oracle import MiningOracle
from repro.net.latency import LinkModel
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import overlay_topology


@dataclass
class SimStack:
    """One built simulation stack.

    ``ctx`` types its network/clock as the :class:`Transport` /
    :class:`~repro.net.clock.Clock` protocols (all a node may touch); the
    stack keeps the concrete simulator and network so orchestration code
    can drive the event loop and arm chaos hooks without downcasting.
    """

    ctx: RunContext
    sim: Simulator
    network: SimulatedNetwork
    keys: list[KeyPair]

    def release(self) -> None:
        """Let go of a finished run: settle and drop the flood's per-message
        state, detach every node and drop every queued event.

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


def build_stack(
    n: int,
    *,
    seed: int,
    degree: int,
    link: LinkModel,
    params: DifficultyParams,
    key_prefix: str = "node",
) -> SimStack:
    """Seeded simulator, overlay, oracle and member identities for ``n`` nodes.

    The oracle draws from the simulator's generator, so mining, jitter and
    attack picks share one seeded stream.
    """
    sim = Simulator(seed=seed)
    network = SimulatedNetwork(
        sim=sim, adjacency=overlay_topology(n, degree, seed=seed), link=link
    )
    keys = [KeyPair.from_seed(f"{key_prefix}-{i}") for i in range(n)]
    ctx = RunContext(
        sim=sim,
        network=network,
        oracle=MiningOracle(sim.rng, params.t0),
        genesis=make_genesis(),
        params=params,
        members=[k.public.fingerprint() for k in keys],
    )
    return SimStack(ctx=ctx, sim=sim, network=network, keys=keys)


def build_mining_fleet(
    n: int,
    configs: Sequence[MiningNodeConfig] | None = None,
    seed: int = 0,
    beta: float = 8.0,
    i0: float = 10.0,
    h0: float = 1.0,
    degree: int = 6,
    jitter: float = 0.01,
    link: LinkModel | None = None,
    key_prefix: str = "node",
    initial_base_scale: float | None = None,
) -> tuple[RunContext, list[MiningNode]]:
    """Build an ``n``-node PoW-family fleet on a fresh simulator.

    Args:
        configs: per-node configurations; defaults to Themis at ``H0`` power.
        degree: overlay degree (complete graph when ``n <= degree + 1``).
        initial_base_scale: Eq. 7 calibration factor; defaults to the
            fleet's actual total power over ``n·H0`` so epoch 0 starts at
            the target interval.

    Returns:
        ``(ctx, nodes)`` — call ``node.start()`` on each and drive
        ``ctx.sim``.
    """
    if n < 2:
        raise SimulationError("a fleet needs at least two nodes")
    if configs is None:
        configs = [themis_config(hash_rate=h0) for _ in range(n)]
    if len(configs) != n:
        raise SimulationError(f"{len(configs)} configs for {n} nodes")
    if initial_base_scale is None:
        total_power = sum(c.hash_rate for c in configs)
        initial_base_scale = max(1e-9, total_power / (n * h0))
    stack = build_stack(
        n,
        seed=seed,
        degree=degree,
        link=link or LinkModel(jitter=jitter),
        params=DifficultyParams(
            i0=i0, h0=h0, beta=beta, initial_base_scale=initial_base_scale
        ),
        key_prefix=key_prefix,
    )
    nodes = [MiningNode(i, stack.keys[i], stack.ctx, configs[i]) for i in range(n)]
    return stack.ctx, nodes


def run_fleet_to_height(
    ctx: RunContext,
    nodes: Sequence[MiningNode],
    height: int,
    max_events: int = 10_000_000,
    observer_index: int = 0,
) -> None:
    """Start every node and run until the observer's chain reaches a height."""
    if not isinstance(ctx.sim, Simulator):
        raise SimulationError("run_fleet_to_height drives the discrete-event simulator")
    for node in nodes:
        node.start()
    observer = nodes[observer_index]
    ctx.sim.run(
        stop_when=lambda: observer.state.height() >= height, max_events=max_events
    )
    if observer.state.height() < height:
        raise SimulationError(
            f"fleet stalled at height {observer.state.height()} < {height}"
        )
