"""Network substrate: transport interface, simulator, link model, topology."""

from repro.net.clock import Clock, TimerHandle
from repro.net.latency import DEFAULT_BANDWIDTH_BPS, DEFAULT_MIN_DELAY, LinkModel
from repro.net.message import MESSAGE_OVERHEAD_BYTES, Message
from repro.net.network import SimulatedNetwork
from repro.net.simulator import EventHandle, Simulator
from repro.net.topology import (
    average_degree,
    complete_topology,
    diameter_hops,
    overlay_topology,
    random_regular_topology,
    ring_topology,
    small_world_topology,
)
from repro.net.transport import (
    FaultableTransport,
    LinkDisturbance,
    NetworkStats,
    Transport,
)

__all__ = [
    "Clock",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_MIN_DELAY",
    "EventHandle",
    "FaultableTransport",
    "LinkDisturbance",
    "LinkModel",
    "MESSAGE_OVERHEAD_BYTES",
    "Message",
    "NetworkStats",
    "SimulatedNetwork",
    "Simulator",
    "TimerHandle",
    "Transport",
    "average_degree",
    "complete_topology",
    "diameter_hops",
    "overlay_topology",
    "random_regular_topology",
    "ring_topology",
    "small_world_topology",
]
