"""The static consortium manifest live deployments boot from.

A consortium blockchain has a closed, known membership (§II) — so live
peer discovery is a *file*, not a gossip protocol: every process loads the
same manifest and derives the same member list, overlay adjacency and
difficulty parameters from it, and its run context through
:func:`~repro.consensus.base.consortium_context`, as the simulator's
:func:`~repro.sim.fleet.build_stack` does.  That is what keeps the
difficulty table derivation communication-free (§IV-A) in live mode too.

Identity note: peer keypairs derive deterministically from the manifest
``key_prefix`` and node index, exactly like the simulator's fleets.  That
is a *reproduction* convenience — a deployment would reference operator-held
keys here instead — and it is why localnet clusters are for experiments,
never value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.difficulty import DifficultyParams
from repro.crypto.keys import KeyPair
from repro.errors import NetworkError, SimulationError
from repro.net.topology import overlay_topology
from repro.serde import from_json, to_json


@dataclass(frozen=True, kw_only=True)
class PeerSpec:
    """One consortium member's network endpoint."""

    node_id: int
    host: str
    port: int

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise NetworkError("peer node_id must be non-negative")
        if not 0 < self.port < 65536:
            raise NetworkError(f"peer port {self.port} out of range")


@dataclass(frozen=True, kw_only=True)
class ConsortiumManifest:
    """Everything a node process needs to join a live deployment.

    Attributes:
        peers: every member's endpoint, in node-id order.
        seed: master seed; the overlay wiring and each node's mining RNG
            stream derive from it, so two clusters built from the same
            manifest behave statistically alike.
        degree: gossip overlay degree (complete graph when ``n <= degree+1``),
            matching the simulator's topology construction.
        i0: target block interval ``I0`` in *real* seconds.
        beta: epoch length factor ``Δ = β·n``.
        h0: minimum node hash rate ``H0``.
        key_prefix: deterministic key derivation prefix (see module note).
        sign_blocks / verify_signatures: real ECDSA on headers and
            transactions (~0.25 ms per signature, ~1.7 ms per verification in
            pure Python, ~0.6 ms once a key has earned its table); off by
            default, on with ``localnet --sign``.
    """

    peers: tuple[PeerSpec, ...]
    seed: int = 0
    degree: int = 6
    i0: float = 2.0
    beta: float = 8.0
    h0: float = 1.0
    key_prefix: str = "node"
    sign_blocks: bool = False
    verify_signatures: bool = False

    def __post_init__(self) -> None:
        if len(self.peers) < 2:
            raise NetworkError("a consortium needs at least two peers")
        ids = [peer.node_id for peer in self.peers]
        if ids != list(range(len(ids))):
            raise NetworkError("peer node_ids must be 0..n-1 in order")
        if self.i0 <= 0:
            raise NetworkError("i0 must be positive")
        if self.degree < 1:
            raise NetworkError("degree must be >= 1")

    @property
    def n(self) -> int:
        return len(self.peers)

    def peer(self, node_id: int) -> PeerSpec:
        """The endpoint of one member."""
        if not 0 <= node_id < self.n:
            raise NetworkError(f"node {node_id} not in the manifest")
        return self.peers[node_id]

    # -- derived, identical on every process --------------------------------------

    def adjacency(self) -> dict[int, list[int]]:
        """The gossip overlay, derived exactly like the simulator's."""
        return overlay_topology(self.n, self.degree, seed=self.seed)

    def keypairs(self) -> list[KeyPair]:
        """Deterministic member keypairs, in node-id order."""
        return [KeyPair.from_seed(f"{self.key_prefix}-{i}") for i in range(self.n)]

    def members(self) -> list[bytes]:
        """Member address fingerprints, in node-id order."""
        return [kp.public.fingerprint() for kp in self.keypairs()]

    def difficulty_params(self) -> DifficultyParams:
        return DifficultyParams(i0=self.i0, h0=self.h0, beta=self.beta)

    def node_seed(self, node_id: int) -> int:
        """Per-process RNG seed: disjoint streams from one master seed."""
        return self.seed * 1_000_003 + node_id

    # -- serde ----------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the manifest as JSON (the file every process loads)."""
        Path(path).write_text(json.dumps(to_json(self), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ConsortiumManifest":
        try:
            return from_json(cls, json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError, SimulationError) as exc:
            raise NetworkError(f"cannot load manifest {path}: {exc}") from exc


def localhost_manifest(
    *,
    ports: list[int],
    seed: int = 0,
    degree: int = 6,
    i0: float = 2.0,
    beta: float = 8.0,
) -> ConsortiumManifest:
    """Build an all-localhost manifest from a list of listening ports."""
    peers = tuple(
        PeerSpec(node_id=i, host="127.0.0.1", port=port)
        for i, port in enumerate(ports)
    )
    return ConsortiumManifest(peers=peers, seed=seed, degree=degree, i0=i0, beta=beta)
