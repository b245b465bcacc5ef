"""Quickstart: a 5-node Themis consortium with REAL SHA-256 mining.

Runs the full §III pipeline end to end — every node grinds nonces against an
easy target, signs its block headers, gossips blocks over the simulated
network, validates incoming headers (membership, difficulty table, puzzle,
signature), and resolves forks with GEOST.

    python examples/quickstart.py
"""

from __future__ import annotations

from collections import Counter

from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.difficulty import DifficultyParams
from repro.crypto.hashing import EASY_T0
from repro.net.latency import LinkModel
from repro.sim.fleet import build_stack


def main() -> None:
    n = 5
    target_height = 20

    # -- a fleet of real-PoW Themis nodes on a complete graph -----------------
    config = themis_config(
        sign_blocks=True,
        verify_signatures=True,
        real_pow=True,  # grind actual SHA-256 nonces
    )
    stack = build_stack(
        MiningNode,
        [config] * n,
        seed=2022,
        degree=n - 1,
        link=LinkModel(jitter=0.01),
        params=DifficultyParams(t0=EASY_T0, i0=3.0, beta=2.0),
        key_prefix="quickstart",
    )
    sim, nodes = stack.sim, stack.nodes

    print(f"Mining a {target_height}-block Themis chain with {n} real-PoW nodes ...")
    stack.run_to_height(target_height)
    sim.run(until=sim.now + 20.0)  # drain in-flight gossip

    # -- inspect the result ---------------------------------------------------
    observer = nodes[0]
    chain = observer.main_chain()
    print(f"\nmain chain after {sim.now:.0f} simulated seconds:")
    name_of = {node.address: f"node-{node.node_id}" for node in nodes}
    for block in chain[1:]:
        print(
            f"  height {block.height:>3d}  {block.block_id.hex()[:16]}  "
            f"producer {name_of[block.producer]}  "
            f"D = {block.header.difficulty:6.2f}  nonce {block.header.nonce}"
        )

    counts = Counter(name_of[b.producer] for b in chain[1:])
    print(f"\nblocks per node: {dict(sorted(counts.items()))}")
    heads = {node.state.head_id for node in nodes}
    print(f"all {n} nodes agree on the head: {len(heads) == 1}")
    assert len(heads) == 1, "nodes diverged — should never happen after drain"


if __name__ == "__main__":
    main()
