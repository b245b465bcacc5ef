"""Consortium governance: on-chain membership management (§IV-C).

A four-member consortium runs full nodes (signed 512-byte transactions,
ledger execution, NodeSetContract).  The scenario:

1. members trade for a while — balances and state roots stay consistent;
2. a new organization applies to join: a member submits an Add proposal
   carrying its proof of identity, others vote, and at the next round
   boundary the member set grows to five (one node one vote, majority);
3. a member is caught misbehaving: a Remove proposal with evidence passes
   and the culprit is expelled — its blocks stop validating.

    python examples/consortium_governance.py
"""

from __future__ import annotations

from repro.core.difficulty import DifficultyParams
from repro.crypto.keys import KeyPair
from repro.net.latency import LinkModel
from repro.node.config import FullNodeConfig
from repro.node.node import FullNode
from repro.sim.fleet import build_stack


def main() -> None:
    stack = build_stack(
        FullNode,
        [FullNodeConfig()] * 4,
        seed=7,
        link=LinkModel(jitter=0.01),
        params=DifficultyParams(i0=4.0, beta=2.0),
        key_prefix="org",
    )
    sim, nodes = stack.sim, stack.nodes
    newcomer = KeyPair.from_seed("org-new")
    for node in nodes:
        node.start()

    # -- 1. ordinary trading ---------------------------------------------------
    print("Phase 1: transfers between members")
    nodes[0].pay(nodes[1].address, 500)
    nodes[1].pay(nodes[2].address, 120)
    sim.run(
        stop_when=lambda: all(node.ledger.nonce(nodes[0].address) == 1 for node in nodes)
    )
    sim.run(until=sim.now + 60.0)
    roots = {node.state_root().hex()[:16] for node in nodes}
    print(f"  balances settled; state roots agree: {roots}")
    assert len(roots) == 1

    # -- 2. a new member joins -------------------------------------------------
    print("Phase 2: org-new applies to join the consortium")
    new_addr = newcomer.public.fingerprint()
    nodes[0].propose_add_member(new_addr, evidence=b"org-new identity certificate")
    sim.run(until=sim.now + 40.0)
    nodes[1].vote(0, True)
    nodes[2].vote(0, True)
    sim.run(
        stop_when=lambda: all(node.nodeset.is_member(new_addr) for node in nodes),
        max_events=3_000_000,
    )
    print(f"  proposal passed; member count is now {len(nodes[0].nodeset.members)}")
    assert all(len(node.nodeset.members) == 5 for node in nodes)

    # -- 3. a member is expelled -------------------------------------------------
    print("Phase 3: org-3 caught double-spending; removal proposed")
    victim = nodes[3].address
    nodes[0].propose_remove_member(victim, evidence=b"double-spend proof")
    sim.run(until=sim.now + 40.0)
    nodes[1].vote(1, True)
    nodes[2].vote(1, True)
    sim.run(
        stop_when=lambda: all(not node.nodeset.is_member(victim) for node in nodes),
        max_events=3_000_000,
    )
    print(f"  org-3 expelled; member count is now {len(nodes[0].nodeset.members)}")
    assert all(len(node.nodeset.members) == 4 for node in nodes)
    assert all(not node.validator.is_member(victim) for node in nodes[:3])
    print("\nGovernance flow complete: add + remove both took effect at round boundaries.")


if __name__ == "__main__":
    main()
