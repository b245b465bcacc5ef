"""Fig. 2 — fork-choice comparison under selfish mining.

The paper's Fig. 2 shows a block tree where "the longest chain, the chain
selected by GHOST, and the chain selected by GEOST differ.  An attacker's
chain is only able to switch the main chain under the longest chain rule."

This benchmark reproduces that on randomized simulations: a selfish miner
with outsized power withholds a private chain against an honest Themis
fleet, and we measure how many of the attacker's blocks each rule finalizes.
"""

from __future__ import annotations

from collections import Counter

from repro.chain.blocktree import BlockTree
from repro.chain.forkchoice import GHOSTRule, LongestChainRule
from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.difficulty import DifficultyParams
from repro.core.geost import GEOSTRule
from repro.net.latency import LinkModel
from repro.sim.attacks import SelfishMiner
from repro.sim.fleet import build_stack


def _run_selfish_attack(seed: int, attacker_power: float = 2.5, height: int = 60):
    link, params = LinkModel(jitter=0.01), DifficultyParams(i0=5.0, beta=4.0)
    configs = [themis_config()] * 5
    stack = build_stack(
        MiningNode, configs, seed=seed, link=link, params=params, key_prefix="test-node"
    )
    ctx, nodes = stack.ctx, stack.nodes
    stack.network.detach(0)
    attacker = SelfishMiner(
        0, nodes[0].keypair, ctx, themis_config(hash_rate=attacker_power), release_lead=1
    )
    nodes[0] = attacker
    for node in nodes:
        node.start()
    stack.sim.run(
        stop_when=lambda: nodes[1].state.height() >= height, max_events=3_000_000
    )
    stack.sim.run(until=stack.sim.now + 10.0)
    return ctx, nodes, attacker


def _attacker_share(tree: BlockTree, head: bytes, attacker_addr: bytes) -> float:
    chain = tree.chain_to(head)
    counts = Counter(b.producer for b in chain[1:])
    total = sum(counts.values())
    return counts[attacker_addr] / total if total else 0.0


def test_fig2_rules_disagree_under_attack(run_once):
    """Regenerate Fig. 2: per-rule attacker share of the final main chain."""

    def experiment():
        rows = []
        for seed in (3, 5, 9, 13):
            ctx, nodes, attacker = _run_selfish_attack(seed)
            observer = nodes[1]
            tree = observer.tree
            members = ctx.members
            longest = LongestChainRule().head(tree)
            ghost = GHOSTRule().head(tree)
            geost = GEOSTRule(lambda: members).head(tree)
            rows.append(
                {
                    "seed": seed,
                    "longest": _attacker_share(tree, longest, attacker.address),
                    "ghost": _attacker_share(tree, ghost, attacker.address),
                    "geost": _attacker_share(tree, geost, attacker.address),
                }
            )
        return rows

    rows = run_once(experiment)
    print("\n=== Fig. 2: attacker share of the main chain, per rule ===")
    print(f"{'seed':>6s} {'longest':>10s} {'ghost':>10s} {'geost':>10s}")
    for row in rows:
        print(
            f"{row['seed']:>6d} {row['longest']:>10.3f} "
            f"{row['ghost']:>10.3f} {row['geost']:>10.3f}"
        )
    mean = lambda key: sum(r[key] for r in rows) / len(rows)
    # Shape: GEOST finalizes at most as much attacker work as GHOST, and
    # both resist at least as well as the longest-chain rule.
    assert mean("geost") <= mean("ghost") + 1e-9
    assert mean("ghost") <= mean("longest") + 1e-9


def test_fig2_canonical_tree(run_once):
    """The hand-built §V-B decision: GEOST picks 4C where GHOST picks 4B."""

    def experiment():
        from repro.chain.genesis import make_genesis
        from tests.conftest import TreeBuilder, keypair

        builder = TreeBuilder(make_genesis())
        b1 = builder.extend(builder.genesis, 0)
        b2 = builder.extend(b1, 1)
        b3b = builder.extend(b2, 0)  # 3B: producer 0 repeats
        b3c = builder.extend(b2, 2)  # 3C: fresh producer
        b4b = builder.extend(b3b, 1)
        b4c = builder.extend(b3c, 3)
        members = [keypair(i).public.fingerprint() for i in range(6)]
        return {
            "ghost": GHOSTRule().head(builder.tree),
            "geost": GEOSTRule(lambda: members).head(builder.tree),
            "b4b": b4b.block_id,
            "b4c": b4c.block_id,
        }

    result = run_once(experiment)
    print("\nFig. 2 canonical tie: GHOST -> 4B (first received), GEOST -> 4C (most equal)")
    assert result["ghost"] == result["b4b"]
    assert result["geost"] == result["b4c"]
