"""Observability tour: tracing, the tree view, and epoch reports.

Runs a small Themis consortium, then inspects it three ways:

* the shared :class:`Tracer` timeline (who produced what, reorgs);
* the block-tree view (forks, lineage, producer table);
* per-epoch difficulty reports (interval control, multiple spread, σ_f²).

    python examples/observability_tour.py
"""

from __future__ import annotations

from repro.analysis.epochs import epoch_reports, format_epoch_reports
from repro.analysis.treeview import chain_summary, find_forks, head_lineage
from repro.sim.runner import ExperimentConfig, run_experiment
from repro.sim.tracing import Tracer


def main() -> None:
    result = run_experiment(
        ExperimentConfig(algorithm="themis", n=10, epochs=4, seed=5)
    )
    observer = result.observer
    members = result.members
    name_of = {m: f"N{i}" for i, m in enumerate(members)}.get

    print("=== chain summary ===")
    print(chain_summary(observer.main_chain(), name_of=lambda p: name_of(p, "?")))

    print("\n=== last 8 blocks behind the head ===")
    print(
        head_lineage(
            observer.tree,
            observer.state.head_id,
            depth=8,
            name_of=lambda p: name_of(p, "?"),
        )
    )

    forks = find_forks(observer.tree)
    print(f"\n=== forks: {len(forks)} fork points in the final tree ===")
    for fork in forks[-5:]:
        branches = ", ".join(f"{bid.hex()[:8]}(size {size})" for bid, size in fork.branches)
        print(f"  at height {fork.height}: {branches}")

    print("\n=== per-epoch difficulty report ===")
    reports = epoch_reports(observer.state, members)
    print(format_epoch_reports(reports))

    print("\n=== tracing a fresh 30-block run ===")
    # A tracer subscribes to each node's block-path events.
    from repro.consensus.powfamily import MiningNode, themis_config
    from repro.core.difficulty import DifficultyParams
    from repro.net.latency import LinkModel
    from repro.sim.fleet import build_stack

    params = DifficultyParams(i0=5.0, beta=2.0)
    tracer = Tracer()
    with build_stack(
        MiningNode, [themis_config()] * 4, seed=8, link=LinkModel(jitter=0.01), params=params
    ) as stack:
        for node in stack.nodes:
            node.observers.append(tracer)
        stack.run_to_height(30)
    counts = tracer.counts_by_kind()
    print(f"event counts: {dict(counts)}")
    print("tail of the timeline:")
    print(tracer.timeline(limit=6))


if __name__ == "__main__":
    main()
