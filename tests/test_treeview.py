"""Tests for the block-tree view utilities."""

from __future__ import annotations

from repro.analysis.treeview import chain_summary, find_forks, head_lineage


class TestFindForks:
    def test_no_forks_on_linear_chain(self, tree_builder):
        tree_builder.chain(tree_builder.genesis, [0, 1, 2])
        assert find_forks(tree_builder.tree) == []

    def test_fork_reported_with_branches(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        b = tree_builder.extend(a, 1)
        c = tree_builder.extend(a, 2)
        tree_builder.extend(b, 3)
        forks = find_forks(tree_builder.tree)
        assert len(forks) == 1
        fork = forks[0]
        assert fork.height == 1
        assert fork.width == 2
        sizes = dict(fork.branches)
        assert sizes[b.block_id] == 2
        assert sizes[c.block_id] == 1

    def test_forks_ordered_by_height(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        tree_builder.extend(tree_builder.genesis, 1)  # fork at height 0
        b = tree_builder.extend(a, 2)
        tree_builder.extend(a, 3)  # fork at height 1
        forks = find_forks(tree_builder.tree)
        assert [f.height for f in forks] == [0, 1]


class TestSummaries:
    def test_chain_summary_counts(self, tree_builder):
        blocks = tree_builder.chain(tree_builder.genesis, [0, 0, 1])
        chain = [tree_builder.genesis] + blocks
        text = chain_summary(chain, name_of=lambda p: p.hex()[:4])
        assert "blocks: 3" in text
        assert "66.67%" in text

    def test_empty_chain(self, genesis):
        assert chain_summary([genesis]) == "(empty chain)"

    def test_head_lineage(self, tree_builder):
        a = tree_builder.extend(tree_builder.genesis, 0)
        rival = tree_builder.extend(tree_builder.genesis, 1)
        b = tree_builder.extend(a, 2)
        text = head_lineage(tree_builder.tree, b.block_id, depth=5)
        lines = text.splitlines()
        assert len(lines) == 3  # b, a, genesis
        assert "rival" in text  # a has a sibling at height 1
