"""Chain substrate: transactions, blocks, block tree, fork-choice baselines."""
