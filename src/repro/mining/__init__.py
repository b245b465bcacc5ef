"""Mining substrate: power distributions, the oracle, and the real miner."""
