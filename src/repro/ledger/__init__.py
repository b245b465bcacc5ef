"""Ledger substrate: account state, execution, contracts, mempool."""
