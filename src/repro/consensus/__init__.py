"""Consensus node implementations: Themis family and the PBFT baseline."""
