"""Themis core: adaptive difficulty, GEOST, equality metrics, block election."""
