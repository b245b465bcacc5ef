"""Simulation harness: runner, engine, cache, metrics, scenarios, sweeps."""
