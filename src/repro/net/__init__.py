"""Network substrate: transport interface, simulator, link model, topology."""
