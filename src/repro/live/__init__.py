"""Live deployment mode: real processes, real sockets, real time.

This package runs the same :class:`~repro.node.node.FullNode` stack the
simulator drives — unchanged — over an asyncio TCP gossip backend:

* :mod:`repro.live.manifest` — the static consortium manifest (who the
  members are, where they listen, and the shared protocol parameters);
* :mod:`repro.live.clock` — :class:`~repro.live.clock.LiveClock`, the
  :class:`~repro.net.clock.Clock` backend over the asyncio event loop;
* :mod:`repro.live.transport` — :class:`~repro.live.transport.TcpGossipTransport`,
  the :class:`~repro.net.transport.Transport` backend over TCP sockets with
  length-prefixed frames and per-peer reconnect;
* :mod:`repro.live.node_runner` — one node process (``python -m repro
  run-node``);
* :mod:`repro.live.localnet` — the N-node localhost cluster driver
  (``python -m repro localnet``).

Code here is exempt from the REP001 wall-clock lint rule *by design* (see
:class:`repro.lint.config.LintConfig.wall_clock_exempt_packages`); every
other determinism rule still applies.
"""
