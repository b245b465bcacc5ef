"""Full consortium node: consensus + ledger + governance composition.

:class:`repro.node.node.FullNode` is the node; :mod:`repro.node.sync` is the
chain-sync protocol every consensus node runs; :mod:`repro.node.config` holds
the full node's configuration.
"""
