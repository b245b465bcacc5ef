"""Durable chain storage: the sqlite backend.

See :class:`repro.storage.sqlite.SqliteStorage` for the write/recovery side a
node drives, the read tier the explorer serves from, and the sim-parity
guarantee (storage is off by default; simulated runs stay byte-identical).
"""
