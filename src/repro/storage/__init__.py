"""Durable chain storage: protocols and the sqlite backend.

See :mod:`repro.storage.base` for the :class:`ChainStorage` /
:class:`ChainReader` split and the sim-parity guarantee (storage is off
by default; simulated runs stay byte-identical).
"""

from repro.storage.base import ChainReader, ChainStorage
from repro.storage.sqlite import SqliteStorage

__all__ = [
    "ChainReader",
    "ChainStorage",
    "SqliteStorage",
]
