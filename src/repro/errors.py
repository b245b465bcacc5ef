"""Exception hierarchy for the Themis reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """Raised for cryptographic failures (bad keys, invalid signatures)."""


class CodecError(ReproError):
    """Raised when binary (de)serialization fails."""


class ChainError(ReproError):
    """Base class for blockchain data-structure errors."""


class DuplicateBlockError(ChainError):
    """Raised when a block is inserted twice into a block tree."""


class InvalidBlockError(ChainError):
    """Raised when a block fails validation (bad PoW, bad signature, ...)."""


class InvalidTransactionError(ChainError):
    """Raised when a transaction fails stateless or stateful validation."""


class LedgerError(ReproError):
    """Raised for account-state violations (overdraft, bad nonce, ...)."""


class ContractError(LedgerError):
    """Raised when a contract call is malformed or rejected."""


class StorageError(ReproError):
    """Raised for durable chain-storage failures (bad schema, wrong genesis)."""


class NetworkError(ReproError):
    """Raised for simulated-network misuse (unknown peer, closed sim, ...)."""


class SimulationError(ReproError):
    """Raised when a simulation is configured or driven incorrectly."""


class ConsensusError(ReproError):
    """Raised for consensus-protocol violations."""


class DifficultyError(ConsensusError):
    """Raised when difficulty parameters are invalid."""
