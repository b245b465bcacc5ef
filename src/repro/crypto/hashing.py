"""SHA-256 hashing primitives and Proof-of-Work target arithmetic.

Themis (and the PoW-H baseline) decide block validity by comparing the SHA-256
hash of a block header, interpreted as a 256-bit big-endian integer, against a
per-node *target*.  This module centralizes that arithmetic:

* ``T_MAX`` — the maximum hash value of SHA-256 (§IV-B, "T_max refers to the
  maximum hash value of the SHA-256 function").
* ``DEFAULT_T0`` — the target value of the puzzle when the difficulty is 1.
* :func:`target_for_difficulty` — ``t = T0 / D`` (§IV-B).
* :func:`success_probability` — the per-trial probability ``t / T_max`` that a
  single hash evaluation solves the puzzle (left side of Eq. 7).
"""

from __future__ import annotations

import hashlib

from repro.errors import DifficultyError

#: Maximum value representable by a SHA-256 digest (2**256 - 1).
T_MAX: int = (1 << 256) - 1

#: Default base target T0 (difficulty 1).  We follow Bitcoin's convention of a
#: 32-bit leading-zero region: T0 = 2**224, i.e. a difficulty-1 puzzle succeeds
#: with probability ~2**-32 per hash.  Simulations use far easier targets.
DEFAULT_T0: int = 1 << 224

#: A very easy target used by tests and the real miner so puzzles solve in
#: microseconds: success probability 1/16 per hash.
EASY_T0: int = T_MAX // 16


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    """Return the double SHA-256 digest used for block header hashing."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash_to_int(digest: bytes) -> int:
    """Interpret a digest as a big-endian unsigned integer."""
    return int.from_bytes(digest, "big")


def target_for_difficulty(t0: int, difficulty: float) -> int:
    """Return the puzzle target ``t = T0 / D`` for a difficulty ``D >= 1``.

    §IV-B: "The target value for solving the puzzle is ``t_i^e = T0 / D_i^e``.
    Once the hash value of the block header the node calculates is less than
    ``t_i^e``, the node can successfully produce a valid block."
    """
    if difficulty < 1.0:
        raise DifficultyError(f"difficulty must be >= 1, got {difficulty}")
    if t0 <= 0 or t0 > T_MAX:
        raise DifficultyError(f"T0 must be in (0, T_MAX], got {t0}")
    target = int(t0 / difficulty)
    return max(target, 1)


def success_probability(t0: int, difficulty: float) -> float:
    """Per-hash probability of solving the puzzle at a given difficulty.

    This is the left-hand side of Eq. 7: ``(T0 / D) / T_max``.
    """
    return target_for_difficulty(t0, difficulty) / T_MAX


def meets_target(digest: bytes, target: int) -> bool:
    """Return ``True`` when ``digest`` (as an integer) is below ``target``."""
    return hash_to_int(digest) < target

