"""The run's seeded randomness, from the standard library.

Each simulated run, each live node process and each random fault plan owns
one :class:`random.Random` built by :func:`seeded_rng`.  Python promises the
sequence of only one of its methods across versions, ``random()``, so every
draw here is derived from it and nothing else: an Exp(rate) solve time by
inverse CDF, an index by scaling, distinct picks by a partial Fisher–Yates
shuffle.  Together with ``uniform`` (documented as
``a + (b - a) * random()``), that keeps a seed's run identical on every
supported interpreter.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Sequence
from typing import TypeVar

from repro.errors import SimulationError

T = TypeVar("T")


def seeded_rng(seed: int) -> random.Random:
    """A generator for a non-negative integer ``seed``.

    ``random.Random`` seeds from ``abs(seed)``, so a negative seed would
    silently replay its positive twin; it is refused instead.
    """
    try:
        value = operator.index(seed)
    except TypeError:
        raise SimulationError(f"seed must be an integer, got {seed!r}") from None
    if value < 0:
        raise SimulationError(f"seed must be non-negative, got {value}")
    return random.Random(value)


def exponential(rng: random.Random, rate: float) -> float:
    """One Exp(rate) draw: ``-ln(1 - U) / rate`` for ``U = rng.random()``."""
    return -math.log(1.0 - rng.random()) / rate


def below(rng: random.Random, n: int) -> int:
    """A uniform index in ``[0, n)``."""
    return int(rng.random() * n)


def distinct(rng: random.Random, population: Sequence[T], k: int) -> list[T]:
    """``k`` distinct members of ``population`` in draw order."""
    if not 0 <= k <= len(population):
        raise SimulationError(f"cannot pick {k} of {len(population)}")
    pool = list(population)
    for i in range(k):
        j = i + below(rng, len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]
