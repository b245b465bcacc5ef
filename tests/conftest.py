"""Shared fixtures for the test suite."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import pytest

from repro.chain.block import Block, build_block
from repro.chain.blocktree import BlockTree
from repro.chain.genesis import make_genesis
from repro.core.difficulty import DifficultyParams
from repro.crypto import signature
from repro.crypto.keys import KeyPair
from repro.net.latency import LinkModel

#: ``build_stack`` keywords every hand-built test fleet shares: the
#: canonical test keys (:func:`keypair`) and 10 ms of per-hop jitter.
TEST_FLEET = {"key_prefix": "test-node", "link": LinkModel(jitter=0.01)}

#: Quick test consensus: a block every 5 s, and a difficulty epoch of n blocks.
FAST = DifficultyParams(i0=5.0, beta=1.0)

#: Deterministic keypairs reused across tests.
_KEY_CACHE: dict[int, KeyPair] = {}


def keypair(index: int) -> KeyPair:
    """The canonical test keypair for node ``index``."""
    if index not in _KEY_CACHE:
        _KEY_CACHE[index] = KeyPair.from_seed(f"test-node-{index}")
    return _KEY_CACHE[index]


def ks_one_sample(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """p-value of the one-sample Kolmogorov–Smirnov test of ``samples``
    against ``cdf`` (asymptotic distribution with Stephens' correction)."""
    ordered = sorted(samples)
    n = len(ordered)
    statistic = max(
        max((i + 1) / n - cdf(x), cdf(x) - i / n) for i, x in enumerate(ordered)
    )
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * statistic
    p = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2) for k in range(1, 101))
    return min(1.0, max(0.0, p))


def _record_calls(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every ``repro.crypto.signature.<name>`` call."""
    calls: list[tuple] = []
    real = getattr(signature, name)
    monkeypatch.setattr(signature, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.fixture()
def ecdsa_verify_calls(monkeypatch) -> list[tuple]:
    """Argument tuples of every ECDSA verification made through an envelope."""
    return _record_calls(monkeypatch, "ecdsa_verify")


@pytest.fixture()
def ecdsa_sign_calls(monkeypatch) -> list[tuple]:
    """Argument tuples of every ECDSA signature made through ``sign_digest``."""
    return _record_calls(monkeypatch, "ecdsa_sign")


@pytest.fixture(scope="session")
def keys() -> list[KeyPair]:
    """Eight deterministic keypairs."""
    return [keypair(i) for i in range(8)]


@pytest.fixture()
def genesis() -> Block:
    return make_genesis()


class TreeBuilder:
    """Convenience builder for hand-crafted block trees in tests.

    Blocks are produced with ``difficulty_multiple = base_difficulty = 1``
    and unsigned unless requested; arrival times default to the block
    timestamp.
    """

    def __init__(self, genesis_block: Block, finality_window: int | None = None):
        self.genesis = genesis_block
        self.tree = BlockTree(genesis_block, finality_window=finality_window)
        self._clock = 0.0

    def extend(
        self,
        parent: Block,
        producer_index: int,
        timestamp: float | None = None,
        arrival: float | None = None,
        epoch: int = 0,
        multiple: float = 1.0,
        base: float = 1.0,
    ) -> Block:
        """Append a block produced by ``producer_index`` onto ``parent``."""
        self._clock += 1.0
        ts = timestamp if timestamp is not None else self._clock
        block = build_block(
            keypair(producer_index),
            parent.block_id,
            parent.height + 1,
            [],
            ts,
            multiple,
            base,
            epoch,
        )
        self.tree.add_block(block, arrival if arrival is not None else ts)
        return block

    def chain(self, parent: Block, producer_indices: list[int]) -> list[Block]:
        """Append a linear chain of blocks, one per producer index."""
        blocks = []
        for index in producer_indices:
            parent = self.extend(parent, index)
            blocks.append(parent)
        return blocks


@pytest.fixture()
def tree_builder(genesis) -> TreeBuilder:
    return TreeBuilder(genesis)
