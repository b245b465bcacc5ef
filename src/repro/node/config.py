"""Full-node configuration, and the process-environment gateway.

Environment variables are ambient, unrecorded input: a cached result
computed under one environment silently replays under another.  The
``repro.lint`` REP006 rule therefore confines ``os.environ`` reads to
this module (and the benchmark conftest) — every other module must call
:func:`env_setting` so each knob is named, documented, and greppable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.themis import RuleKind


def env_setting(name: str, default: str | None = None) -> str | None:
    """Read one environment variable via the sanctioned gateway (REP006).

    Harness-level knobs only (cache locations, CI overrides, worker
    counts) — never anything that feeds simulated physics, which must
    travel inside the frozen, cache-keyed experiment config instead.
    """
    return os.environ.get(name, default)


@dataclass(frozen=True)
class FullNodeConfig:
    """Configuration for a :class:`~repro.node.node.FullNode`.

    Full nodes run the complete pipeline — signed transactions, mempool,
    ledger execution, governance contract — on top of the Themis consensus
    engine.  They are the deployment-shaped composition used by the examples
    and integration tests (the large benchmark sweeps use the leaner
    :class:`~repro.consensus.powfamily.MiningNode` directly).

    Attributes:
        rule_kind: main-chain rule; ``geost`` for full Themis.
        adaptive: §IV-A difficulty multiples on/off.
        hash_rate: node's actual computing power ``h_i``.
        max_block_txs: cap on transactions per block.
        sign_blocks: sign produced block headers (§III) — on by default.
        verify_signatures: verify received headers and transactions.
        real_pow: grind real SHA-256 puzzles (use an easy ``t0``).
        initial_balance: genesis balance credited to each member account.
    """

    rule_kind: RuleKind = "geost"
    adaptive: bool = True
    hash_rate: float = 1.0
    max_block_txs: int = 128
    sign_blocks: bool = True
    verify_signatures: bool = True
    real_pow: bool = False
    initial_balance: int = 1_000_000
