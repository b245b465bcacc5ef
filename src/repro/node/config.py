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

from repro.consensus.powfamily import MiningNodeConfig


def env_setting(name: str, default: str | None = None) -> str | None:
    """Read one environment variable via the sanctioned gateway (REP006).

    Harness-level knobs only (cache locations, CI overrides, worker
    counts) — never anything that feeds simulated physics, which must
    travel inside the frozen, cache-keyed experiment config instead.
    """
    return os.environ.get(name, default)


@dataclass(frozen=True)
class FullNodeConfig(MiningNodeConfig):
    """Configuration for a :class:`~repro.node.node.FullNode`.

    Full nodes run the complete pipeline — signed transactions, mempool,
    ledger execution, governance contract — on top of the Themis consensus
    engine.  They are the deployment-shaped composition used by the examples
    and integration tests (the large benchmark sweeps use the leaner
    :class:`~repro.consensus.powfamily.MiningNode` directly).

    Every consensus switch is :class:`MiningNodeConfig`'s (``batch_size`` is
    unused: a full node's blocks carry their real transactions); a
    deployment signs and verifies unless told otherwise.

    Attributes:
        sign_blocks: sign produced block headers (§III) — on by default.
        verify_signatures: verify received headers and transactions.
    """

    sign_blocks: bool = True
    verify_signatures: bool = True
