"""§VI-C — storage and communication overheads.

Paper accounting:

* storage — "float type (4 Bytes) ... and int type (4 Bytes) for q_i^e.  In
  each epoch, the data storage size of the entire network will increase by
  8n Bytes (far smaller than average block size)";
* communication — "the consensus node needs to sign the block header ...
  introducing a small size increase of a signature data (about 128 Bytes,
  far smaller than average block size) to each block".

The benchmark checks the model constants against a measured run: the actual
difficulty tables a node stores and the actual signed-block wire sizes.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import cached_experiment, require_observer
from repro.analysis.stats import CommunicationOverhead, StorageOverhead
from repro.chain.block import Block, sign_block
from repro.chain.genesis import make_genesis
from repro.crypto.signature import SIGNATURE_SIZE
from repro.sim.scenarios import equality_spec

from tests.conftest import keypair

#: §VI-C block-size references: Bitcoin 1.06 MB, Ethereum 68.4 KB.
BITCOIN_AVG_BLOCK = 1_060_000
ETHEREUM_AVG_BLOCK = 68_400

N = 40
EPOCHS = 12

# Same run as Fig. 4/5's themis seed 1 — reused via the shared engine.
_THEMIS_CFG = replace(
    equality_spec(n=N, epochs=EPOCHS, algorithms=("themis",)).grid[0], seed=1
)


def test_sec6c_storage_overhead(run_once):
    def experiment():
        result = cached_experiment(_THEMIS_CFG)
        observer = require_observer(result)
        # What a node actually persists: one (m_i, q_i) row per member per
        # epoch table in force somewhere in its tree.
        state = observer.state
        tables = [
            state.table_for_anchor(block.block_id)
            for block in observer.tree.iter_blocks()
            if block.height % state.epoch_blocks == 0
        ]
        measured_rows = sum(len(t.multiples) for t in tables)
        model = StorageOverhead(n=N, epochs=EPOCHS)
        return {
            "tables": len(tables),
            "measured_bytes": measured_rows * 8,
            "model_bytes": model.total_bytes,
            "per_epoch": model.per_epoch_bytes(),
            "vs_bitcoin_block": model.relative_to_block(BITCOIN_AVG_BLOCK),
        }

    stats = run_once(experiment)
    print("\n=== §VI-C storage: difficulty bookkeeping ===")
    print(
        f"model: 8n = {stats['per_epoch']} B/epoch, {stats['model_bytes']} B over "
        f"{EPOCHS} epochs | measured tables stored: {stats['tables']} "
        f"({stats['measured_bytes']} B) | per-epoch overhead vs 1.06 MB Bitcoin "
        f"block: {100 * stats['vs_bitcoin_block']:.4f} %"
    )
    # A node stores at least one table per completed epoch (forked epoch
    # boundaries may add a few more), each costing 8n bytes.
    assert stats["tables"] >= EPOCHS
    assert stats["measured_bytes"] >= stats["model_bytes"]
    assert stats["measured_bytes"] < 4 * stats["model_bytes"]
    # "far smaller than average block size".
    assert stats["vs_bitcoin_block"] < 0.001


def test_sec6c_communication_overhead(run_once):
    def experiment():
        genesis = make_genesis()
        from repro.chain.block import build_block

        unsigned_block = build_block(
            keypair(0), genesis.block_id, 1, [], 1.0, 1.0, 1.0, 0
        )
        bare = Block(unsigned_block.header, None, ())
        signed = sign_block(keypair(0), unsigned_block.header, [])
        return {
            "bare": bare.size,
            "signed": signed.size,
            "delta": signed.size - bare.size,
        }

    sizes = run_once(experiment)
    model = CommunicationOverhead(blocks=1)
    print("\n=== §VI-C communication: per-block signature envelope ===")
    print(
        f"unsigned block {sizes['bare']} B -> signed {sizes['signed']} B "
        f"(+{sizes['delta']} B; paper budget ~128 B) | vs Ethereum-avg block: "
        f"{100 * model.relative_to_block(ETHEREUM_AVG_BLOCK):.3f} %"
    )
    # The signature envelope is the measured delta and fits the paper budget.
    assert sizes["delta"] == SIGNATURE_SIZE == 97
    assert sizes["delta"] <= 128
    assert model.relative_to_block(ETHEREUM_AVG_BLOCK) < 0.01
