"""Chain substrate: transactions, blocks, block tree, fork-choice baselines.

:mod:`repro.chain.audit` replays a chain against the §IV difficulty rules, so
it sits above :mod:`repro.core` and is imported by its own name, not from
here — ``repro.core`` reaches back into this package through the ledger.
"""

from repro.chain.block import BLOCK_VERSION, Block, BlockHeader, build_block, sign_block
from repro.chain.blocktree import BlockTree
from repro.chain.codec import Reader, Writer, encoded_size_varint
from repro.chain.forkchoice import ForkChoiceRule, GHOSTRule, LongestChainRule
from repro.chain.genesis import GENESIS_PRODUCER, make_genesis
from repro.chain.store import deserialize_tree, load_tree, save_tree, serialize_tree
from repro.chain.transaction import TX_SIZE, Transaction, make_transaction

__all__ = [
    "BLOCK_VERSION",
    "Block",
    "BlockHeader",
    "BlockTree",
    "ForkChoiceRule",
    "GENESIS_PRODUCER",
    "GHOSTRule",
    "LongestChainRule",
    "Reader",
    "TX_SIZE",
    "Transaction",
    "Writer",
    "build_block",
    "deserialize_tree",
    "load_tree",
    "save_tree",
    "serialize_tree",
    "encoded_size_varint",
    "make_genesis",
    "make_transaction",
    "sign_block",
]
