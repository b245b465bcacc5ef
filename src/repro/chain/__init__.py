"""Chain substrate: transactions, blocks, block tree, fork-choice baselines."""

from repro.chain.audit import AuditFinding, AuditReport, ChainAuditor
from repro.chain.block import BLOCK_VERSION, Block, BlockHeader, build_block, sign_block
from repro.chain.blocktree import BlockTree
from repro.chain.codec import Reader, Writer, encoded_size_varint
from repro.chain.forkchoice import ForkChoiceRule, GHOSTRule, LongestChainRule
from repro.chain.genesis import GENESIS_PRODUCER, make_genesis
from repro.chain.store import deserialize_tree, load_tree, save_tree, serialize_tree
from repro.chain.transaction import TX_SIZE, Transaction, make_transaction

__all__ = [
    "AuditFinding",
    "AuditReport",
    "BLOCK_VERSION",
    "ChainAuditor",
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
