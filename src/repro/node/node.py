"""The full consortium node: consensus + ledger + governance.

:class:`FullNode` composes the Themis mining node with the complete data
plane the paper describes for a consortium deployment:

* a mempool of signed 512-byte transactions, gossiped between nodes;
* ledger execution of every main-chain block (balances, nonces, contract
  calls), with deterministic state roots for cross-node consistency checks;
* the :class:`~repro.ledger.contract.NodeSetContract` governance flow of
  §IV-C — membership proposals and votes ride ordinary transactions, and
  passed proposals take effect at the next round boundary, rescaling the
  consensus view of ``n``.

Every FullNode keeps its own replica of contract state derived purely from
its main chain, so membership stays consistent without extra communication —
the same property the difficulty table relies on (§IV-A).

The consensus node underneath knows nothing of this: the data plane follows
the main chain through the one hook :meth:`FullNode._head_moved`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.chain.block import Block
from repro.chain.transaction import Transaction, make_transaction
from repro.consensus.base import RunContext
from repro.consensus.powfamily import MiningNode
from repro.crypto.keys import KeyPair
from repro.errors import InvalidTransactionError
from repro.ledger.contract import (
    NODESET_CONTRACT_ADDRESS,
    NodeSetContract,
    encode_propose_add,
    encode_propose_remove,
    encode_vote,
)
from repro.ledger.executor import Executor
from repro.ledger.mempool import Mempool
from repro.ledger.state import AccountState
from repro.net.message import Message
from repro.node.config import FullNodeConfig

#: Cap on transactions per block.
MAX_BLOCK_TXS = 128

#: Genesis balance credited to each member account.
INITIAL_BALANCE = 1_000_000


class FullNode(MiningNode):
    """A complete consortium-blockchain node."""

    config: FullNodeConfig

    def __init__(
        self,
        node_id: int,
        keypair: KeyPair,
        ctx: RunContext,
        config: FullNodeConfig | None = None,
    ) -> None:
        # One contract for the node's life (a reorg resets it in place), so
        # the member view closes over the contract, not the node.
        nodeset = self.nodeset = NodeSetContract(list(ctx.members))
        super().__init__(
            node_id,
            keypair,
            ctx,
            config or FullNodeConfig(),
            members_fn=lambda: nodeset.members,
        )
        self.mempool = Mempool()
        self.executor = Executor(verify_signatures=self.config.verify_signatures)
        self.executor.register(self.nodeset)
        self.ledger = self._genesis_state()
        # The main-chain blocks (index = height) whose effects the pool and
        # the ledger reflect, and the transaction ids they carry.
        self._applied: list[Block] = [ctx.genesis]
        self._applied_txs: set[bytes] = set()
        self._nonce = 0

    def _genesis_state(self) -> AccountState:
        state = AccountState()
        for member in self.ctx.members:
            state.credit(member, INITIAL_BALANCE)
        return state

    # -- lifecycle ----------------------------------------------------------------

    def crash(self) -> None:
        """Crash the full node: volatile transaction state dies with it.

        The mempool and the in-flight nonce counter are process memory; after
        restart the nonce is re-derived from the executed ledger, which
        survives because it is a pure function of the (durable) chain.
        """
        super().crash()
        self.mempool.clear()
        self._nonce = 0

    # -- transactions -------------------------------------------------------------

    def next_nonce(self) -> int:
        """Next unused nonce for this node's own account.

        Tracks locally submitted transactions still in flight, so several
        submissions per block are possible.
        """
        on_chain = self.ledger.nonce(self.address)
        nonce = max(on_chain, self._nonce)
        self._nonce = nonce + 1
        return nonce

    def submit_transaction(self, tx: Transaction) -> None:
        """Admit a transaction locally and gossip it to the network."""
        if self.config.verify_signatures and not tx.verify_signature():
            raise InvalidTransactionError("refusing to gossip an unsigned transaction")
        if self._admit(tx):
            self.ctx.network.gossip(
                self.node_id,
                Message(kind="tx", payload=tx, body_size=tx.size, origin=self.node_id),
            )

    def _handle_transaction(self, tx: Transaction) -> None:
        # Same admission rule as a local submit; the verdict is memoised on
        # the transaction, so executing it later costs nothing more.
        if not self.config.verify_signatures or tx.verify_signature():
            self._admit(tx)

    def _admit(self, tx: Transaction) -> bool:
        """Pool ``tx`` unless it is a duplicate or already on the main chain
        (a late flood copy of a mined transaction must not be mined twice)."""
        return tx.tx_id not in self._applied_txs and self.mempool.add(tx)

    def pay(self, recipient: bytes, amount: int) -> Transaction:
        """Build, sign and submit a transfer from this node's account."""
        tx = make_transaction(self.keypair, recipient, amount, self.next_nonce())
        self.submit_transaction(tx)
        return tx

    # -- governance (§IV-C) ----------------------------------------------------------

    def propose_add_member(self, new_member: bytes, evidence: bytes = b"") -> Transaction:
        """Submit a node-joining proposal via the NodeSetContract."""
        tx = make_transaction(
            self.keypair,
            NODESET_CONTRACT_ADDRESS,
            0,
            self.next_nonce(),
            payload=encode_propose_add(new_member, evidence),
        )
        self.submit_transaction(tx)
        return tx

    def propose_remove_member(self, member: bytes, evidence: bytes = b"") -> Transaction:
        """Submit a node-removal proposal (misbehaviour evidence attached)."""
        tx = make_transaction(
            self.keypair,
            NODESET_CONTRACT_ADDRESS,
            0,
            self.next_nonce(),
            payload=encode_propose_remove(member, evidence),
        )
        self.submit_transaction(tx)
        return tx

    def vote(self, proposal_id: int, approve: bool) -> Transaction:
        """Vote on an open membership proposal (one node one vote)."""
        tx = make_transaction(
            self.keypair,
            NODESET_CONTRACT_ADDRESS,
            0,
            self.next_nonce(),
            payload=encode_vote(proposal_id, approve),
        )
        self.submit_transaction(tx)
        return tx

    # -- the data plane's side of the block path ------------------------------------------

    def _select_transactions(self) -> Sequence[Transaction]:
        """Draw the round's transactions from the pool (§III preferences).

        The pool is in arrival order, which need not be nonce order: a
        producer can hear a sender's nonce 1 before its nonce 0, and nonce 1
        packed first fails execution and is spent for good.  So each sender's
        transactions go out in nonce order from the nonce its account
        executes next, up to the first gap; one that arrived early waits for
        its predecessor.  A transaction whose nonce the ledger has already
        passed can never execute and leaves the pool.
        """
        picked: list[Transaction] = []
        next_nonce: dict[bytes, int] = {}
        waiting: dict[tuple[bytes, int], Transaction] = {}
        stale: list[bytes] = []
        for tx in self.mempool.select(max_count=len(self.mempool)):
            if len(picked) >= MAX_BLOCK_TXS:
                break
            sender = tx.sender
            executed = self.ledger.nonce(sender)
            if tx.nonce < executed:
                stale.append(tx.tx_id)
                continue
            expected = next_nonce.get(sender, executed)
            if tx.nonce != expected:
                # Ahead of a gap waits; a second transaction at a nonce
                # already picked is skipped.
                if tx.nonce > expected:
                    waiting.setdefault((sender, tx.nonce), tx)
                continue
            while tx is not None and len(picked) < MAX_BLOCK_TXS:
                picked.append(tx)
                expected += 1
                tx = waiting.pop((sender, expected), None)
            next_nonce[sender] = expected
        self.mempool.remove(stale)
        return picked

    def block_wire_bytes(self, block: Block) -> int:
        """Full relay: header plus §VII-A's 512 bytes per carried transaction."""
        return self.block_wire_size(len(block.transactions), compact=False)

    def _handle_block(self, block: Block) -> None:
        if self.config.verify_signatures:
            block = self._with_admitted_transactions(block)
        super()._handle_block(block)

    def _with_admitted_transactions(self, block: Block) -> Block:
        """Swap in the pool's copy of every transaction this node admitted.

        A block decoded from the wire carries fresh transaction objects; the
        copies admitted from gossip already hold their signature verdict, and
        an equal ``tx_id`` means equal bytes, so executing the block need not
        verify them again.  Shared in-process objects come back unchanged.
        """
        pooled = tuple(self.mempool.get(tx.tx_id) or tx for tx in block.transactions)
        if all(a is b for a, b in zip(pooled, block.transactions, strict=True)):
            return block
        return replace(block, transactions=pooled)

    def _head_moved(self) -> None:
        """Bring pool and ledger to the new main chain, in O(blocks moved).

        Blocks at the top of ``_applied`` that are no longer on the main
        chain *left*; the main chain above what remains *joined*.  Every
        joined transaction leaves the pool; a left block's transactions go
        back into it unless a joined block carries them, so a reorg loses
        none and repeats none.  Extensions execute incrementally; a reorg
        replays from genesis with fresh contract state (chains in full-node
        deployments are short, and correctness beats speed here).  After
        each block the §IV-C round boundary fires: passed membership
        proposals take effect.
        """
        applied = self._applied
        left: list[Block] = []
        while self.state.chain_position(applied[-1].block_id) is None:
            left.append(applied.pop())
        joined = [
            self.state.block_at(height)
            for height in range(len(applied), self.state.height() + 1)
        ]
        for block in left:
            self._applied_txs.difference_update(tx.tx_id for tx in block.transactions)
        for block in joined:
            tx_ids = [tx.tx_id for tx in block.transactions]
            self._applied_txs.update(tx_ids)
            self.mempool.remove(tx_ids)
        # Oldest block first, so one sender's nonces re-enter in order.
        self.mempool.add_all(
            tx
            for block in reversed(left)
            for tx in block.transactions
            if tx.tx_id not in self._applied_txs
        )
        replay = joined
        if left:
            self.nodeset.reset(list(self.ctx.members))
            self.ledger = self._genesis_state()
            replay = applied[1:] + joined
        for block in replay:
            self.executor.execute_block(self.ledger, block)
            self.nodeset.drain_effective()
        applied.extend(joined)

    # -- views ---------------------------------------------------------------------------

    def balance(self) -> int:
        """This node's own on-chain balance."""
        return self.ledger.balance(self.address)

    def state_root(self) -> bytes:
        """Commitment to the executed ledger state."""
        return self.ledger.state_root()
