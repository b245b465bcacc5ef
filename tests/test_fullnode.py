"""Integration tests for the FullNode: real transactions, ledger, governance."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.chain.block import Block, build_block
from repro.chain.genesis import make_genesis
from repro.chain.transaction import Transaction, make_transaction
from repro.chaos.invariants import InvariantMonitor
from repro.consensus.base import RunContext
from repro.core.difficulty import DifficultyParams
from repro.crypto.signature import sign_digest
from repro.mining.oracle import MiningOracle
from repro.net.latency import LinkModel
from repro.net.message import Message
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.node.config import FullNodeConfig
from repro.node.node import FullNode
from repro.serde import to_json

from tests.conftest import keypair


def make_consortium(n=4, seed=0, verify=True, i0=5.0):
    sim = Simulator(seed=seed)
    network = SimulatedNetwork(sim=sim, adjacency=complete_topology(n), link=LinkModel(jitter=0.01))
    params = DifficultyParams(i0=i0, h0=1.0, beta=2.0)
    keys = [keypair(i) for i in range(n)]
    ctx = RunContext(
        sim=sim,
        network=network,
        oracle=MiningOracle(sim.rng, params.t0),
        genesis=make_genesis(),
        params=params,
        members=[k.public.fingerprint() for k in keys],
    )
    config = FullNodeConfig(verify_signatures=verify, sign_blocks=verify)
    nodes = [FullNode(i, keys[i], ctx, config) for i in range(n)]
    return ctx, nodes


def run_to_height(ctx, nodes, height):
    for node in nodes:
        node.start()
    ctx.sim.run(
        stop_when=lambda: all(n.state.height() >= height for n in nodes),
        max_events=5_000_000,
    )


def addr(i: int) -> bytes:
    return keypair(i).public.fingerprint()


class TestTransfers:
    def test_payment_reaches_ledger_everywhere(self):
        ctx, nodes = make_consortium()
        for node in nodes:
            node.start()
        tx = nodes[0].pay(addr(1), 250)
        ctx.sim.run(
            stop_when=lambda: all(n.ledger.nonce(addr(0)) == 1 for n in nodes),
            max_events=5_000_000,
        )
        for node in nodes:
            assert node.ledger.balance(addr(1)) == 1_000_250
            assert node.ledger.balance(addr(0)) == 999_750

    def test_state_roots_agree(self):
        ctx, nodes = make_consortium(seed=2)
        for node in nodes:
            node.start()
        for i in range(3):
            nodes[0].pay(addr(1), 10)
            nodes[1].pay(addr(2), 20)
        ctx.sim.run(
            stop_when=lambda: all(n.ledger.nonce(addr(0)) == 3 for n in nodes),
            max_events=5_000_000,
        )
        # Let chains settle to a common prefix covering the transfers.
        ctx.sim.run(until=ctx.sim.now + 60.0)
        roots = {node.state_root() for node in nodes}
        assert len(roots) == 1

    def test_nonce_tracking_multiple_inflight(self):
        ctx, nodes = make_consortium()
        for node in nodes:
            node.start()
        tx1 = nodes[0].pay(addr(1), 1)
        tx2 = nodes[0].pay(addr(1), 2)
        assert tx1.nonce == 0 and tx2.nonce == 1

    def test_unsigned_submission_rejected(self):
        from repro.chain.transaction import Transaction
        from repro.errors import InvalidTransactionError

        ctx, nodes = make_consortium()
        with pytest.raises(InvalidTransactionError):
            nodes[0].submit_transaction(Transaction(addr(0), addr(1), 1, 0))


class TestNonceOrder:
    def test_a_senders_transactions_go_out_in_nonce_order_up_to_a_gap(self):
        ctx, nodes = make_consortium(n=2, verify=False)
        node = nodes[0]
        n0, n1, n3 = (make_transaction(keypair(1), addr(0), 5, nonce) for nonce in (0, 1, 3))
        other = make_transaction(keypair(0), addr(1), 9, 0)
        for tx in (n1, other, n3, n0):
            node.mempool.add(tx)
        assert node._select_transactions() == [other, n0, n1]
        assert len(node.mempool) == 4  # n3 waits for nonce 2

    def test_a_nonce_the_ledger_has_passed_leaves_the_pool(self):
        ctx, nodes = make_consortium(n=2, verify=False)
        node = nodes[0]
        spent, fresh = (make_transaction(keypair(1), addr(0), 5, nonce) for nonce in (0, 1))
        node.mempool.add(spent)
        node.mempool.add(fresh)
        node.ledger.transfer(addr(1), addr(0), 1, 0)  # nonce 0 executed elsewhere
        assert node._select_transactions() == [fresh]
        assert spent.tx_id not in node.mempool

    def test_a_later_nonce_heard_first_does_not_spend_the_proposal(self):
        """Seed 4: some producer hears node 0's proposal (nonce 1) before its
        payment (nonce 0).  Packed in arrival order, the proposal failed
        execution, was counted as applied and never executed anywhere."""
        ctx, nodes = make_consortium(n=4, seed=4)
        for node in nodes:
            node.start()
        nodes[0].pay(addr(1), 250)
        nodes[1].pay(addr(2), 20)
        nodes[0].propose_add_member(addr(6), evidence=b"id-proof")
        ctx.sim.run(
            stop_when=lambda: all(n.nodeset.open_proposals() for n in nodes),
            max_events=20_000,
        )
        assert all(n.nodeset.open_proposals() for n in nodes)
        assert all(n.ledger.nonce(addr(0)) == 2 for n in nodes)


class TestGovernance:
    def test_add_member_end_to_end(self):
        """§IV-C: propose, vote, majority, effect at the round boundary."""
        ctx, nodes = make_consortium(n=4, seed=4)
        for node in nodes:
            node.start()
        new_member = addr(6)
        nodes[0].propose_add_member(new_member, evidence=b"id-proof")
        # Wait for the proposal to land on chain everywhere.
        ctx.sim.run(
            stop_when=lambda: all(
                len(n.nodeset.open_proposals()) == 1
                or n.nodeset.is_member(new_member)
                for n in nodes
            ),
            max_events=5_000_000,
        )
        nodes[1].vote(0, True)
        nodes[2].vote(0, True)
        ctx.sim.run(
            stop_when=lambda: all(n.nodeset.is_member(new_member) for n in nodes),
            max_events=5_000_000,
        )
        for node in nodes:
            assert node.nodeset.is_member(new_member)
            assert len(node.nodeset.members) == 5

    def test_remove_member_end_to_end(self):
        ctx, nodes = make_consortium(n=4, seed=5)
        for node in nodes:
            node.start()
        victim = addr(3)
        nodes[0].propose_remove_member(victim, evidence=b"double-spend")
        ctx.sim.run(
            stop_when=lambda: all(
                n.nodeset.open_proposals() or not n.nodeset.is_member(victim)
                for n in nodes
            ),
            max_events=5_000_000,
        )
        nodes[1].vote(0, True)
        nodes[2].vote(0, True)
        ctx.sim.run(
            stop_when=lambda: all(not n.nodeset.is_member(victim) for n in nodes),
            max_events=5_000_000,
        )
        for node in nodes:
            assert len(node.nodeset.members) == 3
        # Expelled producer's new blocks are now invalid at honest nodes.
        assert not nodes[0].validator.is_member(victim)


class TestLedgerConsistency:
    def test_double_spend_rejected_on_chain(self):
        """Two conflicting spends: at most one executes (nonce discipline)."""
        from repro.chain.transaction import make_transaction

        ctx, nodes = make_consortium(seed=6)
        for node in nodes:
            node.start()
        # Same nonce, different recipients, submitted at different nodes.
        tx_a = make_transaction(keypair(0), addr(1), 500, 0)
        tx_b = make_transaction(keypair(0), addr(2), 500, 0)
        nodes[0].mempool.add(tx_a)
        nodes[1].mempool.add(tx_b)

        ctx.sim.run(
            stop_when=lambda: all(n.ledger.nonce(addr(0)) >= 1 for n in nodes),
            max_events=5_000_000,
        )
        ctx.sim.run(until=ctx.sim.now + 60.0)
        # Exactly one executed: total balance out of addr(0) is 500.
        for node in nodes:
            assert node.ledger.balance(addr(0)) == 999_500
            assert node.ledger.balance(addr(1)) + node.ledger.balance(addr(2)) == (
                2_000_500
            )


def _gossip_tx(ctx, origin: int, tx: Transaction) -> None:
    """Put ``tx`` on the wire as node ``origin`` would, bypassing its own checks."""
    ctx.network.gossip(
        origin, Message(kind="tx", payload=tx, body_size=tx.size, origin=origin)
    )


class TestSignatureAdmission:
    def test_bad_wire_transactions_reach_neither_mempool_nor_block(self):
        ctx, nodes = make_consortium(seed=3)
        for node in nodes:
            node.start()
        honest = make_transaction(keypair(0), addr(1), 5, 0)
        unsigned = Transaction(addr(0), addr(2), 7, 0)
        # A valid signature over another amount, and one by a non-owner.
        forged = replace(make_transaction(keypair(0), addr(3), 9, 0), amount=900)
        draft = Transaction(addr(0), addr(1), 11, 0)
        stolen = replace(draft, signature=sign_digest(keypair(1), draft.signing_digest()))
        bad = (unsigned, forged, stolen)
        for tx in (honest, *bad):
            _gossip_tx(ctx, 0, tx)

        ctx.sim.run(
            stop_when=lambda: all(n.ledger.nonce(addr(0)) == 1 for n in nodes),
            max_events=5_000_000,
        )
        run_to_height(ctx, nodes, nodes[0].state.height() + 3)
        on_chain = {
            tx.tx_id
            for node in nodes
            for block in node.state.main_chain()
            for tx in block.transactions
        }
        assert honest.tx_id in on_chain
        for tx in bad:
            assert tx.tx_id not in on_chain
            assert all(tx.tx_id not in node.mempool for node in nodes)
        for node in nodes:
            assert node.ledger.balance(addr(0)) == 999_995

    def test_unverified_deployments_still_admit_from_the_wire(self):
        ctx, nodes = make_consortium(verify=False)
        unsigned = Transaction(addr(0), addr(2), 7, 0)
        _gossip_tx(ctx, 0, unsigned)
        ctx.sim.run(until=1.0)
        assert all(unsigned.tx_id in node.mempool for node in nodes[1:])


class TestVerifyOnce:
    def test_each_signed_object_is_verified_once_across_reorgs(self, ecdsa_verify_calls):
        """Admission, execution and replay-from-genesis share one verdict."""
        reorgs = 0
        for seed in (5, 6, 7):
            ecdsa_verify_calls.clear()
            # Blocks every ~0.5 s against links of comparable delay: forks.
            ctx, nodes = make_consortium(seed=seed, i0=0.5)
            for node in nodes:
                node.start()
            for i in range(6):
                nodes[i % 4].pay(addr((i + 1) % 4), 10 + i)
            run_to_height(ctx, nodes, 25)
            reorgs += sum(node.stats.reorgs for node in nodes)
            # Simulated nodes share message objects, so one verdict serves all.
            assert len(ecdsa_verify_calls) == len(set(ecdsa_verify_calls))
        assert reorgs > 0

    def test_block_decoded_from_the_wire_reuses_admitted_transactions(self, ecdsa_verify_calls):
        """The live tier decodes fresh objects per message; the pool's copy of
        a transaction carries its verdict into the block that includes it."""
        ctx, nodes = make_consortium(seed=1)
        receiver = nodes[0]

        def through_the_wire(message: Message, from_peer: int) -> None:
            payload = message.payload
            if isinstance(payload, (Block, Transaction)):
                payload = type(payload).from_bytes(payload.to_bytes())
            receiver.on_message(replace(message, payload=payload), from_peer)

        ctx.network.attach(0, through_the_wire)
        for node in nodes[1:]:
            node.start()
        txs = [nodes[1].pay(addr(2), 10 + i) for i in range(3)]
        ctx.sim.run(
            stop_when=lambda: receiver.ledger.nonce(addr(1)) == 3, max_events=5_000_000
        )
        assert receiver.ledger.balance(addr(2)) == 1_000_033
        digests = [tx.signing_digest() for tx in txs]
        # Node 0's decoded copies are distinct objects from the ones nodes 1-3
        # share, so each transfer is verified exactly twice in this process:
        # once for the shared object, once at node 0's admission — and not a
        # third time when node 0 executes the decoded block.
        for digest in digests:
            assert sum(1 for _, seen, _ in ecdsa_verify_calls if seen == digest) == 2


def _chain_copies(node, tx) -> int:
    return sum(
        1 for block in node.main_chain() for t in block.transactions if t.tx_id == tx.tx_id
    )


def partition_probe(seed: int) -> tuple[list[list[int]], list[int]]:
    """A 2 | 2 partition with one payment per node, healed after four blocks.

    Returns, per node, how often each of the four payments is on its main
    chain twelve blocks after the heal, and every node's pool size.  Print
    the per-seed table with

      PYTHONPATH=src python -c "from tests.test_fullnode import partition_probe; \
          [print(s, *partition_probe(s)) for s in range(6)]"
    """
    ctx, nodes = make_consortium(n=4, seed=seed, verify=False, i0=5.0)
    ctx.network.set_partition([[0, 1], [2, 3]])
    for node in nodes:
        node.start()
    txs = [nodes[i].pay(addr((i + 1) % 4), 10 + i) for i in range(4)]
    ctx.sim.run(
        stop_when=lambda: all(n.state.height() >= 4 for n in nodes), max_events=5_000_000
    )
    ctx.network.set_partition(None)
    target = max(n.state.height() for n in nodes) + 12
    ctx.sim.run(
        stop_when=lambda: all(n.state.height() >= target for n in nodes),
        max_events=5_000_000,
    )
    ctx.sim.run(until=ctx.sim.now + 30.0)
    monitor = InvariantMonitor(nodes, ctx.network, ctx.sim)
    monitor.check_now()  # state roots agree wherever heads do
    assert monitor.report.clean, monitor.report.violations
    assert sum(n.stats.reorgs for n in nodes) > 0
    copies = [[_chain_copies(node, tx) for tx in txs] for node in nodes]
    return copies, [len(node.mempool) for node in nodes]


class TestReorgKeepsTransactions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partition_heal_loses_and_repeats_nothing(self, seed):
        """The losing side's payments go back to the pool and are mined again."""
        copies, pools = partition_probe(seed)
        assert copies == [[1, 1, 1, 1]] * 4
        assert pools == [0, 0, 0, 0]

    def test_child_before_parent_evicts_both_blocks_transactions(self):
        """Two blocks joining in one ``"extended"`` both leave the pool."""
        ctx, nodes = make_consortium(n=2, verify=False)
        node = nodes[0]
        tx_a = make_transaction(keypair(1), addr(0), 5, 0)
        tx_b = make_transaction(keypair(1), addr(0), 6, 1)
        node.submit_transaction(tx_a)
        node.submit_transaction(tx_b)
        genesis = ctx.genesis
        multiple, base, epoch = node.state.mining_assignment(addr(1))
        parent = build_block(
            keypair(1), genesis.block_id, 1, [tx_a], 1.0, multiple, base, epoch
        )
        child = build_block(
            keypair(1), parent.block_id, 2, [tx_b], 2.0, multiple, base, epoch
        )
        node._handle_block(child)  # buffered: parent unknown
        assert node.state.height() == 0 and len(node.mempool) == 2
        node._handle_block(parent)  # both attach in one head move
        assert node.state.height() == 2
        assert tx_a.tx_id not in node.mempool
        assert tx_b.tx_id not in node.mempool
        assert node.ledger.nonce(addr(1)) == 2

    def test_transaction_on_the_main_chain_is_not_admitted_again(self):
        """A late flood copy of a mined payment must not be mined twice."""
        ctx, nodes = make_consortium(verify=False, seed=3)
        for node in nodes:
            node.start()
        tx = nodes[0].pay(addr(1), 250)
        ctx.sim.run(
            stop_when=lambda: all(n.ledger.nonce(addr(0)) == 1 for n in nodes),
            max_events=5_000_000,
        )
        _gossip_tx(ctx, 2, tx)  # fresh message id: every seen-set lets it through
        ctx.sim.run(until=ctx.sim.now + 1.0)
        assert all(tx.tx_id not in node.mempool for node in nodes)
        nodes[1].submit_transaction(tx)  # and the local door is shut too
        assert tx.tx_id not in nodes[1].mempool
        run_to_height(ctx, nodes, max(n.state.height() for n in nodes) + 6)
        assert [_chain_copies(node, tx) for node in nodes] == [1, 1, 1, 1]


#: sha256 of :func:`consortium_digest` at seed 0, re-captured at commit
#: ``70cf004`` (the parent of the one-relay-rule change), after that
#: change, with
#:
#:   PYTHONPATH=src python -c "from tests.test_fullnode import \
#:       consortium_digest; print(consortium_digest(0))"
#:
#: The simulator now relays a transaction by the live tier's rule
#: (:func:`repro.net.transport.relay_targets`): a copy straight from its
#: origin is not sent on to the origin's neighbours, so on this complete
#: 4-node overlay each transaction costs 3 sends instead of 9, and the
#: hashed network counters and the event order after them move.  Identical
#: under CPython 3.10.13, 3.11.7 and 3.12.1 and under ``PYTHONHASHSEED`` 0
#: and 4242.  The capture before, at ``19c69bd``, was for the stdlib
#: generator.
GOLDEN_CONSORTIUM_SHA256 = "2368e9e1f8057789d8da8dfb73cf7250ae85827ddf93fb92d13a75d0c160abff"


def consortium_digest(seed: int) -> str:
    """Signed 4-node consortium: payments, a §IV-C join, no reorg.

    Hashes every node's main-chain bytes and state root plus the network
    counters — everything a ``FullNode`` does where no block leaves the main
    chain must stay byte-identical.
    """
    ctx, nodes = make_consortium(n=4, seed=seed)
    for node in nodes:
        node.start()
    nodes[0].pay(addr(1), 250)
    nodes[1].pay(addr(2), 20)
    nodes[0].propose_add_member(addr(6), evidence=b"id-proof")
    ctx.sim.run(
        stop_when=lambda: all(
            n.nodeset.open_proposals() or n.nodeset.is_member(addr(6))
            for n in nodes
        ),
        max_events=5_000_000,
    )
    nodes[1].vote(0, True)
    nodes[2].vote(0, True)
    nodes[3].pay(addr(0), 7)
    ctx.sim.run(
        stop_when=lambda: all(n.nodeset.is_member(addr(6)) for n in nodes),
        max_events=5_000_000,
    )
    nodes[2].pay(addr(3), 11)
    target = max(n.state.height() for n in nodes) + 8
    ctx.sim.run(
        stop_when=lambda: all(n.state.height() >= target for n in nodes),
        max_events=5_000_000,
    )
    # The parity claim only covers runs where no block leaves a main chain.
    assert sum(node.stats.reorgs for node in nodes) == 0
    digest = hashlib.sha256()
    for node in nodes:
        digest.update(b"".join(block.to_bytes() for block in node.main_chain()))
        digest.update(node.state_root())
    digest.update(json.dumps(to_json(ctx.network.stats), sort_keys=True).encode())
    return digest.hexdigest()


class TestGoldenConsortium:
    def test_reorg_free_run_is_byte_identical_to_the_parent(self):
        assert consortium_digest(0) == GOLDEN_CONSORTIUM_SHA256
