"""Integration tests for the FullNode: real transactions, ledger, governance."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chain.block import Block
from repro.chain.genesis import make_genesis
from repro.chain.transaction import Transaction, make_transaction
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
                len(n.nodeset.contract.open_proposals()) == 1
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
            assert node.nodeset.n == 5

    def test_remove_member_end_to_end(self):
        ctx, nodes = make_consortium(n=4, seed=5)
        for node in nodes:
            node.start()
        victim = addr(3)
        nodes[0].propose_remove_member(victim, evidence=b"double-spend")
        ctx.sim.run(
            stop_when=lambda: all(
                n.nodeset.contract.open_proposals() or not n.nodeset.is_member(victim)
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
            assert node.nodeset.n == 3
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
