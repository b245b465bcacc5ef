"""Integration tests for the PoW-family mining nodes."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import pytest

from repro.chain.block import Block
from repro.chain.transaction import make_transaction
from repro.chaos.invariants import InvariantMonitor, SafetyViolation
from repro.consensus.powfamily import (
    MiningNode,
    powh_config,
    themis_config,
    themis_lite_config,
)
from repro.core.difficulty import DifficultyParams
from repro.core.election import BlockBuilder, BlockValidator
from repro.crypto.signature import sign_digest
from repro.errors import InvalidBlockError
from repro.mining.oracle import MiningOracle
from repro.net.latency import LinkModel
from repro.net.message import BlocksResponse, HeadersResponse, Message
from repro.sim.fleet import build_stack
from repro.sim.runner import ExperimentConfig, run_experiment
from repro.sim.tracing import Tracer
from repro.storage.sqlite import SqliteStorage

from tests.conftest import FAST, TEST_FLEET, keypair


class TestConfigs:
    def test_algorithm_matrix(self):
        assert themis_config().rule_kind == "geost" and themis_config().adaptive
        assert themis_lite_config().rule_kind == "ghost" and themis_lite_config().adaptive
        assert powh_config().rule_kind == "ghost" and not powh_config().adaptive


class TestConsensusProgress:
    def test_chain_grows_and_converges(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        stack.run_to_height(20)
        assert stack.nodes[0].state.height() >= 20
        # Drain in-flight messages, then all nodes agree on a long prefix.
        stack.sim.run(until=stack.sim.now + 30.0)
        prefix_ids = set()
        for node in stack.nodes:
            chain = node.main_chain()
            prefix_ids.add(chain[15].block_id)
        assert len(prefix_ids) == 1

    def test_all_nodes_produce(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=3, params=FAST, **TEST_FLEET)
        stack.run_to_height(40)
        chain = stack.nodes[0].main_chain()
        producers = Counter(b.producer for b in chain[1:])
        assert len(producers) == 4  # everyone landed at least one block

    def test_block_interval_tracks_i0(self):
        params = DifficultyParams(i0=5.0, beta=2.0)
        stack = build_stack(MiningNode, [themis_config()] * 4, params=params, **TEST_FLEET)
        stack.run_to_height(48)
        chain = stack.nodes[0].main_chain()
        # Skip the first epoch (difficulty still calibrating).
        segment = chain[8:49]
        interval = (
            segment[-1].header.timestamp - segment[0].header.timestamp
        ) / (len(segment) - 1)
        assert interval == pytest.approx(5.0, rel=0.6)

    def test_deterministic_given_seed(self):
        stack_a = build_stack(MiningNode, [themis_config()] * 4, seed=11, params=FAST, **TEST_FLEET)
        stack_a.run_to_height(15)
        stack_b = build_stack(MiningNode, [themis_config()] * 4, seed=11, params=FAST, **TEST_FLEET)
        stack_b.run_to_height(15)
        chain_a = [b.block_id for b in stack_a.nodes[0].main_chain()[:16]]
        chain_b = [b.block_id for b in stack_b.nodes[0].main_chain()[:16]]
        assert chain_a == chain_b

    def test_different_seeds_differ(self):
        stack_a = build_stack(MiningNode, [themis_config()] * 4, seed=1, params=FAST, **TEST_FLEET)
        stack_a.run_to_height(10)
        stack_b = build_stack(MiningNode, [themis_config()] * 4, seed=2, params=FAST, **TEST_FLEET)
        stack_b.run_to_height(10)
        assert [b.block_id for b in stack_a.nodes[0].main_chain()[:11]] != [
            b.block_id for b in stack_b.nodes[0].main_chain()[:11]
        ]


class TestAdaptiveDifficulty:
    def test_strong_node_gets_high_multiple(self):
        """A 20× power node's multiple climbs toward 20 (Eq. 6 equilibrium)."""
        configs = [themis_config(hash_rate=20.0)] + [
            themis_config(hash_rate=1.0) for _ in range(3)
        ]
        params = DifficultyParams(i0=5.0, beta=8.0)
        stack = build_stack(MiningNode, configs, seed=5, params=params, **TEST_FLEET)
        stack.run_to_height(32 * 4)  # 4 epochs of Δ=32
        strong = stack.nodes[0].address
        multiple, _, _ = stack.nodes[0].state.mining_assignment(strong)
        assert multiple > 4.0  # rising toward ~20

    def test_powh_multiples_stay_one(self):
        configs = [powh_config(hash_rate=20.0)] + [
            powh_config(hash_rate=1.0) for _ in range(3)
        ]
        params = DifficultyParams(i0=5.0, beta=2.0)
        stack = build_stack(MiningNode, configs, seed=5, params=params, **TEST_FLEET)
        stack.run_to_height(24)
        for node in stack.nodes:
            multiple, _, _ = node.state.mining_assignment(node.address)
            assert multiple == 1.0

    def test_themis_equalizes_vs_powh(self):
        """The headline claim at miniature scale: Themis' producer histogram
        is flatter than PoW-H's under a 20:1:1:1 power split."""

        def histogram(configs, seed):
            params = DifficultyParams(i0=5.0, beta=4.0)
            stack = build_stack(MiningNode, configs, seed=seed, params=params, **TEST_FLEET)
            stack.run_to_height(16 * 6)
            chain = stack.nodes[0].main_chain()
            counts = Counter(b.producer for b in chain[33:])  # skip 2 epochs
            return counts

        power = [20.0, 1.0, 1.0, 1.0]
        themis_counts = histogram([themis_config(hash_rate=h) for h in power], 9)
        powh_counts = histogram([powh_config(hash_rate=h) for h in power], 9)
        strong = keypair(0).public.fingerprint()
        themis_share = themis_counts[strong] / sum(themis_counts.values())
        powh_share = powh_counts[strong] / sum(powh_counts.values())
        assert powh_share > 0.7  # ~20/23 without adjustment
        assert themis_share < powh_share - 0.2


class TestValidationPath:
    def test_invalid_difficulty_blocks_rejected(self):
        """A block declaring the wrong multiple is rejected by peers."""
        from repro.chain.block import build_block

        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 3)
        # Forge a block with an inflated base difficulty.
        head = stack.nodes[1].state.head_block()
        forged = build_block(
            keypair(0),
            head.block_id,
            head.height + 1,
            [],
            stack.sim.now,
            1.0,
            999_999.0,
            0,
        )
        before = stack.nodes[1].stats.blocks_rejected
        stack.nodes[1]._handle_block(forged)
        assert stack.nodes[1].stats.blocks_rejected == before + 1
        assert forged.block_id not in stack.nodes[1].tree

    @pytest.mark.parametrize("declared", [math.inf, math.nan])
    def test_non_finite_declared_difficulty_is_refused(self, declared):
        """``1e-6 · inf = inf``, so an infinite multiple and base were
        "close" to any table's; such a block was admitted and became the
        head.  A header with a non-finite difficulty cannot be built."""
        from repro.chain.block import build_block

        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 3)
        head = stack.nodes[1].state.head_block()
        with pytest.raises(InvalidBlockError, match="finite"):
            stack.nodes[1]._handle_block(
                build_block(
                    keypair(0), head.block_id, head.height + 1, [], stack.sim.now,
                    declared, declared, 0,
                )
            )
        assert stack.nodes[1].state.head_block() is head

    def test_non_member_blocks_rejected(self):
        from repro.chain.block import build_block

        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        for node in stack.nodes:
            node.start()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 2)
        head = stack.nodes[1].state.head_block()
        table = stack.nodes[1].state.governing(head.block_id)[1]
        outsider = build_block(
            keypair(7),
            head.block_id,
            head.height + 1,
            [],
            stack.sim.now,
            1.0,
            table.base,
            stack.nodes[1].state.epoch_of_height(head.height + 1),
        )
        before = stack.nodes[1].stats.blocks_rejected
        stack.nodes[1]._handle_block(outsider)
        assert stack.nodes[1].stats.blocks_rejected == before + 1


class TestForgedPosition:
    """A header's ``height`` and ``epoch`` must follow from its parent.

    At the parent commit neither was checked on any live path: the forgery
    below became head and ``state.height()`` (6) disagreed with
    ``head_block().height`` (12).
    """

    def _fleet_and_header(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, seed=3, link=LinkModel(jitter=0.01))
        stack.run_to_height(5)
        for node in stack.nodes:
            node.stop()
        state = stack.nodes[0].state
        parent = state.head_block()
        multiple, base, epoch = state.mining_assignment(stack.nodes[1].address)
        header = stack.nodes[1].builder.build_header(
            parent, [], stack.sim.now, multiple, base, epoch
        )
        return stack.nodes[0], parent, header

    @pytest.mark.parametrize(
        ("height_shift", "epoch", "reason"),
        [(7, 99, "height"), (-2, 0, "height"), (0, 0, "height"), (1, 1, "epoch")],
    )
    def test_forged_height_or_epoch_rejected(self, height_shift, epoch, reason):
        node, parent, header = self._fleet_and_header()
        tracer = Tracer()
        node.observers.append(tracer)
        forged = replace(header, height=parent.height + height_shift, epoch=epoch)
        node._handle_block(Block(forged, None, ()))
        assert node.stats.blocks_rejected == 1
        assert node.state.head_block() is parent
        assert node.state.height() == parent.height
        (event,) = tracer.events(kind="block/rejected")
        assert reason in event.detail["reason"]

    def test_honest_header_accepted(self):
        node, parent, header = self._fleet_and_header()
        node._handle_block(Block(header, None, ()))
        assert node.stats.blocks_rejected == 0
        assert node.state.head_block().height == node.state.height() == parent.height + 1


def _stopped_fleet(storage: SqliteStorage | None = None):
    """Four Themis nodes stopped at height 5 (epoch 0 lasts 32 heights);
    ``storage``, if given, is attached to node 0 before the run."""
    stack = build_stack(MiningNode, [themis_config()] * 4, seed=3, link=LinkModel(jitter=0.01))
    if storage is not None:
        stack.nodes[0].attach_storage(storage)
    stack.run_to_height(5)
    for node in stack.nodes:
        node.stop()
    return stack


def _block_on(state, parent: Block, producer, multiple_factor: float = 1.0) -> Block:
    """An unsigned block by ``producer`` on ``parent`` under epoch 0's table."""
    table = state.governing(state.tree.genesis_id)[1]
    header = BlockBuilder(producer).build_header(
        parent,
        [],
        parent.header.timestamp + 1.0,
        table.multiple(producer.public.fingerprint()) * multiple_factor,
        table.base,
        table.epoch,
    )
    return Block(header, None, ())


class TestChildFirstAdmission:
    """A block delivered before its parent is judged when it attaches.

    At the parent commit a buffered orphan was inserted unjudged: a
    non-member's block delivered child-first became the head, and
    ``blocks_rejected`` stayed 0.
    """

    @pytest.mark.parametrize(
        ("forger", "multiple_factor", "reason"),
        [(None, 1.0, "not a consensus member"), (2, 7.0, "multiple")],
        ids=["non-member", "forged-multiple"],
    )
    def test_forged_block_delivered_child_first_is_refused(
        self, forger, multiple_factor, reason
    ):
        stack = _stopped_fleet()
        node = stack.nodes[0]
        tracer = Tracer()
        node.observers.append(tracer)
        forger_key = keypair(9) if forger is None else stack.nodes[forger].keypair
        honest = _block_on(node.state, node.state.head_block(), stack.nodes[1].keypair)
        forged = _block_on(node.state, honest, forger_key, multiple_factor)
        above = _block_on(node.state, forged, stack.nodes[3].keypair)
        accepted = node.stats.blocks_accepted
        node._handle_block(above)
        node._handle_block(forged)
        assert node.tree.orphan_count == 2
        node._handle_block(honest)
        assert forged.block_id not in node.tree
        assert above.block_id not in node.tree
        assert node.state.head_block() is honest
        assert node.stats.blocks_rejected == 1
        assert node.stats.blocks_accepted == accepted + 1
        assert node.tree.orphan_count == 0
        (event,) = tracer.events(kind="block/rejected")
        assert reason in event.detail["reason"]

    def test_sync_page_arriving_child_first(self, tmp_path, monkeypatch):
        """A blocks page in reverse height order with a forgery in the middle:
        the honest blocks below it attach, it and the blocks above it never
        do, and nothing refused reaches storage."""
        stack = _stopped_fleet()
        node = stack.nodes[0]
        storage = SqliteStorage(tmp_path / "node-0.db")
        node.attach_storage(storage)
        recorded: list[Block] = []
        record = storage.record_block
        monkeypatch.setattr(
            storage,
            "record_block",
            lambda block, arrival: recorded.append(block) or record(block, arrival),
        )
        first = _block_on(node.state, node.state.head_block(), stack.nodes[1].keypair)
        second = _block_on(node.state, first, stack.nodes[2].keypair)
        forged = _block_on(node.state, second, keypair(9))
        above = _block_on(node.state, forged, stack.nodes[3].keypair)
        top = _block_on(node.state, above, stack.nodes[0].keypair)
        page = [first, second, forged, above, top]
        accepted = node.stats.blocks_accepted

        node.sync.start_sync(1)
        node.sync.on_message(
            Message(
                kind=HeadersResponse.kind,
                payload=HeadersResponse(
                    node.sync._request_id, tuple(block.block_id for block in page), False
                ),
                body_size=0,
                origin=1,
            ),
            1,
        )
        node.sync.on_message(
            Message(
                kind=BlocksResponse.kind,
                payload=BlocksResponse(node.sync._request_id, tuple(page[::-1])),
                body_size=0,
                origin=1,
            ),
            1,
        )
        assert node.sync.stats.blocks_received == 5
        assert node.state.head_block() is second
        assert all(block.block_id not in node.tree for block in (forged, above, top))
        assert node.tree.orphan_count == 0
        assert node.stats.blocks_rejected == 1
        assert node.stats.blocks_accepted == accepted + 2
        assert recorded == [first, second]
        assert storage.block_by_id(forged.block_id) is None
        storage.close()


def test_side_branch_blocks_commit_once_the_batch_is_full(tmp_path):
    """``batch_size`` bounds the buffer even while the head stays put: at
    the parent commit only a head move committed, so side-branch blocks
    piled up unwritten."""
    stack = _stopped_fleet()
    node = stack.nodes[0]
    db = tmp_path / "node-0.db"
    storage = SqliteStorage(db, batch_size=2)
    node.attach_storage(storage)
    reader = SqliteStorage(db, read_only=True)
    rows = reader.block_row_count()
    head = node.state.head_id
    fork = _block_on(node.state, node.main_chain()[2], stack.nodes[1].keypair)
    tip = _block_on(node.state, fork, stack.nodes[2].keypair)
    assert node._attach(fork) == node._attach(tip) == "unchanged"
    assert node.state.head_id == head and node.stats.blocks_rejected == 0
    assert reader.block_row_count() == rows + 2
    reader.close()
    storage.close()


class TestCopies:
    def test_valid_copy_of_a_held_block_is_dropped_and_a_tampered_one_refused(self):
        """At the parent commit a valid copy raised ``DuplicateBlockError``
        out of ``on_message`` (in the live tier: out of the transport's read
        loop, dropping the connection)."""
        stack = _stopped_fleet()
        node = stack.nodes[0]
        held = node.state.head_block()
        copy = replace(held)
        tampered = replace(
            held, transactions=(make_transaction(keypair(1), held.producer, 1, 0),)
        )
        assert copy is not held and copy.block_id == tampered.block_id == held.block_id
        for block in (copy, tampered):
            node.on_message(
                Message(kind="block", payload=block, body_size=0, origin=1), 1
            )
        assert node.stats.blocks_rejected == 1  # the tampered one
        assert node.state.head_block() is held
        assert node.tree.get(held.block_id) is held


class TestOrphanTriggeredSync:
    def test_a_lingering_orphan_starts_one_sync(self, monkeypatch):
        """A delivery that grows the orphan buffer starts a sync; later
        deliveries, cooldowns apart, while that orphan merely stays buffered
        start none.  At the parent commit every delivery past the cooldown
        started another sync, for as long as an orphan whose parent no
        peer's main chain holds stayed in the buffer."""
        stack = _stopped_fleet()
        node = stack.nodes[0]
        syncs: list[int | None] = []
        monkeypatch.setattr(node.sync, "start_sync", syncs.append)
        head = node.state.head_block()
        unheld = _block_on(node.state, head, stack.nodes[1].keypair)
        orphan = _block_on(node.state, unheld, stack.nodes[2].keypair)
        arrivals = [orphan]
        parent = head
        for index in range(4):
            parent = _block_on(node.state, parent, stack.nodes[index % 2 + 2].keypair)
            arrivals.append(parent)
        for step, block in enumerate(arrivals, start=1):
            stack.sim.schedule_at(
                stack.sim.now + step * 2 * node.SYNC_COOLDOWN,
                lambda block=block: node.on_message(
                    Message(kind="block", payload=block, body_size=0, origin=1), 1
                ),
            )
        stack.sim.run()
        assert node.tree.orphan_count == 1
        assert node.state.head_block() is arrivals[-1]
        assert syncs == [1]


class TestSharedFacts:
    """Chain facts are computed once per run, and only where that is sound."""

    def test_validator_runs_once_per_block_object(self, monkeypatch):
        judged: list[Block] = []
        real = BlockValidator.validate
        monkeypatch.setattr(
            BlockValidator,
            "validate",
            lambda self, block: judged.append(block) or real(self, block),
        )
        stack = build_stack(MiningNode, [themis_config()] * 8, seed=11, link=LinkModel(jitter=0.01))
        stack.run_to_height(20)
        assert len(judged) >= 20
        assert len({id(block) for block in judged}) == len(judged)
        # Every node still took every block in through its own tree.
        accepted = sum(node.stats.blocks_accepted for node in stack.nodes)
        assert accepted > 6 * len(judged)

    def test_copies_of_an_accepted_block_are_judged_again(self):
        signed = [
            themis_config(hash_rate=1.0, sign_blocks=True, verify_signatures=True)
            for _ in range(4)
        ]
        stack = build_stack(MiningNode, signed, params=FAST, **TEST_FLEET)
        stack.run_to_height(6)
        for node in stack.nodes:
            node.stop()
        stack.sim.run(until=stack.sim.now + 5.0)  # drain in-flight gossip
        genuine = stack.nodes[0].state.block_at(3)
        assert all(genuine.block_id in node.tree for node in stack.nodes)
        producer = next(i for i in range(4) if keypair(i).public.fingerprint() == genuine.producer)
        other = keypair((producer + 1) % 4)
        tampered_body = replace(
            genuine,
            transactions=(make_transaction(other, genuine.producer, 1, 0),),
        )
        other_signature = replace(
            genuine, signature=sign_digest(other, genuine.header.hash())
        )
        assert tampered_body.block_id == other_signature.block_id == genuine.block_id
        for node in stack.nodes:
            before = node.stats.blocks_rejected
            node._handle_block(tampered_body)
            node._handle_block(other_signature)
            assert node.stats.blocks_rejected == before + 2
        # ... and the genuine object is still good.
        observer = stack.nodes[0]
        assert observer.state.facts.verdict(genuine, observer.validator.validate) is None

    def test_sharing_is_scoped_to_what_the_facts_depend_on(self):
        configs = [themis_config(), themis_config(), powh_config(), powh_config()]
        stack = build_stack(MiningNode, configs, params=FAST, **TEST_FLEET)
        private = MiningNode(
            0, keypair(0), stack.ctx, themis_config(), members_fn=lambda: list(stack.ctx.members)
        )
        themis_facts, powh_facts = stack.nodes[0].state.facts, stack.nodes[2].state.facts
        assert stack.nodes[1].state.facts is themis_facts
        assert stack.nodes[3].state.facts is powh_facts
        assert len({id(themis_facts), id(powh_facts), id(private.state.facts)}) == 3
        assert stack.ctx.facts_for(True, False, True) is not themis_facts
        stack.nodes[0].state.mining_assignment(stack.nodes[0].address)
        assert themis_facts.governing
        assert not powh_facts.governing and not private.state.facts.governing
        # A verdict reached under one scope is not served under another.
        head = stack.nodes[0].state.head_block()
        multiple, base, epoch = stack.nodes[0].state.mining_assignment(stack.nodes[1].address)
        block = Block(
            stack.nodes[1].builder.build_header(head, [], 1.0, multiple, base, epoch), None, ()
        )
        stack.nodes[0]._handle_block(block)
        assert block.block_id in themis_facts.verdicts
        assert block.block_id not in powh_facts.verdicts
        assert block.block_id not in private.state.facts.verdicts

    def test_monitor_derives_tables_per_node(self, monkeypatch):
        """A shared table compared with itself would prove nothing: corrupt
        one node's own derivation and the sweep must still see it."""
        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)  # Δ = 4
        stack.run_to_height(9)
        for node in stack.nodes:
            node.stop()
        stack.sim.run(until=stack.sim.now + 5.0)
        assert len({node.state.head_id for node in stack.nodes}) == 1
        InvariantMonitor(stack.nodes, stack.network, stack.sim).check_now()  # clean

        state = stack.nodes[2].state
        real = state.derive_table

        def skewed(anchor_id, prev_table):
            table = real(anchor_id, prev_table)
            return replace(table, base=table.base * 2)

        monkeypatch.setattr(state, "derive_table", skewed)
        with pytest.raises(SafetyViolation, match="difficulty-table disagreement"):
            InvariantMonitor(stack.nodes, stack.network, stack.sim).check_now()

    def test_monitor_catches_a_foreign_member_set_at_the_first_shared_anchor(self):
        """Each (node, anchor) table is compared once and the verdict
        remembered; a node that derives from another member set is still
        reported at every sweep, at the genesis anchor and the next one."""
        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)  # Δ = 4
        foreign = [*stack.ctx.members[:3], keypair(9).public.fingerprint()]
        stack.nodes[3] = MiningNode(
            3, keypair(3), stack.ctx, themis_config(), members_fn=lambda: foreign
        )
        monitor = InvariantMonitor(stack.nodes, stack.network, stack.sim)
        for _ in range(2):  # the second sweep reads what the first recorded
            with pytest.raises(SafetyViolation, match=r"\(epoch 0\): node 0 vs node 3"):
                monitor.check_now()
        InvariantMonitor(stack.nodes[:3], stack.network, stack.sim).check_now()  # clean
        for node in stack.nodes[:3]:
            node.start()
        stack.sim.run(stop_when=lambda: min(node.state.height() for node in stack.nodes) >= 5)
        with pytest.raises(SafetyViolation, match=r"\(epoch 1\): node 0 vs node 3"):
            monitor.check_now()
        assert monitor.report.safety_violations == 3


class TestStopStart:
    def test_stopped_node_still_relays(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        for node in stack.nodes:
            node.start()
        stack.nodes[3].stop()
        stack.sim.run(stop_when=lambda: stack.nodes[0].state.height() >= 10)
        assert stack.nodes[3].stats.blocks_produced == 0
        stack.sim.run(until=stack.sim.now + 20.0)
        assert stack.nodes[3].state.height() >= 9  # kept following the chain


class TestMiningTimer:
    """Solve times are memoryless: a live timer drawn at the difficulty the
    node still mines at is kept when the head moves; every other arming
    draws afresh."""

    def _mining_fleet(self):
        stack = build_stack(MiningNode, [themis_config()] * 4, params=FAST, **TEST_FLEET)
        for node in stack.nodes:
            node.start()
        return stack

    def test_kept_when_the_head_moves_at_the_same_difficulty(self):
        stack = self._mining_fleet()
        handles = [node._mining_handle for node in stack.nodes]
        difficulties = [node.current_difficulty() for node in stack.nodes]
        stack.sim.run(stop_when=lambda: all(node.state.height() >= 1 for node in stack.nodes))
        for node, handle, difficulty in zip(stack.nodes, handles, difficulties):
            assert node.current_difficulty() == difficulty  # still epoch 0
            if node.stats.blocks_produced == 0:
                assert node._mining_handle is handle and not handle.cancelled

    def test_redrawn_when_a_head_move_changes_the_difficulty(self):
        stack = self._mining_fleet()
        watched = stack.nodes[1]
        kept = redrawn = 0
        while watched.state.height() < 4 * stack.ctx.params.epoch_length(4):
            handle = watched._mining_handle
            armed_at = watched.current_difficulty()
            produced = watched.stats.blocks_produced
            head = watched.state.head_id
            stack.sim.run(stop_when=lambda: watched.state.head_id != head)
            if watched.stats.blocks_produced != produced:
                continue  # its own timer fired
            if watched.current_difficulty() == armed_at:
                assert watched._mining_handle is handle
                kept += 1
            else:
                assert handle.cancelled and watched._mining_handle is not handle
                redrawn += 1
        assert kept > 0 and redrawn > 0

    def test_redrawn_after_the_timer_fires(self):
        stack = self._mining_fleet()
        handles = [node._mining_handle for node in stack.nodes]
        stack.sim.run(stop_when=lambda: any(node.stats.blocks_produced for node in stack.nodes))
        producer = next(i for i, node in enumerate(stack.nodes) if node.stats.blocks_produced)
        fresh = stack.nodes[producer]._mining_handle
        assert fresh is not None and fresh is not handles[producer]
        assert not handles[producer].cancelled  # it fired

    def test_redrawn_after_stop_and_start(self):
        stack = self._mining_fleet()
        node = stack.nodes[2]
        handle = node._mining_handle
        node.stop()
        assert handle.cancelled and node._mining_handle is None
        node.start()
        assert node._mining_handle is not None and node._mining_handle is not handle

    def test_redrawn_when_sync_completes_after_a_crash(self):
        stack = self._mining_fleet()
        node = stack.nodes[3]
        stack.sim.run(stop_when=lambda: node.state.height() >= 2)
        handle = node._mining_handle
        node.crash()
        assert handle.cancelled and node._mining_handle is None
        stack.sim.run(until=stack.sim.now + 30.0)
        node.restart(sync_peer=0)
        assert node._mining_handle is None  # held back until synced
        stack.sim.run(stop_when=lambda: node._mining_handle is not None)
        assert not node.sync.active
        assert node.state.head_id == stack.nodes[0].state.head_id

    def test_a_few_draws_per_block(self, monkeypatch):
        """Draws come from fired timers and difficulty changes only, not
        from every head move (≈ n − 1 per block when they did)."""
        draws = []
        real = MiningOracle.sample_solve_time
        monkeypatch.setattr(
            MiningOracle,
            "sample_solve_time",
            lambda oracle, h, d: draws.append(d) or real(oracle, h, d),
        )
        result = run_experiment(ExperimentConfig("themis", n=10, epochs=2, seed=3))
        blocks = len(result.observer.tree) - 1
        assert len(draws) <= 2 * blocks
