"""Transport-refactor parity: the protocol split must not move a single byte.

The golden hashes below pin fixed-seed simulated runs byte for byte.  If the
``Transport``/``Clock`` protocol extraction — or any later backend work —
perturbs the simulated schedule by even one event, a hash changes and this
suite fails.

Every simulator golden here was re-captured once at commit ``19c69bd`` (the
parent of the stdlib-randomness change), after that change: a run's one
generator is a ``random.Random`` instead of a numpy ``Generator``, so every
draw — solve times, jitter, fault-plan picks — comes from another stream.
The block process is the same in distribution (CHANGES.md has the KS test
on block intervals and the Fig. 4/5 comparison), not in bytes.  The
``plan``, ``key_*`` and ``manifest`` pins did not move.  The capture before
that, at ``3f23eec``, was for the memoryless mining timers, which draw the
shared generator in another order.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chaos.faults import ClockSkewFault, CrashFault, LinkFault, PartitionFault
from repro.chaos.schedule import FaultPlan, plan_to_dict, random_fault_plan
from repro.consensus.powfamily import MiningNode, themis_config
from repro.core.difficulty import DifficultyParams
from repro.live.clock import LiveClock
from repro.live.manifest import localhost_manifest
from repro.live.transport import TcpGossipTransport
from repro.net.clock import Clock
from repro.net.latency import LinkModel
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.topology import complete_topology
from repro.net.transport import NetworkStats, Transport
from repro.serde import from_json, to_json
from repro.sim.cache import ResultCache
from repro.sim.fleet import SimStack, build_stack
from repro.sim.runner import ExperimentConfig, run_experiment

#: sha256 over the concatenated canonical bytes of the height-30 main chain
#: of :func:`golden_chain_fleet`, re-captured at commit
#: ``19c69bd`` with the stdlib generator (see the module docstring) with
#:
#:   PYTHONPATH=src python -c "from tests.test_transport_parity import \
#:       _chain_hash; print(_chain_hash())"
GOLDEN_CHAIN_SHA256 = "e420419645c9e1f2faf90a2a4c84eff64fea7cd1eddc4b128bb840a953ff693a"


def golden_chain_fleet() -> SimStack[MiningNode]:
    """Six Themis members mining a block every 2 s: the golden chain's fleet."""
    link, params = LinkModel(jitter=0.01), DifficultyParams(i0=2.0)
    return build_stack(MiningNode, [themis_config()] * 6, seed=42, link=link, params=params)


def _chain_hash(stack: SimStack[MiningNode] | None = None) -> str:
    """Mine the golden chain on ``stack`` (a fresh golden fleet by default)."""
    stack = stack or golden_chain_fleet()
    stack.run_to_height(30)
    blob = b"".join(block.to_bytes() for block in stack.nodes[0].main_chain())
    return hashlib.sha256(blob).hexdigest()


#: sha256 over ``repr((sim.events_processed, len(observer.tree),
#: observer.state.head_id.hex(), network.messages_sent,
#: network.messages_dropped))`` of :func:`recovery_config` runs — the
#: ingredients of the spine's ``sim.head_digest`` plus the send/drop counters.
#: Re-captured at commit ``19c69bd`` with the stdlib generator (see the
#: module docstring) with
#:
#:   PYTHONPATH=src python -c "from tests.test_transport_parity import \
#:       recovery_digest; print(recovery_digest(False), recovery_digest(True))"
#:
#: The faulted run (3 crash/restarts, one lossy-link window, a 9 | 3
#: partition) goes through 9 syncs, 14 orphan attachments, 48 reorgs and 431
#: dropped messages, and every crash victim produces again; the fault-free
#: one through 53 reorgs on a degree-4 overlay.  Each takes ~0.2 s.
GOLDEN_RECOVERY_SHA256 = {
    False: "96e8d412670bf5b3b25132f42c07bafb0c41895dd63f1a1f8e452c73bb51165a",
    True: "bd79876e4d25ff1e5adab50467fab3dbd611534d274b6e345c3d8f1398a7ec01",
}


def recovery_config(faulted: bool) -> ExperimentConfig:
    cfg = ExperimentConfig("themis", n=12, epochs=3, seed=7, degree=4)
    if not faulted:
        return cfg
    duration = cfg.epochs * cfg.difficulty_params().epoch_length(cfg.n) * cfg.i0
    plan = random_fault_plan(7926, range(cfg.n), duration, churn=0.25, link_faults=1)
    partition = PartitionFault(
        groups=(tuple(range(9)), tuple(range(9, 12))),
        at=0.5 * duration,
        heal_at=0.5 * duration + 100.0,
    )
    return replace(cfg, fault_plan=FaultPlan(faults=(*plan.faults, partition)))


def recovery_digest(faulted: bool) -> str:
    result = run_experiment(recovery_config(faulted))
    observer = result.observer
    assert observer is not None
    facts = (
        observer.ctx.sim.events_processed,
        len(observer.tree),
        observer.state.head_id.hex(),
        result.network.messages_sent,
        result.network.messages_dropped,
    )
    return hashlib.sha256(repr(facts).encode()).hexdigest()


#: sha256 over the ``to_json`` record of five runs — themis, themis-lite
#: (n = 21, degree 5), pow-h with 30 % vulnerable nodes, pbft, and themis
#: under ``random_fault_plan(churn=0.2, link_faults=1)`` — re-captured at
#: commit ``19c69bd`` with the stdlib generator (see the module docstring)
#: with
#:
#:   PYTHONPATH=src python -c "from tests.test_transport_parity import \
#:       results_digest; print(results_digest())"
#:
#: The derived-codec change (parent ``f615496``) stopped writing three derived values no loader ever read
#: (``invariants.clean``, ``fork.longest_duration``, ``fork.mean_duration``)
#: and writes an absent optional as ``null`` / ``[]`` where the hand-kept
#: serializer left the key out, so the hashed record drops those three keys
#: and every ``None`` / ``[]`` / ``{}``-valued key on both sides; every
#: metric, counter, fault log and invariant report is in it.
GOLDEN_RESULTS_SHA256 = "aba92d630d1fe1cf15da3dea0a0c2c2a242e64b808e47408cfe881c088a1ded1"


def _without_empty(value):
    if isinstance(value, dict):
        return {
            key: _without_empty(item)
            for key, item in value.items()
            if item is not None and item != [] and item != {}
        }
    if isinstance(value, list):
        return [_without_empty(item) for item in value]
    return value


def results_digest() -> str:
    base = ExperimentConfig("themis", n=12, epochs=3, seed=5)
    duration = base.epochs * base.difficulty_params().epoch_length(base.n) * base.i0
    plan = random_fault_plan(5, range(base.n), duration, churn=0.2, link_faults=1)
    configs = [
        base,
        ExperimentConfig("themis-lite", n=21, epochs=2, seed=5, degree=5),
        ExperimentConfig("pow-h", n=12, epochs=3, seed=5, vulnerable_ratio=0.3),
        ExperimentConfig("pbft", n=12, pbft_rounds=20, seed=5),
        replace(base, fault_plan=plan),
    ]
    digest = hashlib.sha256()
    for cfg in configs:
        record = to_json(run_experiment(cfg))
        (record.get("invariants") or {}).pop("clean", None)
        for derived in ("longest_duration", "mean_duration"):
            (record.get("fork") or {}).pop(derived, None)
        digest.update(json.dumps(_without_empty(record), sort_keys=True).encode())
    return digest.hexdigest()


#: Every format something hashes or boots from, captured at commit ``f615496``
#: (the parent of the derived-codec change), before any source edit, with
#:
#:   PYTHONPATH=src python -c "from tests.test_transport_parity import \
#:       format_pins; print(format_pins())"
#:
#: ``stats`` (a simulated run's counters) was re-captured the same way at
#: commit ``19c69bd`` with the stdlib generator (see the module docstring);
#: the other pins did not move.  ``plan`` is what the spine's ``sim_churn_n20`` input digest hashes, the two
#: keys are what ``ResultCache`` files a run under, ``stats`` is what the
#: consortium and selfish-fleet goldens hash, ``manifest`` is the file every
#: localnet process boots from.
GOLDEN_FORMATS: dict[str, str] = {
    "plan": (
        "{'faults': [{'node': 3, 'at': 12.5, 'restart_at': 40.0, 'kind': 'crash'}, "
        "{'node': 5, 'at': 20.0, 'restart_at': None, 'kind': 'crash'}, {'groups': "
        "[[0, 1, 2, 4], [3, 5]], 'at': 30.0, 'heal_at': 55.25, 'kind': "
        "'partition'}, {'at': 5.0, 'until': 25.0, 'nodes': [1, 3], 'loss': 0.2, "
        "'duplicate': 0.0, 'reorder_jitter': 0.05, 'bandwidth_factor': 1.0, "
        "'kind': 'link'}, {'at': 60.0, 'until': None, 'nodes': None, 'loss': 0.0, "
        "'duplicate': 0.1, 'reorder_jitter': 0.0, 'bandwidth_factor': 2.0, 'kind': "
        "'link'}, {'node': 2, 'skew': -1.5, 'at': 8.0, 'until': 16.0, 'kind': "
        "'clock_skew'}]}"
    ),
    "key_plain": "f7ff915cdf71fa99a002a8abdd180750f36d546a97a1a9f62312c52dbcec8cab",
    "key_planned": "ddffa45093ae89126336d087c5b11762f1f3d25691fcc5974a86d6ef507d4feb",
    "stats": (
        '{"bytes_by_kind": {"block": 652116712, "sync/blocks_req": 4656, '
        '"sync/blocks_resp": 7776100, "sync/headers_req": 5280, '
        '"sync/headers_resp": 4592}, "bytes_sent": 659907340, "drops_by_reason": '
        '{"loss": 56, "offline": 315, "partition": 60}, "messages_by_kind": '
        '{"block": 10138, "sync/blocks_req": 9, "sync/blocks_resp": 8, '
        '"sync/headers_req": 10, "sync/headers_resp": 9}, "messages_delivered": '
        '10172, "messages_dropped": 431, "messages_duplicated": 12, '
        '"messages_sent": 10174}'
    ),
    "manifest": "\n".join(
        [
            '{',
            '  "beta": 8.0,',
            '  "degree": 6,',
            '  "h0": 1.0,',
            '  "i0": 0.5,',
            '  "key_prefix": "pin",',
            '  "peers": [',
            '    {',
            '      "host": "127.0.0.1",',
            '      "node_id": 0,',
            '      "port": 9001',
            '    },',
            '    {',
            '      "host": "127.0.0.1",',
            '      "node_id": 1,',
            '      "port": 9002',
            '    },',
            '    {',
            '      "host": "127.0.0.1",',
            '      "node_id": 2,',
            '      "port": 9003',
            '    }',
            '  ],',
            '  "seed": 7,',
            '  "sign_blocks": true,',
            '  "verify_signatures": false',
            '}',
        ]
    ),
}

PINNED_PLAN = FaultPlan(
    faults=(
        CrashFault(node=3, at=12.5, restart_at=40.0),
        CrashFault(node=5, at=20.0),
        PartitionFault(groups=((0, 1, 2, 4), (3, 5)), at=30.0, heal_at=55.25),
        LinkFault(at=5.0, until=25.0, nodes=(1, 3), loss=0.2, reorder_jitter=0.05),
        LinkFault(at=60.0, duplicate=0.1, bandwidth_factor=2.0),
        ClockSkewFault(node=2, skew=-1.5, at=8.0, until=16.0),
    )
)


def format_pins() -> dict[str, str]:
    plain = ExperimentConfig("themis", n=8, epochs=2, seed=1)
    planned = replace(plain, fault_plan=PINNED_PLAN)
    cache = ResultCache("unused", code_version="pin")
    stats = run_experiment(recovery_config(True)).network
    assert stats.drops_by_reason["never-counted"] == 0  # a spurious defaultdict read
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "manifest.json"
        replace(
            localhost_manifest(ports=[9001, 9002, 9003], seed=7, i0=0.5),
            key_prefix="pin",
            sign_blocks=True,
        ).save(path)
        manifest = path.read_bytes()
    return {
        "plan": repr(plan_to_dict(PINNED_PLAN)),
        "key_plain": cache.key_for(plain),
        "key_planned": cache.key_for(planned),
        "stats": json.dumps(to_json(stats), sort_keys=True),
        "manifest": manifest.decode(),
    }


class TestGoldenParity:
    def test_result_records_are_identical_to_the_parent(self):
        assert results_digest() == GOLDEN_RESULTS_SHA256

    def test_hashed_and_booted_formats_are_byte_identical_to_the_parent(self):
        assert format_pins() == GOLDEN_FORMATS

    def test_fixed_seed_chain_is_byte_identical_to_pre_refactor(self):
        assert _chain_hash() == GOLDEN_CHAIN_SHA256

    def test_repeat_run_is_byte_identical(self):
        assert _chain_hash() == _chain_hash()

    @pytest.mark.parametrize("faulted", [False, True], ids=["sparse", "churn"])
    def test_recovery_paths_are_event_identical(self, faulted):
        """Sync, orphans, reorgs, drops and duplicates: same schedule, same head."""
        assert recovery_digest(faulted) == GOLDEN_RECOVERY_SHA256[faulted]


class TestProtocolConformance:
    def test_simulated_backend_satisfies_transport(self):
        sim = Simulator(seed=0)
        network = SimulatedNetwork(sim=sim, adjacency=complete_topology(3))
        assert isinstance(network, Transport)

    def test_simulator_satisfies_clock(self):
        assert isinstance(Simulator(seed=0), Clock)

    def test_live_backend_satisfies_transport(self):
        async def check() -> tuple[bool, bool]:
            manifest = localhost_manifest(ports=[20001, 20002])
            clock = LiveClock(seed=0)
            transport = TcpGossipTransport(
                manifest=manifest, node_id=0, clock=clock
            )
            return isinstance(transport, Transport), isinstance(clock, Clock)

        is_transport, is_clock = asyncio.run(check())
        assert is_transport
        assert is_clock


class TestNetworkStatsSerde:
    """Regression: defaultdict counters used to poison JSON round-trips.

    Merely *reading* an absent key of a ``defaultdict`` materializes a zero
    entry, so two observably identical stats objects could serialize to
    different dicts (and a round-trip could gain keys).  The codec
    (``repro.serde.to_json``) leaves the zeros out and ``__eq__`` compares
    the written forms.
    """

    def _stats(self) -> NetworkStats:
        stats = NetworkStats()
        stats.record_send("block", 700)
        stats.record_send("tx", 512)
        stats.record_drop("offline")
        stats.messages_delivered = 2
        return stats

    def test_round_trip_exact(self):
        stats = self._stats()
        assert from_json(NetworkStats, to_json(stats)) == stats

    def test_round_trip_through_json_text(self):
        stats = self._stats()
        restored = from_json(NetworkStats, json.loads(json.dumps(to_json(stats))))
        assert restored == stats

    def test_materialized_zero_entries_do_not_leak(self):
        stats = self._stats()
        # A read of an absent kind materializes bytes_by_kind["pbft/vote"]=0.
        assert stats.bytes_by_kind["pbft/vote"] == 0
        record = to_json(stats)
        assert "pbft/vote" not in record["bytes_by_kind"]
        assert from_json(NetworkStats, record) == stats

    def test_equality_ignores_materialized_zeros(self):
        a, b = self._stats(), self._stats()
        assert a.drops_by_reason["partition"] == 0  # materialize on one side
        assert a == b
        b.record_drop("partition")
        assert a != b

    def test_counters_stay_incrementable_after_from_dict(self):
        restored = from_json(NetworkStats, to_json(self._stats()))
        restored.record_drop("filtered")  # defaultdict behavior preserved
        assert restored.drops_by_reason["filtered"] == 1
