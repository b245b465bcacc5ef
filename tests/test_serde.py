"""Tests for :mod:`repro.serde`, the codec derived from dataclass declarations.

Three claims, each executable:

* **round trip** — ``from_json(T, json.loads(json.dumps(to_json(x)))) == x``
  for every type that crosses a process or disk boundary, over generated
  values (Hypothesis);
* **by construction** — a dataclass that gains a field and a union that gains
  a member round-trip with no edit anywhere else: there is no second list of
  fields to forget (the property a lint rule used to check statically);
* **hostile input** — records arrive from disk and from other processes, and
  anything that is not exactly what :func:`to_json` writes raises
  ``SimulationError`` before an object exists.

The byte-level pins (what the cache keys, the spine's input digest and the
manifest file look like) live with the other goldens in
``tests/test_transport_parity.py``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import ClassVar, get_args

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.faults import (
    ClockSkewFault,
    CrashFault,
    FaultEvent,
    FaultSpec,
    LinkFault,
    PartitionFault,
)
from repro.chaos.schedule import FaultPlan
from repro.errors import NetworkError, SimulationError
from repro.live.manifest import ConsortiumManifest, PeerSpec
from repro.net.transport import NetworkStats
from repro.serde import NOT_ON_WIRE, from_json, to_json
from repro.sim.cache import ResultCache
from repro.sim.runner import ExperimentConfig, RunResult, run_experiment


def through_json(cls, value):
    """``value`` written, sent as JSON text, and read back as a ``cls``."""
    return from_json(cls, json.loads(json.dumps(to_json(value))))


# -- strategies ------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
times = st.floats(min_value=0.0, max_value=1e6)
node_ids = st.integers(min_value=0, max_value=63)
unit = st.floats(min_value=0.0, max_value=1.0)


def windows(draw) -> tuple[float, float | None]:
    """A start time and an end that is either absent or strictly later."""
    at = draw(times)
    length = draw(st.none() | st.floats(min_value=1e-3, max_value=1e6))
    return at, None if length is None else at + length


@st.composite
def crash_faults(draw) -> CrashFault:
    at, restart_at = windows(draw)
    return CrashFault(node=draw(node_ids), at=at, restart_at=restart_at)


@st.composite
def partition_faults(draw) -> PartitionFault:
    nodes = draw(st.lists(node_ids, min_size=2, max_size=12, unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, len(nodes) - 1), min_size=1, max_size=3)))
    groups = tuple(
        tuple(nodes[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, len(nodes)], strict=True)
    )
    at, heal_at = windows(draw)
    return PartitionFault(groups=groups, at=at, heal_at=heal_at)


@st.composite
def link_faults(draw) -> LinkFault:
    at, until = windows(draw)
    return LinkFault(
        at=at,
        until=until,
        nodes=draw(st.none() | st.lists(node_ids, max_size=6).map(tuple)),
        loss=draw(unit),
        duplicate=draw(unit),
        reorder_jitter=draw(st.floats(min_value=0.0, max_value=10.0)),
        bandwidth_factor=draw(st.floats(min_value=1.0, max_value=8.0)),
    )


@st.composite
def clock_skew_faults(draw) -> ClockSkewFault:
    at, until = windows(draw)
    return ClockSkewFault(node=draw(node_ids), skew=draw(finite), at=at, until=until)


def _exclusive_target(fault: FaultSpec) -> object:
    """One partition, and one crash and one skew per node, keep every plan
    valid: windows on one target must not overlap.  Link faults compose."""
    return fault if isinstance(fault, LinkFault) else (fault.kind, getattr(fault, "node", None))


fault_plans = st.lists(
    crash_faults() | partition_faults() | link_faults() | clock_skew_faults(),
    max_size=6,
    unique_by=_exclusive_target,
).map(lambda faults: FaultPlan(faults=tuple(faults)))

experiment_configs = st.builds(
    ExperimentConfig,
    algorithm=st.sampled_from(["themis", "themis-lite", "pow-h", "pbft"]),
    n=st.integers(2, 200),
    seed=st.integers(0, 2**31),
    beta=st.floats(min_value=0.5, max_value=32.0),
    power=st.sampled_from(["pools", "uniform"]),
    target_height=st.none() | st.integers(1, 10_000),
    liveness_window=st.none() | st.floats(min_value=1.0, max_value=1e5),
    fault_plan=st.none() | fault_plans,
)

detail_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)
fault_events = st.builds(
    FaultEvent,
    time=times,
    action=st.text(max_size=12),
    detail=st.lists(st.tuples(st.text(max_size=8), detail_values), max_size=5).map(tuple),
)


@st.composite
def manifests(draw) -> ConsortiumManifest:
    ports = draw(st.lists(st.integers(1, 65535), min_size=2, max_size=6))
    return ConsortiumManifest(
        peers=tuple(
            PeerSpec(node_id=i, host=draw(st.text(max_size=12)), port=port)
            for i, port in enumerate(ports)
        ),
        seed=draw(st.integers(0, 2**31)),
        degree=draw(st.integers(1, 12)),
        i0=draw(st.floats(min_value=1e-3, max_value=60.0)),
        beta=draw(st.floats(min_value=0.5, max_value=32.0)),
        key_prefix=draw(st.text(max_size=8)),
        sign_blocks=draw(st.booleans()),
        verify_signatures=draw(st.booleans()),
    )


counter_ops = st.lists(
    st.tuples(
        st.sampled_from(["send", "drop", "read"]),
        st.sampled_from(["block", "tx", "sync/blocks_req", "offline", "loss"]),
        st.integers(0, 4096),
    ),
    max_size=30,
)


class TestRoundTrip:
    @settings(deadline=None)
    @given(fault_plans)
    def test_fault_plans(self, plan):
        assert through_json(FaultPlan, plan) == plan

    @settings(deadline=None)
    @given(experiment_configs)
    def test_experiment_configs(self, cfg):
        restored = through_json(ExperimentConfig, cfg)
        assert restored == cfg
        assert hash(restored) == hash(cfg)  # the engine dedups and memoises by config

    @settings(deadline=None)
    @given(fault_events)
    def test_fault_events_with_nested_tuple_details(self, event):
        assert through_json(FaultEvent, event) == event

    @settings(deadline=None)
    @given(manifests())
    def test_manifests(self, manifest):
        assert through_json(ConsortiumManifest, manifest) == manifest

    @settings(deadline=None)
    @given(counter_ops)
    def test_network_stats_after_spurious_reads(self, ops):
        stats = NetworkStats()
        for op, name, size in ops:
            if op == "send":
                stats.record_send(name, size)
            elif op == "drop":
                stats.record_drop(name)
            else:
                assert stats.bytes_by_kind[name] >= 0  # may materialise a zero entry
        record = to_json(stats)
        assert all(count != 0 for count in record["bytes_by_kind"].values())
        assert list(record["messages_by_kind"]) == sorted(record["messages_by_kind"])
        restored = through_json(NetworkStats, stats)
        assert restored == stats
        assert isinstance(restored.drops_by_reason, defaultdict)
        restored.record_drop("never-seen-before")  # restored counters still count
        restored.record_send("never-seen-before", 1)
        assert restored != stats

    def test_a_faulted_run_result(self):
        plan = FaultPlan(
            faults=(
                CrashFault(node=3, at=20.0, restart_at=60.0),
                PartitionFault(groups=((0, 1, 2, 3, 4), (5, 6, 7)), at=30.0, heal_at=50.0),
                LinkFault(at=10.0, until=40.0, nodes=(1, 2), loss=0.1, duplicate=0.05),
            )
        )
        result = run_experiment(
            ExperimentConfig(algorithm="themis", n=8, epochs=2, seed=1, fault_plan=plan)
        )
        assert result.observer is not None and result.fault_log and result.chaos
        restored = through_json(RunResult, result)
        assert restored.observer is None and restored.pbft is None
        for name in RunResult.__dataclass_fields__:
            if name not in ("observer", "pbft"):
                assert getattr(restored, name) == getattr(result, name), name


# -- by construction -------------------------------------------------------------------
#
# ``DrawingV2`` is ``DrawingV1`` after an ordinary change: one more union member,
# three more fields (a nested container, an optional, a live handle).  Nothing
# outside the declarations below knows either exists.


@dataclass(frozen=True)
class Circle:
    kind: ClassVar[str] = "circle"
    radius: float


@dataclass(frozen=True)
class Square:
    kind: ClassVar[str] = "square"
    side: float


@dataclass(frozen=True)
class Triangle:
    kind: ClassVar[str] = "triangle"
    sides: tuple[float, float, float]


@dataclass(frozen=True)
class DrawingV1:
    shapes: tuple[Circle | Square, ...]
    title: str = ""


@dataclass
class DrawingV2:
    shapes: tuple[Circle | Square | Triangle, ...]
    title: str = ""
    layers: dict[str, list[bytes]] = field(default_factory=dict)
    author: str | None = None
    canvas: object | None = field(default=None, metadata=NOT_ON_WIRE)


class TestByConstruction:
    def test_a_declared_type_round_trips_with_no_serde_edit(self):
        drawing = DrawingV1(shapes=(Circle(1.5), Square(2.0), Circle(0.25)), title="v1")
        assert through_json(DrawingV1, drawing) == drawing

    def test_an_added_field_and_an_added_union_member_round_trip_too(self):
        drawing = DrawingV2(
            shapes=(Triangle((3.0, 4.0, 5.0)), Circle(1.0)),
            layers={"ink": [b"\x00\xff", b""], "wash": []},
            author="anon",
            canvas=object(),
        )
        record = to_json(drawing)
        assert list(record) == ["shapes", "title", "layers", "author"]  # declaration order
        assert list(record["shapes"][0]) == ["sides", "kind"]  # the tag goes last
        assert record["layers"]["ink"] == ["00ff", ""]
        restored = through_json(DrawingV2, drawing)
        assert restored.canvas is None  # not on the wire: back as its default
        restored.canvas = drawing.canvas
        assert restored == drawing

    def test_a_v1_reader_refuses_what_only_v2_declares(self):
        record = to_json(DrawingV2(shapes=(Triangle((1.0, 1.0, 1.0)),)))
        with pytest.raises(SimulationError, match="layers"):
            from_json(DrawingV1, record)
        with pytest.raises(SimulationError, match="triangle"):
            from_json(DrawingV1, {"shapes": record["shapes"], "title": ""})

    def test_fault_spec_members_are_their_own_registry(self):
        kinds = [member.kind for member in get_args(FaultSpec)]
        assert len(set(kinds)) == len(kinds) == 4


# -- hostile input ---------------------------------------------------------------------

_PLAN = FaultPlan(faults=(CrashFault(node=1, at=5.0), LinkFault(at=1.0, nodes=(0, 2))))
_EVENT = FaultEvent(time=1.0, action="crash", detail=(("node", 3),))


def _edited(record, path, value=None, *, delete=False):
    """A deep copy of ``record`` with the slot at ``path`` replaced or removed."""
    record = json.loads(json.dumps(record))
    slot = record
    for step in path[:-1]:
        slot = slot[step]
    if delete:
        del slot[path[-1]]
    else:
        slot[path[-1]] = value
    return record


HOSTILE = {
    "unknown key": (ExperimentConfig, _edited(to_json(ExperimentConfig()), ["warp"], 9)),
    "unknown key, nested": (FaultPlan, _edited(to_json(_PLAN), ["faults", 0, "until"], 3.0)),
    "unknown kind": (FaultPlan, _edited(to_json(_PLAN), ["faults", 0, "kind"], "meteor")),
    "missing kind": (FaultPlan, _edited(to_json(_PLAN), ["faults", 1, "kind"], delete=True)),
    "kind of another member": (
        FaultPlan,
        _edited(to_json(_PLAN), ["faults", 0, "kind"], "clock_skew"),
    ),
    "wrong kind, read directly": (CrashFault, {"node": 1, "at": 5.0, "kind": "link"}),
    "wrong arity": (FaultEvent, _edited(to_json(_EVENT), ["detail", 0], ["node", 3, "extra"])),
    "non-hex bytes": (DrawingV2, {"shapes": [], "layers": {"ink": ["zz"]}}),
    "list where an object is expected": (ExperimentConfig, ["themis", 40]),
    "list where a nested object is expected": (
        ExperimentConfig,
        _edited(to_json(ExperimentConfig()), ["fault_plan"], [to_json(_PLAN)]),
    ),
    "object where a list is expected": (FaultPlan, {"faults": {"0": {}}}),
    "missing field": (CrashFault, {"at": 5.0, "restart_at": None, "kind": "crash"}),
    "missing field that has a default": (CrashFault, {"node": 1, "at": 5.0, "kind": "crash"}),
    "wrong scalar type": (ExperimentConfig, _edited(to_json(ExperimentConfig()), ["n"], "40")),
    "value outside a Literal": (
        ExperimentConfig,
        _edited(to_json(ExperimentConfig()), ["algorithm"], "raft"),
    ),
    "null where none is allowed": (ExperimentConfig, _edited(to_json(ExperimentConfig()), ["n"])),
}


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_refused_with_the_type_named(self, case):
        cls, record = HOSTILE[case]
        with pytest.raises(SimulationError, match=cls.__name__):
            from_json(cls, record)

    def test_no_half_filled_object_is_ever_built(self):
        built = []

        @dataclass
        class Probe:
            a: int
            b: bytes
            c: int = 0

            def __post_init__(self) -> None:
                built.append(self)

        good = {"a": 1, "b": "00", "c": 2}
        for record in (good | {"b": "zz"}, {"a": 1, "b": "00"}, good | {"d": 3}, [1, "00", 2]):
            with pytest.raises(SimulationError):
                from_json(Probe, record)
        assert built == []
        assert from_json(Probe, good) == Probe(1, b"\x00", 2)

    def test_a_fault_the_spec_itself_rejects_is_refused(self):
        record = _edited(to_json(_PLAN), ["faults", 0, "restart_at"], 1.0)  # before the crash
        with pytest.raises(SimulationError, match="restart"):
            from_json(FaultPlan, record)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry: entry["result"].update(warp=9),
            lambda entry: entry["result"].update(members=["zz"]),
            lambda entry: entry["result"]["config"].pop("algorithm"),
            lambda entry: entry["result"]["network"].update(bytes_by_kind=[1, 2]),
            lambda entry: entry.update(result=[]),
        ],
        ids=["unknown-key", "non-hex", "missing-field", "list-for-object", "not-a-record"],
    )
    def test_a_cache_entry_the_codec_refuses_is_a_counted_miss(self, tmp_path, damage):
        cfg = ExperimentConfig(algorithm="pbft", n=4, pbft_rounds=3, seed=1)
        cache = ResultCache(tmp_path, code_version="v1")
        path = cache.put(cfg, run_experiment(cfg))
        assert cache.get(cfg) is not None
        entry = json.loads(path.read_text())
        damage(entry)
        path.write_text(json.dumps(entry))
        assert cache.get(cfg) is None
        assert (cache.stats.hits, cache.stats.misses, cache.stats.invalid) == (1, 1, 1)
        assert not path.exists()

    def test_a_manifest_the_codec_refuses_is_a_network_error(self, tmp_path):
        good = ConsortiumManifest(
            peers=(PeerSpec(node_id=0, host="h", port=1), PeerSpec(node_id=1, host="h", port=2))
        )
        path = tmp_path / "manifest.json"
        good.save(path)
        assert ConsortiumManifest.load(path) == good
        for damaged in (
            _edited(to_json(good), ["seed"], delete=True),
            _edited(to_json(good), ["bootstrap"], "10.0.0.1"),
            _edited(to_json(good), ["peers", 0, "port"], "22"),
        ):
            path.write_text(json.dumps(damaged))
            with pytest.raises(NetworkError, match="cannot load manifest"):
                ConsortiumManifest.load(path)

