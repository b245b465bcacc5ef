"""One typed JSON codec, derived from the dataclass declarations.

Everything this repo writes as JSON and reads back — an ``ExperimentConfig``
on its way to an engine worker, the ``RunResult`` coming back or resting in
the ``ResultCache``, the fault plan inside a cache key, a consortium
manifest, a node's traffic counters — goes through :func:`to_json` and
:func:`from_json`.  Neither names any type's fields: the writer walks
``dataclasses.fields`` and the reader the resolved type hints, so a field is
on the wire the moment it is declared and there is no second list that can
forget it (a forgotten field used to reset to its default on every replay).

The format (``docs/engine.md`` has the table):

* a dataclass is an object keyed by field name, in declaration order; a
  field declared with ``metadata=NOT_ON_WIRE`` is skipped and comes back as
  its default;
* a dataclass that declares a ``kind`` class attribute writes it last, as
  its tag, and a union of dataclasses is read by that tag — the union's
  members are the registry;
* tuples and lists are arrays (read back by the hint: ``tuple[X, ...]``,
  fixed ``tuple[A, B]``, ``list[X]``); ``bytes`` is a hex string;
  ``X | None`` is ``null`` or ``X``;
* a mapping is written with sorted keys, and an entry whose value is the
  integer zero is left out — reading an absent key of a ``defaultdict``
  counter materialises a zero, which must not change what is written; it is
  read back into the field's own default container, so restored counters
  still count;
* a slot typed ``Any`` is written as found and reads arrays back as tuples.

Records arrive from disk and from other processes, so the reader trusts
nothing: an unknown key, a missing one (the writer leaves none out), an
unknown or missing ``kind``, a wrong arity, non-hex bytes or a value of the
wrong JSON type raises
:class:`~repro.errors.SimulationError` naming the type and field, and no
half-filled object is ever built.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Mapping
from functools import cache
from typing import Any, TypeVar

from repro.errors import SimulationError

T = TypeVar("T")

#: ``field(default=None, metadata=NOT_ON_WIRE)``: a live in-process handle
#: that never crosses a process or cache boundary.
NOT_ON_WIRE: Mapping[str, bool] = types.MappingProxyType({"wire": False})

_SCALARS: dict[Any, tuple[type, ...]] = {
    int: (int,), float: (int, float), str: (str,), bool: (bool,)
}


@cache
def _schema(cls: Any) -> tuple[dict[str, tuple[Any, dataclasses.Field[Any]]], str | None]:
    """``cls``'s wire fields (name → resolved hint, field) and its ``kind`` tag."""
    hints = typing.get_type_hints(cls)
    declared = dataclasses.fields(cls)
    wire = {f.name: (hints[f.name], f) for f in declared if f.metadata.get("wire", True)}
    tagged = all(f.name != "kind" for f in declared)
    return wire, getattr(cls, "kind", None) if tagged else None


def to_json(value: Any) -> Any:
    """The JSON-safe form of ``value`` (see the module docstring)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        wire, tag = _schema(type(value))
        record = {name: to_json(getattr(value, name)) for name in wire}
        if tag is not None:
            record["kind"] = tag
        return record
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {
            key: to_json(value[key])
            for key in sorted(value)
            if type(value[key]) is not int or value[key] != 0
        }
    return value.hex() if isinstance(value, bytes) else value


def from_json(cls: type[T], data: Any) -> T:
    """Rebuild a ``cls`` from :func:`to_json` output, refusing anything else."""
    return _read(cls, data, getattr(cls, "__name__", str(cls)))


def _need(kind: type, data: Any, where: str) -> Any:
    if not isinstance(data, kind):
        raise SimulationError(
            f"{where}: expected a JSON {kind.__name__}, got {type(data).__name__}"
        )
    return data


def _read(hint: Any, data: Any, where: str) -> Any:
    if hint is Any:
        return _untyped(data)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        members = [arg for arg in args if arg is not type(None)]
        if data is None and len(members) < len(args):
            return None
        if len(members) == 1:
            return _read(members[0], data, where)
        by_kind = {
            _schema(member)[1]: member for member in members if dataclasses.is_dataclass(member)
        }
        kind = _need(dict, data, where).get("kind")
        if kind is None or kind not in by_kind:
            raise SimulationError(
                f"{where}: kind {kind!r} is not one of {sorted(map(str, by_kind))}"
            )
        return _read(by_kind[kind], data, where)
    if origin is typing.Literal:
        if data not in args:
            raise SimulationError(f"{where}: {data!r} is not one of {list(args)}")
        return data
    if origin in (tuple, list):
        items = _need(list, data, where)
        hints = args
        if origin is list or args[1:] == (Ellipsis,):
            hints = args[:1] * len(items)
        elif len(args) != len(items):
            raise SimulationError(f"{where}: expected {len(args)} items, got {len(items)}")
        pairs = enumerate(zip(hints, items, strict=True))
        return origin(_read(h, item, f"{where}[{i}]") for i, (h, item) in pairs)
    if origin is dict:
        entries = _need(dict, data, where)
        return {key: _read(args[1], entries[key], f"{where}[{key!r}]") for key in entries}
    if hint is bytes:
        try:
            return bytes.fromhex(_need(str, data, where))
        except ValueError:
            raise SimulationError(f"{where}: {data!r} is not hex") from None
    if dataclasses.is_dataclass(hint):
        return _read_dataclass(hint, data, where)
    if hint not in _SCALARS:
        raise SimulationError(f"{where}: no JSON form for {hint!r}")
    if not isinstance(data, _SCALARS[hint]):
        raise SimulationError(f"{where}: expected {hint.__name__}, got {data!r}")
    return data


def _read_dataclass(cls: Any, data: Any, where: str) -> Any:
    wire, tag = _schema(cls)
    given = dict(_need(dict, data, where))
    if tag is not None and given.pop("kind", None) != tag:
        raise SimulationError(f"{where}: {cls.__name__} needs kind {tag!r}")
    if set(given) != set(wire):
        raise SimulationError(
            f"{where}: not the fields of {cls.__name__}: unknown "
            f"{sorted(set(given) - set(wire))}, missing {sorted(set(wire) - set(given))}"
        )
    values: dict[str, Any] = {}
    for name, (hint, field) in wire.items():
        value = values[name] = _read(hint, given[name], f"{where}.{name}")
        if isinstance(value, dict) and field.default_factory is not dataclasses.MISSING:
            values[name] = field.default_factory()
            values[name].update(value)
    return cls(**values)


def _untyped(data: Any) -> Any:
    return tuple(_untyped(item) for item in data) if isinstance(data, list) else data
