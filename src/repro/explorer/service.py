"""Explorer endpoint logic: request paths → JSON-ready payloads.

Pure functions over a :class:`~repro.storage.sqlite.SqliteStorage`, kept
free of HTTP so the API surface is testable without sockets
and reusable behind any transport.  The HTTP layer
(:mod:`repro.explorer.http`) only routes, caches and serializes.

Endpoints (all JSON):

========================  ====================================================
``/chain/head``           the stored main-chain tip
``/blocks``               main-chain page, ``?start=<height>&limit=<n>``
``/blocks/<id|height>``   one block by hex id or decimal height
``/txs/<id>``             one transaction by hex id
``/accounts/<addr>``      sent/received/produced summary for an address
``/metrics/equality``     the paper's σ_f² over the consortium member set
========================  ====================================================
"""

from __future__ import annotations

from typing import Any

from repro.core.equality import variance_of_frequency
from repro.errors import ReproError
from repro.storage.sqlite import SqliteStorage

#: Page-size bounds for ``/blocks``.
DEFAULT_PAGE_LIMIT = 20
MAX_PAGE_LIMIT = 100

#: Recent-transaction bound for ``/accounts/<addr>``.
ACCOUNT_TX_LIMIT = 50


class NotFoundError(ReproError):
    """Raised when a requested chain object does not exist (HTTP 404)."""


class BadRequestError(ReproError):
    """Raised when a request path or query is malformed (HTTP 400)."""


def _parse_hex(value: str, *, what: str, length: int | None = None) -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError as exc:
        raise BadRequestError(f"{what} must be hex, got {value!r}") from exc
    if length is not None and len(raw) != length:
        raise BadRequestError(f"{what} must be {length} bytes, got {len(raw)}")
    return raw


def _parse_height(value: str, *, what: str) -> int:
    """An ASCII decimal (``isdigit`` takes ``²``), capped at sqlite's INTEGER
    maximum (past any tip) before ``int`` meets its digit limit."""
    if not (value.isascii() and value.isdigit()):
        raise BadRequestError(f"{what} must be a non-negative integer, got {value!r}")
    return min(int(value.lstrip("0")[:20] or "0"), 2**63 - 1)


def chain_head(reader: SqliteStorage) -> dict[str, Any]:
    head = reader.head()
    if head is None:
        raise NotFoundError("chain is empty: no head committed yet")
    return {"head": head, "generation": reader.generation()}


def blocks_page(reader: SqliteStorage, query: dict[str, str]) -> dict[str, Any]:
    start = _parse_height(query["start"], what="start") if "start" in query else None
    limit = _parse_height(query.get("limit", str(DEFAULT_PAGE_LIMIT)), what="limit")
    if not 1 <= limit <= MAX_PAGE_LIMIT:
        raise BadRequestError(f"limit must be in [1, {MAX_PAGE_LIMIT}]")
    blocks = reader.blocks_page(start, limit)
    next_start = None
    if blocks and blocks[-1]["height"] > 0:
        next_start = blocks[-1]["height"] - 1
    return {"blocks": blocks, "count": len(blocks), "next_start": next_start}


def block_detail(reader: SqliteStorage, ref: str) -> dict[str, Any]:
    """One block by decimal height or 32-byte hex id."""
    if ref.isascii() and ref.isdigit():
        record = reader.block_by_height(_parse_height(ref, what="height"))
        if record is None:
            raise NotFoundError(f"no main-chain block at height {ref}")
        return record
    block_id = _parse_hex(ref, what="block id", length=32)
    record = reader.block_by_id(block_id)
    if record is None:
        raise NotFoundError(f"unknown block {ref}")
    return record


def tx_detail(reader: SqliteStorage, ref: str) -> dict[str, Any]:
    tx_id = _parse_hex(ref, what="transaction id", length=32)
    record = reader.tx_by_id(tx_id)
    if record is None:
        raise NotFoundError(f"unknown transaction {ref}")
    return record


def account_detail(reader: SqliteStorage, ref: str) -> dict[str, Any]:
    address = _parse_hex(ref, what="account address", length=20)
    record = reader.account_summary(address, ACCOUNT_TX_LIMIT)
    if record is None:
        raise NotFoundError(f"no activity for account {ref}")
    return record


def equality_metrics(reader: SqliteStorage) -> dict[str, Any]:
    """σ_f² (paper Eq. 1) over the recorded member set.

    Members with zero produced blocks count toward the variance — that
    is the point of the metric.  Falls back to the producers actually
    seen when the store predates :meth:`SqliteStorage.set_members`.
    """
    counts = reader.producer_counts()
    members = reader.members()
    node_ids = members if members else sorted(counts)
    total = sum(counts.values())
    per_member = [
        {"address": node_id.hex(), "blocks": counts.get(node_id, 0)}
        for node_id in node_ids
    ]
    payload: dict[str, Any] = {
        "members": len(node_ids),
        "total_blocks": total,
        "per_member": per_member,
    }
    if node_ids and total > 0:
        payload["variance_of_frequency"] = variance_of_frequency(counts, node_ids)
    else:
        payload["variance_of_frequency"] = None
    return payload


def route(reader: SqliteStorage, path: str, query: dict[str, str]) -> dict[str, Any]:
    """Dispatch a request path to its endpoint payload.

    Raises :class:`NotFoundError` for unknown paths and missing objects,
    :class:`BadRequestError` for malformed references.
    """
    parts = [part for part in path.split("/") if part]
    if parts == ["chain", "head"]:
        return chain_head(reader)
    if parts == ["blocks"]:
        return blocks_page(reader, query)
    if len(parts) == 2 and parts[0] == "blocks":
        return block_detail(reader, parts[1])
    if len(parts) == 2 and parts[0] == "txs":
        return tx_detail(reader, parts[1])
    if len(parts) == 2 and parts[0] == "accounts":
        return account_detail(reader, parts[1])
    if parts == ["metrics", "equality"]:
        return equality_metrics(reader)
    raise NotFoundError(f"unknown endpoint /{'/'.join(parts)}")
