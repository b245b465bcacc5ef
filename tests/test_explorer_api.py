"""Tests for the block-explorer read tier (repro.explorer)."""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tests.conftest import TreeBuilder, keypair
from repro.chain.block import Block
from repro.explorer.cache import ResponseCache, make_etag
from repro.explorer.http import start_explorer
from repro.explorer.service import (
    BadRequestError,
    NotFoundError,
    blocks_page,
    equality_metrics,
    route,
)
from repro.storage.sqlite import SqliteStorage

MEMBERS = 3


@pytest.fixture()
def built(genesis: Block) -> TreeBuilder:
    builder = TreeBuilder(genesis)
    builder.chain(genesis, [0, 1, 2, 0, 1, 2])
    return builder


@pytest.fixture()
def storage(tmp_path: Path, built: TreeBuilder) -> Iterator[SqliteStorage]:
    tree = built.tree
    backend = SqliteStorage(tmp_path / "chain.db")
    backend.ensure_genesis(built.genesis)
    backend.set_members([keypair(i).public.fingerprint() for i in range(MEMBERS)])
    head = None
    for block in tree.iter_blocks():
        if block.height > 0:
            backend.record_block(block, tree.arrival_time(block.block_id))
            head = block
    assert head is not None
    backend.commit(head.block_id, tree)
    yield backend
    backend.close()


class TestResponseCache:
    def test_lru_eviction(self) -> None:
        cache = ResponseCache(capacity=2)
        cache.put(1, "/a", b"a", make_etag(b"a"))
        cache.put(1, "/b", b"b", make_etag(b"b"))
        assert cache.get(1, "/a") is not None  # refresh /a
        cache.put(1, "/c", b"c", make_etag(b"c"))
        assert cache.get(1, "/b") is None  # LRU victim
        assert cache.get(1, "/a") is not None
        assert cache.get(1, "/c") is not None

    def test_generation_bump_invalidates(self) -> None:
        cache = ResponseCache(capacity=8)
        cache.put(1, "/head", b"old", make_etag(b"old"))
        assert cache.get(2, "/head") is None
        cache.put(2, "/head", b"new", make_etag(b"new"))
        # Stale-generation entries are swept on insert.
        assert len(cache) == 1

    def test_etag_is_content_addressed(self) -> None:
        assert make_etag(b"x") == make_etag(b"x")
        assert make_etag(b"x") != make_etag(b"y")
        assert make_etag(b"x").startswith('"')


class TestServiceRouting:
    def test_head_schema(self, storage: SqliteStorage) -> None:
        payload = route(storage, "/chain/head", {})
        head = payload["head"]
        assert head["height"] == 6
        assert head["canonical"] is True
        assert set(head) >= {
            "block_id",
            "parent_id",
            "height",
            "epoch",
            "producer",
            "timestamp",
            "arrival_time",
            "tx_count",
            "tx_ids",
        }
        assert payload["generation"] == storage.generation()

    def test_blocks_page_schema_and_pagination(self, storage: SqliteStorage) -> None:
        page = blocks_page(storage, {"limit": "3"})
        assert [b["height"] for b in page["blocks"]] == [6, 5, 4]
        assert page["count"] == 3
        assert page["next_start"] == 3
        tail = blocks_page(storage, {"start": str(page["next_start"])})
        assert [b["height"] for b in tail["blocks"]] == [3, 2, 1, 0]
        assert tail["next_start"] is None

    def test_block_by_height_and_id_agree(self, storage: SqliteStorage) -> None:
        by_height = route(storage, "/blocks/2", {})
        by_id = route(storage, f"/blocks/{by_height['block_id']}", {})
        assert by_id == by_height

    def test_equality_metrics_counts_silent_members(
        self, tmp_path: Path, genesis: Block
    ) -> None:
        builder = TreeBuilder(genesis)
        builder.chain(genesis, [0, 0, 0])  # node 0 produces everything
        backend = SqliteStorage(tmp_path / "solo.db")
        backend.ensure_genesis(genesis)
        backend.set_members(
            [keypair(i).public.fingerprint() for i in range(MEMBERS)]
        )
        tree = builder.tree
        head = None
        for block in tree.iter_blocks():
            if block.height > 0:
                backend.record_block(block, tree.arrival_time(block.block_id))
                head = block
        backend.commit(head.block_id, tree)
        payload = equality_metrics(backend)
        assert payload["members"] == MEMBERS
        assert payload["total_blocks"] == 3
        produced = {m["address"]: m["blocks"] for m in payload["per_member"]}
        assert sorted(produced.values()) == [0, 0, 3]
        # One producer hoarding every block is maximal inequality (> 0).
        assert payload["variance_of_frequency"] > 0
        backend.close()

    def test_not_found_and_bad_request(self, storage: SqliteStorage) -> None:
        with pytest.raises(NotFoundError):
            route(storage, "/blocks/999", {})
        with pytest.raises(NotFoundError):
            route(storage, "/txs/" + "00" * 32, {})
        with pytest.raises(NotFoundError):
            route(storage, "/definitely/not/an/endpoint", {})
        with pytest.raises(BadRequestError):
            route(storage, "/blocks/nothex", {})
        with pytest.raises(BadRequestError):
            route(storage, "/txs/abcd", {})  # wrong length
        with pytest.raises(BadRequestError):
            blocks_page(storage, {"limit": "0"})
        with pytest.raises(BadRequestError):
            blocks_page(storage, {"start": "-3"})

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        prefix=st.sampled_from(["/blocks/", "/txs/", "/accounts/", "/"]),
        ref=st.one_of(
            st.text(),
            st.text(st.characters(categories=("Nd", "No")), min_size=1),
            st.text("0123456789", min_size=1, max_size=6000),
        ),
        query=st.dictionaries(
            st.sampled_from(["start", "limit"]),
            st.one_of(st.text(), st.integers().map(str), st.text("0123456789", min_size=1)),
        ),
    )
    @example(prefix="/blocks/", ref="²", query={})
    @example(prefix="/blocks/", ref="1" * 30, query={})
    @example(prefix="/blocks/", ref="9" * 5000, query={})
    @example(prefix="/blocks", ref="", query={"start": "1" * 30, "limit": "7" * 5000})
    def test_any_reference_is_found_or_refused(
        self, storage: SqliteStorage, prefix: str, ref: str, query: dict[str, str]
    ) -> None:
        """A hostile path or query is a 404 or a 400, never a 500: at the
        parent commit ``²`` passed ``isdigit`` and failed ``int``, and a
        30-digit height overflowed sqlite's INTEGER."""
        try:
            route(storage, prefix + ref, query)
        except (NotFoundError, BadRequestError):
            pass

    def test_heights_above_the_tip_are_not_found(self, storage: SqliteStorage) -> None:
        assert route(storage, "/blocks/0002", {}) == route(storage, "/blocks/2", {})
        for ref in ("7", str(2**63 - 1), str(2**63), "1" * 30, "0" * 30 + "1" * 30):
            with pytest.raises(NotFoundError):
                route(storage, f"/blocks/{ref}", {})


def http_get(
    base: str, path: str, headers: dict[str, str] | None = None
) -> tuple[int, dict[str, str], bytes]:
    request = urllib.request.Request(base + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestHttpServer:
    @pytest.fixture()
    def explorer(self, storage: SqliteStorage) -> Iterator[str]:
        server, thread = start_explorer(storage)
        host, port = server.server_address[0], server.server_address[1]
        yield f"http://{host}:{port}"
        server.shutdown()
        thread.join()
        server.server_close()

    def test_endpoints_serve_json(self, explorer: str) -> None:
        status, headers, body = http_get(explorer, "/chain/head")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["head"]["height"] == 6
        status, _, body = http_get(explorer, "/blocks?limit=2")
        assert status == 200
        assert json.loads(body)["count"] == 2
        status, _, body = http_get(explorer, "/metrics/equality")
        assert status == 200
        assert json.loads(body)["members"] == MEMBERS

    def test_404_is_json(self, explorer: str) -> None:
        status, headers, body = http_get(explorer, "/blocks/999")
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        assert "error" in json.loads(body)
        status, _, _ = http_get(explorer, "/unknown")
        assert status == 404

    def test_400_on_malformed_reference(self, explorer: str) -> None:
        status, _, body = http_get(explorer, "/accounts/nothex")
        assert status == 400
        assert "hex" in json.loads(body)["error"]

    def test_etag_roundtrip_304(self, explorer: str) -> None:
        status, headers, body = http_get(explorer, "/chain/head")
        assert status == 200
        etag = headers["ETag"]
        assert etag == make_etag(body)
        status, headers, body = http_get(
            explorer, "/chain/head", {"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_kept_alive_connection_is_not_ack_delayed(self, explorer: str) -> None:
        """50 GETs on one connection: each response must be one TCP write.

        With headers and body in separate writes the second waits ~43 ms for
        the client's delayed ACK — 2.2 s for this loop, 26 req/s.
        """
        host, port = explorer.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port))
        etag = None
        statuses = []
        begin = time.perf_counter()
        try:
            for index in range(50):
                path = "/blocks/999" if index == 20 else "/chain/head"
                headers = {"If-None-Match": etag} if index == 10 and etag else {}
                connection.request("GET", path, headers=headers)
                response = connection.getresponse()
                body = response.read()
                statuses.append(response.status)
                if response.status == 304:
                    assert body == b""
                    continue
                parsed = json.loads(body)
                assert ("error" in parsed) == (response.status != 200)
                etag = response.getheader("ETag") or etag
        finally:
            connection.close()
        elapsed = time.perf_counter() - begin
        assert statuses.count(200) == 48
        assert statuses[10] == 304 and statuses[20] == 404
        assert elapsed < 1.0

    def test_commit_invalidates_cached_responses(
        self, explorer: str, storage: SqliteStorage, built: TreeBuilder
    ) -> None:
        status, headers, _ = http_get(explorer, "/chain/head")
        assert status == 200
        etag = headers["ETag"]
        # Extend the chain by one block and commit: the generation bumps.
        tree = built.tree
        head = max(tree.iter_blocks(), key=lambda b: b.height)
        new_block = built.extend(head, 0)
        storage.record_block(new_block, tree.arrival_time(new_block.block_id))
        storage.commit(new_block.block_id, tree)
        status, headers, body = http_get(
            explorer, "/chain/head", {"If-None-Match": etag}
        )
        assert status == 200  # stale ETag no longer matches
        assert headers["ETag"] != etag
        assert json.loads(body)["head"]["height"] == 7
