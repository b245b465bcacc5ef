"""Tests for the explorer's HTTP/1.1 loop (repro.explorer.http): the request
codec without sockets, the keep-alive and close rules over a socket, and a
hostile-bytes property over raw heads."""

from __future__ import annotations

import email.utils
import http.client
import io
import json
import socket
import time
from collections.abc import Iterator
from pathlib import Path
from traceback import format_exc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tests.conftest import TreeBuilder
from repro.chain.genesis import make_genesis
from repro.explorer.cache import ResponseCache, make_etag
from repro.explorer.http import (
    MAX_HEADERS,
    MAX_LINE,
    RequestError,
    read_request,
    render_error,
    render_response,
    start_explorer,
)
from repro.storage.sqlite import SqliteStorage

#: Every status the loop may answer with; 500 means a handler bug.
ALLOWED = {200, 304, 400, 404, 414, 431, 501}


def parse(head: bytes):
    return read_request(io.BytesIO(head).readline)


def refusal(head: bytes) -> int:
    with pytest.raises(RequestError) as caught:
        parse(head)
    return caught.value.status


def short_id(value: object) -> str | None:
    """A parameter id that stays short for a 64 KiB head (else pytest's own)."""
    if isinstance(value, bytes) and len(value) > 60:
        return f"{value[:40]!r}...{len(value)}B"
    return None


class _Recorded(io.BytesIO):
    """Recorded reply bytes that outlive ``http.client``'s close after a body."""

    def close(self) -> None:
        pass

    def makefile(self, mode: str) -> io.BytesIO:
        return self


def replies(data: bytes) -> list[tuple[int, http.client.HTTPMessage, bytes]]:
    """Every reply in a recorded byte stream, parsed by ``http.client``."""
    stream, out = _Recorded(data), []
    while stream.tell() < len(data):
        response = http.client.HTTPResponse(stream)  # type: ignore[arg-type]
        response.begin()
        out.append((response.status, response.headers, response.read()))
    return out


class TestResponseCacheGenerations:
    def test_a_put_at_the_next_generation_leaves_only_that_generation(self) -> None:
        cache = ResponseCache(capacity=8)
        for path in ("/a", "/b", "/c"):
            cache.put(4, path, path.encode(), make_etag(path.encode()))
        assert cache.get(5, "/a") is None  # a newer generation misses
        assert len(cache) == 3  # ... and empties nothing until it puts
        cache.put(5, "/a", b"new", make_etag(b"new"))
        assert len(cache) == 1
        assert cache.get(5, "/a") == (b"new", make_etag(b"new"))
        assert cache.get(4, "/b") is None


class TestReadRequest:
    def test_head_fields(self) -> None:
        request = parse(
            b"GET /blocks?limit=2 HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"ab\"\r\n"
            b"X-Twice: 1\r\nx-twice: 2\r\n\r\nNEXT"
        )
        assert request is not None
        assert request.target == "/blocks?limit=2"
        assert request.headers == {"host": "x", "if-none-match": '"ab"', "x-twice": "1, 2"}
        assert request.close is False

    def test_reads_only_the_head(self) -> None:
        stream = io.BytesIO(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\n\n")
        first, second = read_request(stream.readline), read_request(stream.readline)
        assert first is not None and second is not None
        assert (first.target, second.target) == ("/a", "/b")
        assert read_request(stream.readline) is None

    @pytest.mark.parametrize(
        ("head", "close"),
        [
            (b"GET / HTTP/1.1\r\n\r\n", False),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", True),
            (b"GET / HTTP/1.1\r\nConnection: Upgrade, CLOSE\r\n\r\n", True),
            (b"GET / HTTP/1.0\r\n\r\n", True),
            (b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", False),
            (b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n", False),
            (b"GET / HTTP/1.1\r\nContent-Length: 000\r\n\r\n", False),
            (b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", True),
            (b"GET / HTTP/1.1\r\nContent-Length: " + b"9" * 5_000 + b"\r\n\r\n", True),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", True),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 1\r\n\r\n.", True),
        ],
        ids=short_id,
    )
    def test_when_the_connection_closes(self, head: bytes, close: bool) -> None:
        request = parse(head)
        assert request is not None and request.close is close

    @pytest.mark.parametrize(
        ("head", "status"),
        [
            (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET /\r\n\r\n", 400),  # no HTTP/0.9
            (b"\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 400),
            (b"GET / http/1.1\r\n\r\n", 400),
            (b"GET chain/head HTTP/1.1\r\n\r\n", 400),
            (b"GET http://host/chain/head HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nno colon\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nA: 1\r\n\tfolded: 2\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nName : value\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\n: value\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501),
            (b"HEAD / HTTP/1.1\r\n\r\n", 501),
            (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET / HTTP/1.1\r\nA: " + b"a" * MAX_LINE + b"\r\n\r\n", 431),
            (b"GET / HTTP/1.1\r\n" + b"A: 1\r\n" * (MAX_HEADERS + 1) + b"\r\n", 431),
        ],
        ids=short_id,
    )
    def test_refused_heads(self, head: bytes, status: int) -> None:
        assert refusal(head) == status

    def test_limits_are_inclusive(self) -> None:
        line = b"GET /" + b"a" * (MAX_LINE - len(b"GET / HTTP/1.1\r\n")) + b" HTTP/1.1\r\n"
        assert len(line) == MAX_LINE and parse(line + b"\r\n") is not None
        head = b"GET / HTTP/1.1\r\n" + b"A: 1\r\n" * MAX_HEADERS + b"\r\n"
        request = parse(head)
        assert request is not None and request.headers["a"] == ", ".join(["1"] * MAX_HEADERS)

    @pytest.mark.parametrize(
        "head",
        [b"", b"GET / HTTP/1.1", b"GET / HTTP/1.1\r\n", b"GET / HTTP/1.1\r\nHost: x"],
    )
    def test_input_ending_inside_a_head_is_no_request(self, head: bytes) -> None:
        assert parse(head) is None


class TestRenderResponse:
    def test_http_client_reads_what_it_renders(self) -> None:
        body = b'{"head": 1}'
        data = (
            render_response(200, body, etag='"e1"')
            + render_response(304, etag='"e1"')
            + render_error(404, "no such block", close=True)
        )
        (ok, ok_headers, ok_body), (same, same_headers, empty), (missing, headers, error) = (
            replies(data)
        )
        assert (ok, ok_body) == (200, body)
        assert ok_headers["Content-Type"] == "application/json"
        assert ok_headers["ETag"] == '"e1"' and ok_headers["Connection"] is None
        assert (same, empty, same_headers["ETag"]) == (304, b"", '"e1"')
        assert same_headers["Content-Type"] is None
        assert same_headers["Content-Length"] == "0"
        assert missing == 404 and headers["Connection"] == "close"
        assert json.loads(error) == {"error": "no such block", "status": 404}

    def test_date_is_now_in_http_form(self) -> None:
        before = int(time.time())
        (_, headers, _), = replies(render_response(304, etag='"x"'))
        stamp = email.utils.parsedate_to_datetime(headers["Date"]).timestamp()
        assert before <= stamp <= time.time() + 1
        assert headers["Date"].endswith(" GMT")


@pytest.fixture(scope="module")
def handler_errors() -> list[str]:
    """Tracebacks of the exceptions that escaped a handler thread."""
    return []


@pytest.fixture(scope="module")
def explorer(
    tmp_path_factory: pytest.TempPathFactory, handler_errors: list[str]
) -> Iterator[tuple[str, int]]:
    """An explorer over a five-block chain, shared by the module's tests."""
    builder = TreeBuilder(make_genesis())
    blocks = builder.chain(builder.genesis, [0, 1, 2, 0, 1])
    storage = SqliteStorage(Path(tmp_path_factory.mktemp("explorer")) / "chain.db")
    storage.ensure_genesis(builder.genesis)
    for block in blocks:
        storage.record_block(block, builder.tree.arrival_time(block.block_id))
    storage.commit(blocks[-1].block_id, builder.tree)
    server, thread = start_explorer(storage)
    server.handle_error = lambda request, address: handler_errors.append(format_exc())
    yield server.server_address[0], server.server_address[1]
    server.shutdown()
    thread.join()
    server.server_close()
    storage.close()


def exchange(address: tuple[str, int], data: bytes, timeout: float = 5.0) -> bytes:
    """Send ``data``, half-close, and read until the server closes.

    A server that refuses a request may close while ``data`` is still
    going out, so a failed send ends the sending, and a reset ends the
    reading.  A read that times out means the server hung.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        received = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            received.append(chunk)
    return b"".join(received)


def closed_by_server(sock: socket.socket) -> bool:
    """True when the server has closed its side (reads end, not time out)."""
    sock.settimeout(2.0)
    return sock.recv(1) == b""


class TestKeepAliveLoop:
    @pytest.fixture(autouse=True)
    def _no_handler_errors(self, handler_errors: list[str]) -> Iterator[None]:
        yield
        assert handler_errors == []

    def test_pipelined_gets_are_answered_in_order(self, explorer: tuple[str, int]) -> None:
        heads = b"".join(
            b"GET /blocks/%d HTTP/1.1\r\nHost: x\r\n\r\n" % height for height in (3, 1, 2)
        )
        answered = replies(exchange(explorer, heads))
        assert [status for status, _, _ in answered] == [200, 200, 200]
        assert [json.loads(body)["height"] for _, _, body in answered] == [3, 1, 2]

    def test_http_1_0_closes_unless_kept_alive(self, explorer: tuple[str, int]) -> None:
        with socket.create_connection(explorer, timeout=5.0) as sock:
            sock.sendall(b"GET /chain/head HTTP/1.0\r\n\r\n")
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200 and response.getheader("Connection") == "close"
            response.read()
            assert closed_by_server(sock)
        with socket.create_connection(explorer, timeout=5.0) as sock:
            for _ in range(2):
                sock.sendall(b"GET /chain/head HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                response = http.client.HTTPResponse(sock)
                response.begin()
                assert response.status == 200 and response.getheader("Connection") is None
                assert json.loads(response.read())["head"]["height"] == 5

    def test_connection_close_is_honoured(self, explorer: tuple[str, int]) -> None:
        with socket.create_connection(explorer, timeout=5.0) as sock:
            sock.sendall(b"GET /blocks/1 HTTP/1.1\r\nConnection: close\r\n\r\n")
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200 and response.getheader("Connection") == "close"
            response.read()
            assert closed_by_server(sock)

    @pytest.mark.parametrize(
        ("head", "status"),
        [
            (b"GET /chain/head HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody", 200),
            (b"GET /chain/head HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 200),
            (b"GET /chain/head HTTP/1.1\r\nbroken\r\n\r\n", 400),
            (b"FETCH /chain/head HTTP/1.1\r\n\r\n", 501),
        ],
    )
    def test_answered_then_closed(
        self, explorer: tuple[str, int], head: bytes, status: int
    ) -> None:
        """The second request on the connection is never read."""
        second = b"GET /chain/head HTTP/1.1\r\n\r\n"
        with socket.create_connection(explorer, timeout=5.0) as sock:
            sock.sendall(head + second)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            response.read()
            try:
                assert closed_by_server(sock)
            except ConnectionResetError:
                pass  # closed over the unread second request


#: Well-formed parts of a head, and the faults a hostile head is drawn with.
TARGETS = [b"/chain/head", b"/blocks/2", b"/blocks/999", b"/txs/zz", b"/blocks?limit=x", b"/"]
HEADERS = [
    b"Host: x",
    b"Accept: */*",
    b"Connection: close",
    b"Connection: keep-alive",
    b'If-None-Match: "x"',
    b"Content-Length: 0",
    b"Content-Length: 3",
    b"Transfer-Encoding: chunked",
]
FAULTS = {
    "method": st.sampled_from([b"POST", b"HEAD", b"get", b"G\x00T", b""]),
    "target": st.sampled_from([b"chain", b"*", b"/\xff\x00", b""]) | st.binary(max_size=40),
    "version": st.sampled_from([b"HTTP/2.0", b"HTTP/0.9", b"HTTP/1.1.1", b"http/1.1", b""]),
    "separator": st.sampled_from([b"  ", b"\t", b""]),
    "request_line": st.binary(max_size=80),
    "long_request_line": st.integers(MAX_LINE - 40, MAX_LINE + 4_000),
    "line_end": st.sampled_from([b"\r", b""]),
    "bad_header": st.sampled_from(
        [b" folded", b"\tfolded: too", b"no colon", b"Bad Name: x", b": x", b"Content-Length: -"]
    )
    | st.binary(max_size=40),
    "long_header": st.integers(MAX_LINE - 40, 70_000),
    "many_headers": st.integers(MAX_HEADERS - 5, 120),
    "no_blank_line": st.just(b""),
    "body": st.binary(min_size=1, max_size=256),
}


@st.composite
def heads(draw: st.DrawFn) -> bytes:
    """A well-formed GET head with up to two faults: a bad method, target,
    version or separator, a binary or over-long request line, a line ended
    by a bare CR or nothing, a bad, over-long or 100th header line, a
    missing blank line, a body."""
    chosen = draw(st.sets(st.sampled_from(sorted(FAULTS)), max_size=2))
    faults = {name: draw(FAULTS[name]) for name in sorted(chosen)}
    ends = st.sampled_from([b"\r\n", b"\n"])
    separator = faults.get("separator", b" ")
    line = separator.join(
        [
            faults.get("method", b"GET"),
            faults.get("target", draw(st.sampled_from(TARGETS))),
            faults.get("version", draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]))),
        ]
    )
    line = faults.get("request_line", line)
    if "long_request_line" in faults:
        line = b"GET /" + b"a" * faults["long_request_line"]
    headers = draw(st.lists(st.sampled_from(HEADERS), max_size=8))
    if "bad_header" in faults:
        headers.insert(draw(st.integers(0, len(headers))), faults["bad_header"])
    if "long_header" in faults:
        headers.insert(draw(st.integers(0, len(headers))), b"X: " + b"v" * faults["long_header"])
    if "many_headers" in faults:
        headers += [b"Accept: */*"] * (faults["many_headers"] - len(headers))
    lines = [part + draw(ends) for part in [line, *headers]]
    if "line_end" in faults:
        index = draw(st.integers(0, len(lines) - 1))
        lines[index] = lines[index].rstrip(b"\r\n") + faults["line_end"]
    blank = faults.get("no_blank_line", draw(ends))
    return b"".join([*lines, blank, faults.get("body", b"")])


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.lists(heads(), min_size=1, max_size=3).map(b"".join))
@example(data=b"GET /chain/head HTTP/1.1\r\nHost: x\r\n\r\n" * 2)
@example(data=b"GET /chain/head HTTP/1.1\r\nX: " + b"v" * 70_000 + b"\r\n\r\n")
@example(data=b"GET /chain/head HTTP/1.1\r\n" + b"A: 1\r\n" * 120 + b"\r\n")
@example(data=b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
@example(data=b"GET /chain/head HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET / HTTP/1.1\r\n\r\n")
@example(data=b"GET /chain/head HTTP/1.1\r\nContent-Length: " + b"9" * 5_000 + b"\r\n\r\n")
def test_hostile_heads_get_a_refusal_never_a_500_or_a_hang(
    explorer: tuple[str, int], handler_errors: list[str], data: bytes
) -> None:
    """Every reply is an answer or a refusal, no handler thread dies, the
    server closes each connection, and the next connection is served."""
    statuses = [status for status, _, _ in replies(exchange(explorer, data))]
    assert set(statuses) <= ALLOWED, statuses
    assert handler_errors == []
    fresh = exchange(explorer, b"GET /chain/head HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert [status for status, _, _ in replies(fresh)] == [200]
