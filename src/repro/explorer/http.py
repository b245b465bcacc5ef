"""The explorer HTTP server: a lean HTTP/1.1 keep-alive loop over a chain database.

A :class:`ThreadingHTTPServer` (one thread per connection) whose handler
reads each request in one pass, routes it through
:mod:`repro.explorer.service` and serves from the generation-scoped
:class:`~repro.explorer.cache.ResponseCache`:

* every 200 carries a strong ``ETag``; a matching ``If-None-Match``
  short-circuits to ``304 Not Modified`` with an empty body;
* the cache holds one storage generation, so a node committing a new
  block invalidates every cached response at the next request — readers
  never see a pre-commit body for post-commit state;
* reader access is serialized by a lock (one sqlite connection shared
  across handler threads), which is plenty for an explorer whose hot
  responses come from the cache anyway.

What the loop accepts: ``GET`` requests in origin form (``/path?query``)
over ``HTTP/1.1`` (kept alive unless ``Connection: close``) or ``HTTP/1.0``
(closed unless ``Connection: keep-alive``), pipelined or not, with lines
ended by CRLF or a bare LF.  Every reply is one write — status line,
``Date``, ``Content-Type``, ``ETag``, ``Content-Length`` — so a kept-alive
client never waits on its delayed ACK.  Error bodies are JSON
(``{"error": ..., "status": ...}``) like every other body.

What it refuses, closing the connection after the reply: a line longer
than 64 KiB (414 for the request line, 431 for a header line), more than
100 header lines (431; both limits are ``http.server``'s), a request line
that is not ``METHOD /target HTTP/1.x`` or a header line without a
``name:`` (folded lines included) with 400, and any method but ``GET``
with 501.  A request that carries a body (``Content-Length`` > 0 or any
``Transfer-Encoding``) is answered without reading the body, and then
the connection closes.  A connection that ends inside a request head is
closed without a reply.

:func:`read_request` and :func:`render_response` are the codec, over
bytes and a ``readline`` callable, usable without a socket.

Run it with ``repro explorer --db <data-dir>/node-0.db`` against a live
node's database (WAL mode lets the reader coexist with the writer), or
point it at a stopped node's database offline.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl

from repro.errors import ReproError
from repro.explorer.cache import ResponseCache, make_etag
from repro.explorer.service import BadRequestError, NotFoundError, route
from repro.storage.sqlite import SqliteStorage

#: Longest request or header line, and most header lines, that a request
#: may carry (``http.server`` / ``http.client``'s ``_MAXLINE`` and
#: ``_MAXHEADERS``).
MAX_LINE = 65536
MAX_HEADERS = 100

_VERSIONS = {b"HTTP/1.1": True, b"HTTP/1.0": False}  # → kept alive by default
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n".encode() for s in HTTPStatus}


class RequestError(ReproError):
    """A request refused before it reaches a route; the connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True, slots=True)
class Request:
    """One parsed request head; header names are lower-cased."""

    target: str
    headers: dict[str, str]
    close: bool


def read_request(readline: Callable[[int], bytes]) -> Request | None:
    """Read one request head through ``readline`` (the body is not read).

    ``None`` when the input ends before the head does.  Raises
    :class:`RequestError` for a head the loop refuses; a request with a
    body comes back with ``close`` set, since its body is left unread.
    """
    line = readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise RequestError(414, "request line too long")
    if not line.endswith(b"\n"):
        return None
    words = line.split()
    if len(words) != 3:
        raise RequestError(400, "bad request line")
    method, target, version = words
    if version not in _VERSIONS or not target.startswith(b"/"):
        raise RequestError(400, "bad request line")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise RequestError(431, "header line too long")
        if line in (b"\r\n", b"\n"):
            break
        if not line.endswith(b"\n"):
            return None
        name, colon, value = line.partition(b":")
        if not colon or not name or b" " in name or b"\t" in name:
            raise RequestError(400, "bad header line")
        key, text = name.decode("latin-1").lower(), value.strip().decode("latin-1")
        headers[key] = headers[key] + ", " + text if key in headers else text
    else:
        raise RequestError(431, f"more than {MAX_HEADERS} header lines")
    if method != b"GET":
        raise RequestError(501, f"unsupported method {method.decode('latin-1')!r}")
    length = headers.get("content-length", "0")
    if not (length.isascii() and length.isdigit()):
        raise RequestError(400, "bad Content-Length")
    tokens = {token.strip() for token in headers.get("connection", "").lower().split(",")}
    keep_alive = "close" not in tokens if _VERSIONS[version] else "keep-alive" in tokens
    has_body = bool(length.lstrip("0")) or "transfer-encoding" in headers
    return Request(target.decode("latin-1"), headers, has_body or not keep_alive)


@lru_cache(maxsize=1)
def _date_line(second: int) -> bytes:
    return b"Date: " + formatdate(second, usegmt=True).encode() + b"\r\n"


def render_response(
    status: int, body: bytes = b"", *, etag: str | None = None, close: bool = False
) -> bytes:
    """One reply as the bytes of a single write; a body is JSON."""
    parts = [_STATUS_LINES[status], _date_line(int(time.time()))]
    if body:
        parts.append(b"Content-Type: application/json\r\n")
    if etag is not None:
        parts.append(b"ETag: " + etag.encode() + b"\r\n")
    parts.append(b"Content-Length: %d\r\n" % len(body))
    if close:
        parts.append(b"Connection: close\r\n")
    parts += (b"\r\n", body)
    return b"".join(parts)


def render_error(status: int, message: str, *, close: bool = False) -> bytes:
    """A JSON error reply."""
    body = json.dumps({"error": message, "status": status}).encode()
    return render_response(status, body, close=close)


class ExplorerServer(ThreadingHTTPServer):
    """HTTP server bound to one chain reader and one response cache."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], reader: SqliteStorage) -> None:
        super().__init__(address, ExplorerHandler)
        self.reader = reader
        self.cache = ResponseCache()
        self.reader_lock = threading.Lock()

    def respond(self, path: str, query: dict[str, str], cache_key: str) -> tuple[bytes, str]:
        """Produce ``(body, etag)`` for one request, entirely under the lock.

        This is the only place handler threads may touch the sqlite
        reader *or* the response cache: the connection is shared across
        threads and :class:`ResponseCache` is not internally locked, so
        the generation read, cache probe, reader query, and cache fill
        must be one critical section — otherwise two threads can race a
        commit and cache a pre-commit body under a post-commit generation.
        """
        with self.reader_lock:
            generation = self.reader.generation()
            cached = self.cache.get(generation, cache_key)
            if cached is not None:
                return cached
            payload = route(self.reader, path, query)
            body = json.dumps(payload, sort_keys=True).encode()
            etag = make_etag(body)
            self.cache.put(generation, cache_key, body, etag)
            return body, etag


class ExplorerHandler(socketserver.StreamRequestHandler):
    """One connection: read a request, write its reply, until one closes."""

    server: ExplorerServer

    def handle(self) -> None:
        while True:
            try:
                request = read_request(self.rfile.readline)
            except RequestError as exc:
                self.wfile.write(render_error(exc.status, str(exc), close=True))
                return
            if request is None:
                return
            self.wfile.write(self._reply(request))
            if request.close:
                return

    def _reply(self, request: Request) -> bytes:
        path, _, query = request.target.partition("?")
        try:
            body, etag = self.server.respond(
                path, dict(parse_qsl(query)) if query else {}, request.target
            )
        except NotFoundError as exc:
            return render_error(404, str(exc), close=request.close)
        except BadRequestError as exc:
            return render_error(400, str(exc), close=request.close)
        except Exception as exc:  # noqa: BLE001 — a handler must not die mid-response
            return render_error(500, f"internal error: {exc}", close=request.close)
        if request.headers.get("if-none-match") == etag:
            return render_response(304, etag=etag, close=request.close)
        return render_response(200, body, etag=etag, close=request.close)


def start_explorer(
    reader: SqliteStorage,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[ExplorerServer, threading.Thread]:
    """Start an explorer on a background thread; returns (server, thread).

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address``.  Callers own shutdown:
    ``server.shutdown(); thread.join(); server.server_close()``.
    """
    server = ExplorerServer((host, port), reader)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def main(*, db_path: str | Path, host: str = "127.0.0.1", port: int = 8390) -> None:
    """Blocking CLI entry for ``repro explorer``."""
    reader = SqliteStorage(db_path, read_only=True)
    server = ExplorerServer((host, port), reader)
    bound_host, bound_port = server.server_address[0], server.server_address[1]
    print(f"explorer serving {db_path} on http://{bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        reader.close()
