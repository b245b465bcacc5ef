"""The explorer HTTP server: stdlib ``http.server`` over a chain database.

A :class:`ThreadingHTTPServer` whose handler routes through
:mod:`repro.explorer.service` and serves from the generation-keyed
:class:`~repro.explorer.cache.ResponseCache`:

* every 200 carries a strong ``ETag``; a matching ``If-None-Match``
  short-circuits to ``304 Not Modified`` with an empty body;
* cache keys include the storage generation, so a node committing a new
  block invalidates every cached response at the next request — readers
  never see a pre-commit body for post-commit state;
* reader access is serialized by a lock (one sqlite connection shared
  across handler threads), which is plenty for an explorer whose hot
  responses come from the cache anyway.

Run it with ``repro explorer --db <data-dir>/node-0.db`` against a live
node's database (WAL mode lets the reader coexist with the writer), or
point it at any snapshot-restored database offline.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qsl, urlparse

from repro.explorer.cache import ResponseCache, make_etag
from repro.explorer.service import BadRequestError, NotFoundError, route
from repro.storage.sqlite import SqliteStorage


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


class ExplorerHandler(BaseHTTPRequestHandler):
    """Routes GETs through the service layer with ETag/304 handling."""

    server: ExplorerServer
    protocol_version = "HTTP/1.1"
    # Buffer the response so headers and body leave in one TCP write (the
    # base class flushes after every request).  Unbuffered, the body is a
    # second small segment that waits ~40 ms for the client's delayed ACK on
    # a kept-alive connection.
    wbufsize = -1

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr chatter; the driver polls status."""

    def do_GET(self) -> None:  # noqa: N802  (http.server's required casing)
        parsed = urlparse(self.path)
        query = dict(parse_qsl(parsed.query))
        cache_key = parsed.path + ("?" + parsed.query if parsed.query else "")
        try:
            body, etag = self.server.respond(parsed.path, query, cache_key)
        except NotFoundError as exc:
            self._send_error(404, str(exc))
            return
        except BadRequestError as exc:
            self._send_error(400, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — a handler must not die mid-response
            self._send_error(500, f"internal error: {exc}")
            return
        if self.headers.get("If-None-Match") == etag:
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("ETag", etag)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        body = json.dumps({"error": message, "status": status}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


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

