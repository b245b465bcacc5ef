"""Generation-scoped LRU response cache for the explorer.

Responses are cached against the storage backend's commit generation:
the cache holds the responses of one generation, and the first insert
at another one empties it, so a new commit (which bumps the generation)
makes every older entry unreachable — invalidation without any
notification channel between the writer process and the explorer.

Each entry stores the rendered body together with its ETag, letting the
HTTP layer answer a matching ``If-None-Match`` with ``304 Not Modified``
without re-rendering.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict


def make_etag(body: bytes) -> str:
    """A strong ETag for a response body (content-addressed, quoted)."""
    return '"' + hashlib.sha256(body).hexdigest()[:16] + '"'


class ResponseCache:
    """LRU cache of one generation's rendered responses, keyed by request."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, tuple[bytes, str]] = OrderedDict()
        self._generation: int | None = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, generation: int, request: str) -> tuple[bytes, str] | None:
        """The cached ``(body, etag)`` for a request at a generation."""
        entry = self._entries.get(request) if generation == self._generation else None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(request)
        self.hits += 1
        return entry

    def put(self, generation: int, request: str, body: bytes, etag: str) -> None:
        """Insert a rendered response, evicting LRU and older generations."""
        if generation != self._generation:
            self._entries.clear()
            self._generation = generation
        self._entries[request] = (body, etag)
        self._entries.move_to_end(request)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
