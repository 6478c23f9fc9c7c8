"""Query result caches.

Section 5.5: VegaPlus keeps a client-side cache and a server-side
middleware cache.  Each cache maps the executed SQL string to its result,
has a fixed capacity, avoids duplicate entries, and only admits results
below a size threshold.  The capacities and the threshold are the module
constants below; every cache evicts its least recently used entry.  The
paper's own replacement order cannot be checked from the material in
this repository, so LRU is a measured choice: on the benchmark's
Zipf-distributed dashboard refreshes it serves more requests from the
server cache than insertion order does.

Entries hold the columnar :class:`~repro.storage.table.Table` the
backend returned — row dicts never materialise on a cache hit unless a
final consumer asks, and then once per entry.  ``payload_bytes``
should be the **exact** size of the stored result
(:attr:`Table.nbytes`), so the byte accounting charges on insertion
exactly what eviction later frees.  Entries are never
overwritten in place: the first result stored under a key stays until
eviction or :meth:`QueryCache.clear` (which a table replacement
triggers), so an entry's bytes enter and leave the count exactly once.

The serving runtime (:mod:`repro.server`) shares one middleware cache
between many concurrent sessions, so the cache is thread-safe: every
lookup/insert runs under an internal lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.metrics import Counters
from repro.storage.table import Table

#: Entries of a client-side cache (the middleware's built-in one and each
#: session's own).
CLIENT_CACHE_ENTRIES = 32
#: Entries of the shared middleware cache.
SERVER_CACHE_ENTRIES = 128
#: Results larger than this are never cached ("to avoid the cached entity
#: being too large, we set a threshold for the size of the query result").
MAX_CACHED_RESULT_BYTES = 2_000_000


@dataclass
class CacheEntry:
    """One cached query result."""

    query: str
    result: Table
    payload_bytes: int


class QueryCache:
    """A thread-safe LRU cache of SQL query results.

    Parameters
    ----------
    max_entries:
        Maximum number of cached queries; an insertion beyond it evicts
        the least recently used entry (a hit refreshes recency).
    name:
        Label used in statistics reporting ("client" / "server").
    """

    def __init__(self, max_entries: int, name: str = "cache") -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.name = name
        #: ``current_bytes`` is the payload held now, ``evicted_bytes`` the
        #: payload evictions have freed so far.
        self.stats = Counters(
            "hits", "misses", "insertions", "evictions", "rejected_too_large",
            "current_bytes", "evicted_bytes",
        )
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    # ------------------------------------------------------------------ #
    def get(self, query: str) -> CacheEntry | None:
        """Look up a query; records a hit or miss."""
        with self._lock:
            entry = self._entries.get(query)
            if entry is None:
                self.stats.add(misses=1)
                return None
            self._entries.move_to_end(query)
            self.stats.add(hits=1)
            return entry

    def peek(self, query: str) -> CacheEntry | None:
        """Look up a query without touching statistics or recency."""
        with self._lock:
            return self._entries.get(query)

    def put(self, query: str, result: Table, payload_bytes: int) -> bool:
        """Insert a result; returns True when it was actually cached.

        ``payload_bytes`` is the exact size charged to the byte count
        (``result.nbytes``).  An existing entry wins — the paper's
        duplicate check keeps it and its position.
        """
        with self._lock:
            if payload_bytes > MAX_CACHED_RESULT_BYTES:
                self.stats.add(rejected_too_large=1)
                return False
            if query in self._entries:
                return False
            self._entries[query] = CacheEntry(
                query=query, result=result, payload_bytes=payload_bytes
            )
            self.stats.add(insertions=1, current_bytes=payload_bytes)
            if len(self._entries) > self.max_entries:
                _, evicted = self._entries.popitem(last=False)
                freed = evicted.payload_bytes
                self.stats.add(evictions=1, current_bytes=-freed, evicted_bytes=freed)
            return True

    def clear(self) -> None:
        """Drop all entries (hit/miss statistics are preserved)."""
        with self._lock:
            self._entries.clear()
            self.stats.add(current_bytes=-self.stats.current_bytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
