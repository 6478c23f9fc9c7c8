"""Query result caches.

Section 5.5: VegaPlus keeps a client-side cache and a server-side
middleware cache.  Each cache maps the executed SQL string to its result,
has a fixed capacity, avoids duplicate entries, and only admits results
below a size threshold.

Entries hold columnar :class:`~repro.storage.resultset.ResultSet`
batches — row dicts never materialise on a cache hit unless a final
consumer asks.  ``payload_bytes`` should be the **exact** size of the
stored result (:attr:`ResultSet.nbytes`), so the byte budget charges on
insertion exactly what eviction later frees — a codec *estimate* here
would let the accounted total drift from resident memory.  Entries are
never overwritten in place: the first result stored under a key stays
until eviction or :meth:`QueryCache.clear` (which a table replacement
triggers), so an entry's bytes enter and leave the budget exactly once.

The serving runtime (:mod:`repro.server`) shares one middleware cache
between many concurrent sessions, so the cache is thread-safe: every
lookup/insert runs under an internal lock.  Two eviction policies are
supported — ``fifo`` (the paper's replacement, insertion order) and
``lru`` (recency order, the default for per-session client caches) — and
eviction is driven by *both* an entry count and a total payload-byte
budget, so one hundred tiny results and three huge ones are bounded by
the same memory ceiling.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.storage.resultset import ResultSet

#: Eviction policies accepted by :class:`QueryCache`.
CACHE_POLICIES = ("fifo", "lru")


@dataclass
class CacheStatistics:
    """Hit/miss counters and configuration of one cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_too_large: int = 0
    #: Eviction policy the cache runs (``fifo`` or ``lru``).
    policy: str = "fifo"
    #: Total payload-byte budget (``None`` = bounded by entry count only).
    byte_budget: int | None = None
    #: Payload bytes currently held across all entries.
    current_bytes: int = 0
    #: Payload bytes freed by evictions so far.
    evicted_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CacheEntry:
    """One cached query result."""

    query: str
    result: ResultSet
    payload_bytes: int

    @property
    def rows(self) -> list[dict]:
        """The entry's rows, materialised (and cached) on first access."""
        return self.result.rows()


class QueryCache:
    """A thread-safe cache of SQL query results.

    Parameters
    ----------
    max_entries:
        Maximum number of cached queries (eviction beyond this).
    max_result_bytes:
        Results larger than this are never cached ("to avoid the cached
        entity being too large, we set a threshold for the size of the
        query result").
    name:
        Label used in statistics reporting ("client" / "server").
    policy:
        Eviction order: ``"fifo"`` evicts the oldest insertion (the
        paper's replacement policy), ``"lru"`` evicts the least recently
        *used* entry (hits refresh recency).
    max_total_bytes:
        Optional budget for the summed payload bytes of all entries;
        entries are evicted (in policy order) until the total fits.
    """

    def __init__(
        self,
        max_entries: int = 64,
        max_result_bytes: int = 2_000_000,
        name: str = "cache",
        policy: str = "fifo",
        max_total_bytes: int | None = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if policy not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy {policy!r}; choose from {CACHE_POLICIES}")
        if max_total_bytes is not None and max_total_bytes <= 0:
            raise ValueError("max_total_bytes must be positive when set")
        self.max_entries = max_entries
        self.max_result_bytes = max_result_bytes
        self.max_total_bytes = max_total_bytes
        self.name = name
        self.policy = policy
        self.stats = CacheStatistics(policy=policy, byte_budget=max_total_bytes)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    # ------------------------------------------------------------------ #
    def get(self, query: str) -> CacheEntry | None:
        """Look up a query; records a hit or miss."""
        with self._lock:
            entry = self._entries.get(query)
            if entry is None:
                self.stats.misses += 1
                return None
            if self.policy == "lru":
                self._entries.move_to_end(query)
            self.stats.hits += 1
            return entry

    def peek(self, query: str) -> CacheEntry | None:
        """Look up a query without touching statistics or recency."""
        with self._lock:
            return self._entries.get(query)

    def contains(self, query: str) -> bool:
        """Whether the query is cached (does not affect statistics)."""
        with self._lock:
            return query in self._entries

    def put(self, query: str, result: ResultSet, payload_bytes: int) -> bool:
        """Insert a result; returns True when it was actually cached.

        ``payload_bytes`` is the exact size charged to the byte budget
        (``result.nbytes``).  An existing entry wins — the paper's
        duplicate check keeps it and its position.
        """
        with self._lock:
            too_large = payload_bytes > self.max_result_bytes or (
                self.max_total_bytes is not None and payload_bytes > self.max_total_bytes
            )
            if too_large:
                self.stats.rejected_too_large += 1
                return False
            if query in self._entries:
                return False
            self._entries[query] = CacheEntry(
                query=query, result=result, payload_bytes=payload_bytes
            )
            self.stats.insertions += 1
            self.stats.current_bytes += payload_bytes
            self._evict_over_budget()
            return True

    def _evict_over_budget(self) -> None:
        """Evict entries (policy order) until count and bytes fit. Lock held."""
        while len(self._entries) > self.max_entries or (
            self.max_total_bytes is not None
            and self.stats.current_bytes > self.max_total_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.stats.current_bytes -= evicted.payload_bytes
            self.stats.evicted_bytes += evicted.payload_bytes

    def clear(self) -> None:
        """Drop all entries (hit/miss statistics are preserved)."""
        with self._lock:
            self._entries.clear()
            self.stats.current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Summed payload bytes of the entries currently cached."""
        with self._lock:
            return self.stats.current_bytes

    def cached_queries(self) -> list[str]:
        """The cached query strings in eviction order (oldest first)."""
        with self._lock:
            return list(self._entries)
