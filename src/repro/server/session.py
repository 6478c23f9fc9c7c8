"""Per-client sessions over a shared middleware.

The paper's middleware tier serves interactive dashboards for many users
at once.  This module models the client side of that fan-in: a
:class:`SessionManager` owns one :class:`ClientSession` per connected
user, every session carrying its *own* client-side result cache and its
*own* network profile (one user on the office LAN, another on a WAN),
while all sessions share one :class:`MiddlewareServer` — and therefore
one server cache, one scheduler and one backend.

A :class:`ClientSession` offers the slice of the middleware API the
rewrite layer and :class:`VegaPlusSystem` use (``execute`` /
``capabilities`` / ``cache_key`` / ``database`` / ``scheduler``), so a
full :class:`VegaPlusSystem` can be built *per session* on top of the
shared serving runtime::

    manager = SessionManager.for_backend(backend, max_workers=8)
    session = manager.create_session("alice", network=NetworkModel.wan())
    system = VegaPlusSystem(spec, middleware=session)

Each session is intended to be driven by a single thread (one simulated
user); the shared layers underneath are thread-safe.  A serving tier
that may hold several requests of one session in flight goes through
:meth:`SessionManager.execute`, which serialises them per session id.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable

import numpy as np

from repro.backends import SQLBackend
from repro.backends.base import BackendCapabilities
from repro.errors import BenchmarkError
from repro.net.cache import QueryCache
from repro.net.channel import NetworkModel
from repro.net.middleware import MiddlewareServer, QueryResponse
from repro.server.scheduler import RequestScheduler

#: Percentile levels reported by latency summaries.
LATENCY_PERCENTILES = (50, 95, 99)


def latency_percentiles(latencies: Iterable[float]) -> dict[str, float]:
    """p50/p95/p99 of ``latencies`` (zeros when empty)."""
    values = list(latencies)
    if not values:
        return {f"p{level}": 0.0 for level in LATENCY_PERCENTILES}
    points = np.percentile(np.asarray(values, dtype=float), LATENCY_PERCENTILES)
    return {
        f"p{level}": float(point)
        for level, point in zip(LATENCY_PERCENTILES, points)
    }


class ClientSession:
    """One client's view of the serving runtime.

    Parameters
    ----------
    session_id:
        Unique identifier within the owning manager.
    middleware:
        The shared (stateless) query service.
    network:
        This client's link model; defaults to the middleware's.
    cache_entries / max_cached_result_bytes / cache_policy / cache_bytes:
        Sizing of this client's private result cache.  Client caches
        default to LRU — a dashboard user's working set is recency-
        driven — while the shared server cache keeps the paper's FIFO.
    """

    def __init__(
        self,
        session_id: str,
        middleware: MiddlewareServer,
        network: NetworkModel | None = None,
        cache_entries: int = 32,
        max_cached_result_bytes: int = 2_000_000,
        cache_policy: str = "lru",
        cache_bytes: int | None = None,
    ) -> None:
        self.session_id = session_id
        self.middleware = middleware
        self.network = network or middleware.network
        self.cache = QueryCache(
            max_entries=cache_entries,
            max_result_bytes=max_cached_result_bytes,
            name=f"client[{session_id}]",
            policy=cache_policy,
            max_total_bytes=cache_bytes,
        )
        self.latencies: list[float] = []
        self.requests = 0

    # ------------------------------------------------------------------ #
    # Middleware-compatible surface (VDT operators talk to this)
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SQLBackend:
        """The shared server-side backend."""
        return self.middleware.database

    @property
    def capabilities(self) -> BackendCapabilities:
        """The shared backend's dialect description."""
        return self.middleware.capabilities

    @property
    def scheduler(self) -> RequestScheduler | None:
        """The shared middleware's scheduler (when one is attached)."""
        return self.middleware.scheduler

    def cache_key(self, sql: str) -> str:
        """The middleware's cache key for ``sql``."""
        return self.middleware.cache_key(sql)

    def execute(self, sql: str) -> QueryResponse:
        """Serve ``sql`` through the shared middleware with *this*
        session's client cache and network profile."""
        response = self.middleware.serve(
            sql, client_cache=self.cache, network=self.network
        )
        self.requests += 1
        self.latencies.append(response.total_seconds)
        return response

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 of this session's modelled request latencies."""
        return latency_percentiles(self.latencies)

    def cache_statistics(self) -> dict[str, object]:
        """This session's client-cache behaviour plus the shared tiers."""
        shared = self.middleware.cache_statistics()
        shared["client_hit_rate"] = self.cache.stats.hit_rate
        shared["client_entries"] = len(self.cache)
        shared["session_id"] = self.session_id
        shared["session_requests"] = self.requests
        return shared

    def reset(self) -> None:
        """Clear the session's cache and latency history."""
        self.cache.clear()
        self.latencies.clear()
        self.requests = 0


class SessionManager:
    """Owns the sessions of one serving runtime.

    Parameters
    ----------
    middleware:
        The shared query service all sessions execute through.
    default_network:
        Link model for sessions created without an explicit one
        (defaults to the middleware's).
    cache_entries / max_cached_result_bytes / cache_policy / cache_bytes:
        Defaults for the per-session client caches.
    """

    def __init__(
        self,
        middleware: MiddlewareServer,
        default_network: NetworkModel | None = None,
        cache_entries: int = 32,
        max_cached_result_bytes: int = 2_000_000,
        cache_policy: str = "lru",
        cache_bytes: int | None = None,
    ) -> None:
        self.middleware = middleware
        self.default_network = default_network or middleware.network
        self.cache_entries = cache_entries
        self.max_cached_result_bytes = max_cached_result_bytes
        self.cache_policy = cache_policy
        self.cache_bytes = cache_bytes
        self._sessions: dict[str, ClientSession] = {}
        self._session_locks: dict[str, threading.Lock] = {}
        self._lock = threading.Lock()
        self._auto_ids = itertools.count()
        middleware.database.catalog.add_invalidation_listener(self.invalidate_table)

    # ------------------------------------------------------------------ #
    @classmethod
    def for_backend(
        cls,
        database: SQLBackend,
        max_workers: int = 4,
        network: NetworkModel | None = None,
        scheduler: RequestScheduler | None = None,
        **middleware_kwargs: object,
    ) -> "SessionManager":
        """Build a full serving runtime (scheduler + middleware) around
        ``database`` and return its session manager.

        Refuses backends that do not declare thread-safe execution when
        more than one concurrent execution is admitted — overlapping
        threads on an unsafe backend corrupt results silently.
        """
        if scheduler is None:
            scheduler = RequestScheduler(max_workers=max_workers)
        middleware = MiddlewareServer(
            database, network=network, scheduler=scheduler, **middleware_kwargs
        )
        capabilities = middleware.capabilities
        if scheduler.max_workers > 1 and not capabilities.thread_safe:
            raise BenchmarkError(
                f"backend {capabilities.name!r} does not declare thread-safe "
                "execution; use max_workers=1 or a thread-safe backend"
            )
        return cls(middleware)

    # ------------------------------------------------------------------ #
    def create_session(
        self,
        session_id: str | None = None,
        network: NetworkModel | None = None,
        **session_kwargs: object,
    ) -> ClientSession:
        """Register and return a new session (id auto-generated if omitted)."""
        with self._lock:
            if session_id is None:
                session_id = f"session-{next(self._auto_ids)}"
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already exists")
            defaults: dict[str, object] = {
                "cache_entries": self.cache_entries,
                "max_cached_result_bytes": self.max_cached_result_bytes,
                "cache_policy": self.cache_policy,
                "cache_bytes": self.cache_bytes,
            }
            defaults.update(session_kwargs)
            session = ClientSession(
                session_id,
                self.middleware,
                network=network or self.default_network,
                **defaults,  # type: ignore[arg-type]
            )
            self._sessions[session_id] = session
            return session

    def get(self, session_id: str) -> ClientSession:
        """Look up an existing session."""
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError as exc:
                raise KeyError(f"unknown session {session_id!r}") from exc

    def execute(self, session_id: str, sql: str) -> QueryResponse:
        """Serve ``sql`` for ``session_id`` — the one request handler of
        every serving tier (shard workers and the threaded tier alike).

        A :class:`ClientSession` is single-threaded by contract, while a
        tier may have several requests of one session in flight, so
        requests are serialised per session id; distinct ids run
        concurrently.  An unknown id gets a session with the manager's
        defaults, created once under that id's lock.
        """
        with self._lock:
            lock = self._session_locks.setdefault(session_id, threading.Lock())
        with lock:
            try:
                session = self.get(session_id)
            except KeyError:
                session = self.create_session(session_id)
            return session.execute(sql)

    def close_session(self, session_id: str) -> None:
        """Drop a session (its client cache is released)."""
        with self._lock:
            self._sessions.pop(session_id, None)
            self._session_locks.pop(session_id, None)

    def session_ids(self) -> list[str]:
        """Identifiers of the live sessions, sorted."""
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------ #
    @property
    def scheduler(self) -> RequestScheduler | None:
        """The runtime's scheduler (when one is attached)."""
        return self.middleware.scheduler

    def statistics(self) -> dict[str, object]:
        """Aggregate view: shared tiers plus per-session summaries."""
        with self._lock:
            sessions = dict(self._sessions)
        all_latencies = [
            latency for session in sessions.values() for latency in session.latencies
        ]
        stats: dict[str, object] = self.middleware.cache_statistics()
        client_hits = sum(session.cache.stats.hits for session in sessions.values())
        client_lookups = client_hits + sum(
            session.cache.stats.misses for session in sessions.values()
        )
        stats["client_hit_rate"] = client_hits / client_lookups if client_lookups else 0.0
        stats["client_entries"] = sum(len(session.cache) for session in sessions.values())
        stats["sessions"] = len(sessions)
        stats["requests"] = sum(session.requests for session in sessions.values())
        stats["latency_percentiles"] = latency_percentiles(all_latencies)
        return stats

    def shutdown(self) -> dict[str, float] | None:
        """Close the scheduler's admission (if any) and drop all sessions.

        Returns the scheduler's stats snapshot (see
        :meth:`RequestScheduler.shutdown`), or ``None`` without one.
        Callers that own request threads drain them first.
        """
        final = None
        if self.middleware.scheduler is not None:
            final = self.middleware.scheduler.shutdown()
        with self._lock:
            self._sessions.clear()
            self._session_locks.clear()
        return final

    def invalidate_table(self, name: str) -> None:
        """Catalog listener: table ``name`` was replaced or dropped, so
        every session's client cache may hold rows of the old table."""
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.cache.clear()
