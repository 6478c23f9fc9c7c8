"""Per-client sessions over a shared middleware.

The paper's middleware tier serves interactive dashboards for many users
at once.  This module models the client side of that fan-in: a
:class:`SessionManager` owns one :class:`ClientSession` per connected
user, every session carrying its *own* LRU client-side result cache
(:data:`~repro.net.cache.CLIENT_CACHE_ENTRIES` entries) and its *own*
network profile (one user on the office LAN, another on a WAN), while
all sessions share one :class:`MiddlewareServer` — and therefore one
server cache, one scheduler and one backend.

A :class:`ClientSession` offers the slice of the middleware API the
rewrite layer and :class:`VegaPlusSystem` use (``execute`` /
``database``), so a full :class:`VegaPlusSystem` can be built *per
session* on top of the shared serving runtime::

    manager = SessionManager.for_backend(backend, max_workers=8)
    session = manager.create_session("alice", network=NetworkModel.wan())
    system = VegaPlusSystem(spec, middleware=session)

Each session is intended to be driven by a single thread (one simulated
user); the shared layers underneath are thread-safe.  A serving tier
that may hold several requests of one session in flight goes through
:meth:`SessionManager.execute`, which serialises them per session id.
Sessions count requests; they keep no per-request log.
"""

from __future__ import annotations

import itertools
import threading

from repro.backends import SQLBackend
from repro.metrics import merge
from repro.net.cache import CLIENT_CACHE_ENTRIES, QueryCache
from repro.net.channel import NetworkModel
from repro.net.middleware import MiddlewareServer, QueryResponse
from repro.server.scheduler import RequestScheduler


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
    """

    def __init__(
        self,
        session_id: str,
        middleware: MiddlewareServer,
        network: NetworkModel | None = None,
    ) -> None:
        self.session_id = session_id
        self.middleware = middleware
        self.network = network or middleware.network
        self.cache = QueryCache(CLIENT_CACHE_ENTRIES, name=f"client[{session_id}]")
        self.requests = 0

    # ------------------------------------------------------------------ #
    # Middleware-compatible surface (VDT operators talk to this)
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SQLBackend:
        """The shared server-side backend."""
        return self.middleware.database

    def execute(self, sql: str) -> QueryResponse:
        """Serve ``sql`` through the shared middleware with *this*
        session's client cache and network profile."""
        response = self.middleware.serve(
            sql, client_cache=self.cache, network=self.network
        )
        self.requests += 1
        return response


class SessionManager:
    """Owns the sessions of one serving runtime.

    Parameters
    ----------
    middleware:
        The shared query service all sessions execute through.
    """

    def __init__(self, middleware: MiddlewareServer) -> None:
        self.middleware = middleware
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
    ) -> "SessionManager":
        """Build a full serving runtime (scheduler + middleware) around
        ``database`` and return its session manager."""
        scheduler = RequestScheduler(max_workers=max_workers)
        middleware = MiddlewareServer(database, network=network, scheduler=scheduler)
        return cls(middleware)

    # ------------------------------------------------------------------ #
    def create_session(
        self,
        session_id: str | None = None,
        network: NetworkModel | None = None,
    ) -> ClientSession:
        """Register and return a new session (id auto-generated if omitted);
        ``network`` defaults to the middleware's link model."""
        with self._lock:
            if session_id is None:
                session_id = f"session-{next(self._auto_ids)}"
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already exists")
            session = ClientSession(session_id, self.middleware, network=network)
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
        concurrently.  An unknown id gets a session on the middleware's
        link model, created once under that id's lock.
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

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, object]:
        """The counters of this serving stack, in the form
        :func:`repro.metrics.merge` combines across the stacks of a tier:
        sessions and their requests, the middleware's counters, both cache
        levels (every session's client cache merged) and the scheduler's."""
        with self._lock:
            sessions = list(self._sessions.values())
        stack: dict[str, object] = {
            "sessions": len(sessions),
            "requests": sum(session.requests for session in sessions),
            **self.middleware.stats.snapshot(),
            "server_cache": self.middleware.server_cache.stats.snapshot(),
            "client_cache": merge(session.cache.stats.snapshot() for session in sessions),
        }
        if self.middleware.scheduler is not None:
            stack["scheduler"] = self.middleware.scheduler.snapshot()
        return stack

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
