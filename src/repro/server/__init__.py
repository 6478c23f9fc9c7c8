"""The concurrent serving runtime.

The paper's middleware exists to serve interactive dashboards to many
users at once; this package is the reproduction's multi-session tier on
top of the (stateless) :class:`~repro.net.middleware.MiddlewareServer`:

* :mod:`~repro.server.scheduler` — bounded admission with
  **single-flight coalescing**: concurrent identical
  ``<backend>::<sql>`` requests share one backend execution, run on the
  leading caller's own thread, with admission/queueing statistics,
* :mod:`~repro.server.session` — :class:`SessionManager` /
  :class:`ClientSession`: per-client state (LRU client-side cache,
  network profile, request count) over the shared middleware, scheduler
  and backend,
* :mod:`~repro.server.shard` — the sharded async tier:
  :class:`AsyncGateway` routes requests by session-id hash to worker
  *processes* (each owning its shard of the session map plus a full
  middleware stack), with explicit admission control that sheds overload
  via :class:`~repro.errors.OverloadError` instead of queueing
  unboundedly.

Typical assembly::

    backend = create_backend("sqlite")
    backend.register_rows("flights", rows)
    manager = SessionManager.for_backend(backend, max_workers=8)
    session = manager.create_session("alice", network=NetworkModel.wan())
    response = session.execute("SELECT carrier, COUNT(*) FROM flights GROUP BY carrier")

Thread-safety contract: a request runs on the thread that received it,
and a :class:`ClientSession` lives on the runtime that created it and
belongs to one thread at a time (:meth:`SessionManager.execute` is the
entry point that enforces it for callers that cannot promise it, by
serialising per session id); everything shared underneath (server
cache, scheduler, plan cache, engine metrics, backends) is internally
locked.  Every backend may be executed from many threads: the embedded
engine reads immutable column arrays under internally locked shared
state, and the sqlite backend opens one connection per thread over one
shared in-memory database.
"""

from repro.server.scheduler import (
    RequestScheduler,
    SingleFlightOutcome,
)
from repro.server.session import ClientSession, SessionManager
from repro.server.shard import (
    AdmissionController,
    AsyncGateway,
    ShardSpec,
    TableSpec,
    shard_for,
)

__all__ = [
    "AdmissionController",
    "AsyncGateway",
    "ClientSession",
    "RequestScheduler",
    "SessionManager",
    "ShardSpec",
    "SingleFlightOutcome",
    "TableSpec",
    "shard_for",
]
