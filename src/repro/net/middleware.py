"""The middleware server between the Vega client and the DBMS.

VDT operators send SQL over (simulated) HTTP to this middleware, which
checks the caches, executes the query on the configured
:class:`~repro.sql.engine.SQLBackend` when needed, serialises the
result and returns it together with a cost breakdown (server compute,
serialisation, network transfer).

The middleware is a **stateless query service** with respect to clients:
:meth:`serve` takes the calling session's client-side cache and network
model as arguments, so one middleware instance can serve many concurrent
sessions (see :mod:`repro.server`).  The single-user entry point
:meth:`execute` serves against a built-in client cache — the
one-dashboard configuration.  Both built-in caches (and every session's
client cache) are LRU with the fixed capacities of :mod:`repro.net.cache`.

Cache entries are keyed on ``<backend name>::<sql>`` so results from two
backends can never alias, even when middleware caches are shared or
compared across backend runs.  When a :class:`RequestScheduler` is
attached, backend executions pass its admission bound with
single-flight coalescing: concurrent identical requests share one
execution, run on the first requester's thread, and the result is
published to the server cache *before* the in-flight entry retires, so
a request can never slip between "missed the cache" and "missed the
flight" into a duplicate execution.  Both built-in caches subscribe to
the backend catalog's invalidation events, so a replaced or dropped
table never leaves stale results behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backends import SQLBackend
from repro.metrics import Counters
from repro.net.cache import CLIENT_CACHE_ENTRIES, SERVER_CACHE_ENTRIES, QueryCache
from repro.net.channel import NetworkModel
from repro.net.serialize import ArrowCodec, Codec, PayloadEstimate
from repro.storage.table import Table

if TYPE_CHECKING:  # avoids a runtime repro.net ↔ repro.server cycle
    from repro.server.scheduler import RequestScheduler


@dataclass
class QueryResponse:
    """What the client receives for one SQL request.

    The payload is columnar end to end: :attr:`result` is the
    :class:`~repro.storage.table.Table` the backend returned, as
    executed or cached — row dicts only materialise when a consumer
    reads :attr:`rows` (once, cached on the table itself).
    """

    sql: str
    result: Table
    payload_bytes: int
    server_seconds: float
    network_seconds: float
    serialization_seconds: float
    cache_level: str | None = None
    #: True when this request shared another request's in-flight execution.
    coalesced: bool = False
    #: Index of the shard that served the request (set by the sharded
    #: gateway; ``None`` when the response never crossed a shard wire).
    shard: int | None = None

    @property
    def rows(self) -> list[dict]:
        """The canonical row-dict view (materialised on first access)."""
        return self.result.to_rows()

    @property
    def num_rows(self) -> int:
        """Result cardinality without materialising any rows."""
        return self.result.num_rows

    @property
    def total_seconds(self) -> float:
        """End-to-end latency contribution of this request."""
        return self.server_seconds + self.network_seconds + self.serialization_seconds

    @property
    def from_cache(self) -> bool:
        """Whether any cache level served this request."""
        return self.cache_level is not None


@dataclass
class _ExecutionOutcome:
    """Backend-side result shared by all coalesced requesters."""

    result: Table
    server_seconds: float = 0.0
    #: Codec cost model of a fresh execution; ``None`` when the in-flight
    #: check found the result already published to the server cache.
    estimate: PayloadEstimate | None = None


class MiddlewareServer:
    """Simulated middleware tier.

    Parameters
    ----------
    database:
        The backend DBMS: any :class:`SQLBackend`.
    network:
        Default latency/bandwidth model of the client↔middleware link
        (sessions may override per request via :meth:`serve`).
    codec:
        Result serialisation codec (Arrow-like binary by default).
    enable_cache:
        Turn the two-level cache of Section 5.5 on or off.  Both built-in
        caches are LRU, sized by the :mod:`repro.net.cache` constants.
    scheduler:
        Optional :class:`RequestScheduler`; when given, backend queries
        run under its admission bound with single-flight coalescing.
    """

    def __init__(
        self,
        database: SQLBackend,
        network: NetworkModel | None = None,
        codec: Codec | None = None,
        enable_cache: bool = True,
        scheduler: RequestScheduler | None = None,
    ) -> None:
        self.database = database
        self.network = network or NetworkModel.lan()
        self.codec = codec or ArrowCodec()
        self.enable_cache = enable_cache
        self.scheduler = scheduler
        self.client_cache = QueryCache(CLIENT_CACHE_ENTRIES, name="client")
        self.server_cache = QueryCache(SERVER_CACHE_ENTRIES, name="server")
        #: Backend executions this middleware ran (coalesced and cached
        #: requests run none).
        self.stats = Counters("queries_executed")
        self.database.catalog.add_invalidation_listener(self.invalidate_table)

    # ------------------------------------------------------------------ #
    def cache_key(self, sql: str) -> str:
        """Cache key for ``sql``: namespaced by backend name."""
        return f"{self.database.name}::{sql}"

    # ------------------------------------------------------------------ #
    def execute(self, sql: str) -> QueryResponse:
        """Serve one SQL request for the default (single-user) session."""
        return self.serve(sql, client_cache=self.client_cache)

    def serve(
        self,
        sql: str,
        client_cache: QueryCache | None = None,
        network: NetworkModel | None = None,
    ) -> QueryResponse:
        """Serve one SQL request on behalf of one session.

        Lookup order follows the paper: the session's client cache, then
        the shared middleware cache (one round trip, tiny payload), then
        DBMS execution — through the scheduler's single flight when
        one is attached.

        Parameters
        ----------
        sql:
            The query to serve.
        client_cache:
            The *calling session's* client-side cache (``None`` = no
            client cache, e.g. cache-disabled runs).
        network:
            The calling session's link model; defaults to the
            middleware's own.
        """
        network = network or self.network
        key = self.cache_key(sql)
        if self.enable_cache:
            if client_cache is not None:
                client_hit = client_cache.get(key)
                if client_hit is not None:
                    return QueryResponse(
                        sql=sql,
                        result=client_hit.result,
                        payload_bytes=client_hit.payload_bytes,
                        server_seconds=0.0,
                        network_seconds=0.0,
                        serialization_seconds=0.0,
                        cache_level="client",
                    )
            server_hit = self.server_cache.get(key)
            if server_hit is not None:
                return self._respond_from_server_cache(
                    sql, key, server_hit.result, client_cache, network,
                )

        outcome, coalesced = self._execute_backend(key, sql)
        estimate = outcome.estimate
        if estimate is None:
            return self._respond_from_server_cache(
                sql, key, outcome.result, client_cache, network,
                coalesced=coalesced,
            )
        if self.enable_cache and client_cache is not None:
            client_cache.put(key, outcome.result, outcome.result.nbytes)
        return QueryResponse(
            sql=sql,
            result=outcome.result,
            payload_bytes=estimate.payload_bytes,
            server_seconds=outcome.server_seconds,
            network_seconds=network.transfer(estimate.payload_bytes).seconds,
            serialization_seconds=estimate.encode_seconds + estimate.decode_seconds,
            cache_level=None,
            coalesced=coalesced,
        )

    # ------------------------------------------------------------------ #
    def _respond_from_server_cache(
        self,
        sql: str,
        key: str,
        result: Table,
        client_cache: QueryCache | None,
        network: NetworkModel,
        coalesced: bool = False,
    ) -> QueryResponse:
        """A middleware-cache hit: one round trip, decode on the client.

        The transfer/decode cost is modelled from the codec (what the
        wire would carry), while the client-cache insertion charges the
        exact resident bytes — the two sizes serve different purposes.
        """
        estimate = self.codec.estimate_result(result)
        transfer = network.transfer(estimate.payload_bytes)
        if client_cache is not None:
            client_cache.put(key, result, result.nbytes)
        return QueryResponse(
            sql=sql,
            result=result,
            payload_bytes=estimate.payload_bytes,
            server_seconds=0.0,
            network_seconds=transfer.seconds,
            serialization_seconds=estimate.decode_seconds,
            cache_level="server",
            coalesced=coalesced,
        )

    def _execute_backend(self, key: str, sql: str) -> tuple[_ExecutionOutcome, bool]:
        """Run ``sql`` directly or through the single-flight scheduler.

        The flight key is scoped to the backend *instance*, not just its
        name: a scheduler shared between two runtimes whose backends
        happen to share a name ("sqlite") but hold different data must
        never coalesce their queries into one execution.
        """
        if self.scheduler is None:
            return self._load_or_execute(key, sql), False
        flight_key = f"{id(self.database)}::{key}"
        flight = self.scheduler.run(flight_key, lambda: self._load_or_execute(key, sql))
        return flight.value, flight.coalesced

    def _load_or_execute(self, key: str, sql: str) -> _ExecutionOutcome:
        """Execute on the DBMS and publish to the server cache.

        Re-checks the server cache first: a request that missed the cache
        before an in-flight leader published its result would otherwise
        re-execute after the flight retires.  With this check, a query is
        executed at most once per cache residency.
        """
        if self.enable_cache:
            published = self.server_cache.peek(key)
            if published is not None:
                return _ExecutionOutcome(published.result)
        result = self.database.execute(sql)
        self.stats.add(queries_executed=1)
        table = result.table
        if self.enable_cache:
            # Exact resident bytes, not the codec's wire estimate: the
            # byte count must charge what eviction later frees.
            self.server_cache.put(key, table, table.nbytes)
        return _ExecutionOutcome(
            table, result.elapsed_seconds, self.codec.estimate_result(table)
        )

    # ------------------------------------------------------------------ #
    def reset_caches(self) -> None:
        """Clear both built-in cache levels (between benchmark sessions)."""
        self.client_cache.clear()
        self.server_cache.clear()

    def invalidate_table(self, name: str) -> None:
        """Catalog listener: table ``name`` was replaced or dropped.

        Cache keys are SQL text, not table names, so every cached result
        is dropped rather than guessing which ones read ``name``.
        """
        self.reset_caches()
