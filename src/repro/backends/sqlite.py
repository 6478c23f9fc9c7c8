"""A server-side SQL backend built on the stdlib ``sqlite3`` module.

This is the first *independent* SQL implementation behind the
:class:`~repro.backends.base.SQLBackend` seam: results come from SQLite's
own parser/planner/executor, which makes it a true cross-check for the
embedded engine (the differential suite runs the shared query corpus
through both and asserts identical results).

Dialect shims applied to reach the shared semantics:

* ``NULLS LAST`` / ``NULLS FIRST`` are emitted by the SQL generator
  (driven by :data:`SQLITE_CAPABILITIES`) because SQLite natively sorts
  NULL smallest, while the contract is NULL last under ASC / first under
  DESC,
* running window aggregates get an explicit ``ROWS UNBOUNDED PRECEDING``
  frame because SQLite defaults to the RANGE frame, which assigns peer
  rows the same running total,
* ``MEDIAN`` / ``STDDEV`` / ``VARIANCE`` are registered as Python
  aggregate UDFs matching the embedded kernels (median interpolates
  between the middle two values; stddev/variance are sample statistics
  with NULL below two inputs),
* math scalar functions (``FLOOR``, ``CEIL``, ...) are registered as UDFs
  only when the linked SQLite build lacks them
  (``SQLITE_ENABLE_MATH_FUNCTIONS`` is common but not guaranteed),
* ``ROUND`` is always replaced by a UDF that rounds ties to even, as the
  engine (``np.round``) and the client evaluator (``round``) do — native
  SQLite rounds ties away from zero,
* NaN is stored as NULL on load — SQLite has no NaN, and NaN *is* the
  embedded engine's NULL encoding.

Concurrency: ``sqlite3`` connections must not be shared across threads,
so the backend keeps **one connection per thread** over a single
shared-cache in-memory database (``file:...?mode=memory&cache=shared``).
All connections see the same tables; UDFs are (re-)registered on each
connection as it is created.  A keeper connection opened at construction
pins the in-memory database alive for the backend's lifetime.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import sqlite3
import threading
import time
from collections.abc import Mapping, Sequence

import numpy as np

from repro.backends.base import BackendCapabilities, SQLBackend
from repro.errors import ExecutionError, ReproError
from repro.sql.engine import EngineMetrics, QueryResult
from repro.sql.executor import ExecutionStats
from repro.sql.ivm import IVMConfig, IVMManager
from repro.sql.plancache import PlanCache
from repro.sql.planner import LogicalPlan
from repro.storage.catalog import Catalog
from repro.storage.sqlite_adapter import load_table, quote_identifier, table_from_cursor
from repro.storage.statistics import TableStatistics
from repro.storage.table import Table

#: Dialect description of SQLite (3.30+ for the NULLS ordering clause).
#: Concurrency comes from per-thread connections over one shared-cache
#: in-memory database, so parallel reads never share a connection object.
SQLITE_CAPABILITIES = BackendCapabilities(
    name="sqlite",
    supports_window_functions=True,
    supports_nulls_ordering_clause=True,
    nulls_sort_largest=False,
    default_window_frame_is_rows=False,
    thread_safe=True,
    connection_strategy="per-thread",
)

#: Scalar math functions registered as UDFs when the build lacks them.
_SCALAR_FALLBACKS: dict[str, tuple[int, object]] = {
    "FLOOR": (1, lambda x: None if x is None else math.floor(x)),
    "CEIL": (1, lambda x: None if x is None else math.ceil(x)),
    "SQRT": (1, lambda x: None if x is None else math.sqrt(x)),
    "LN": (1, lambda x: None if x is None else math.log(x)),
    "EXP": (1, lambda x: None if x is None else math.exp(x)),
    "POWER": (2, lambda x, y: None if x is None or y is None else float(x) ** float(y)),
}


def _round(value: float | None, digits: float | None = 0) -> float | None:
    """``ROUND`` as the engine computes it (``functions._scalar_round``)."""
    if value is None:
        return None
    return float(np.round(float(value), 0 if digits is None else int(digits)))


#: Clauses the SQL generator adds for this dialect; stripped before the
#: embedded planner sees the text (it has no such syntax).
_DIALECT_CLAUSES = (" NULLS LAST", " NULLS FIRST", " ROWS UNBOUNDED PRECEDING")


def _strip_dialect(sql: str) -> str:
    for clause in _DIALECT_CLAUSES:
        sql = sql.replace(clause, "")
    return sql


class _NumpyAggregate:
    """Base for UDF aggregates that collect values and reduce with numpy."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def step(self, value: object) -> None:
        if value is None:
            return
        self.values.append(float(value))


class _Median(_NumpyAggregate):
    def finalize(self) -> float | None:
        if not self.values:
            return None
        return float(np.median(self.values))


class _Stddev(_NumpyAggregate):
    def finalize(self) -> float | None:
        if len(self.values) < 2:
            return None
        return float(np.std(self.values, ddof=1))


class _Variance(_NumpyAggregate):
    def finalize(self) -> float | None:
        if len(self.values) < 2:
            return None
        return float(np.var(self.values, ddof=1))


class SqliteBackend(SQLBackend):
    """An in-memory SQLite database behind the backend seam.

    Registered tables are mirrored twice: loaded into SQLite for
    execution, and kept in a :class:`Catalog` so the optimizer's plan
    encoder sees the same table statistics it would on the embedded
    backend.

    Each thread that touches the backend gets its own ``sqlite3``
    connection to one shared-cache in-memory database, so concurrent
    sessions (each request runs on the serving tier's handler thread
    that received it) never violate sqlite3's one-thread-per-connection
    rule while still reading the same tables.

    Crossfilter-style brush sequences are additionally served through the
    shared incremental-view-maintenance subsystem (:mod:`repro.sql.ivm`):
    eligible aggregate queries are answered by delta-maintaining a
    materialized view instead of re-running the SQL on SQLite.  Because
    the IVM kernels are the *embedded* engine's, strict eligibility rules
    (``IVMConfig(strict=True)``) restrict maintenance to query shapes
    whose results are bit-identical across both engines — everything else
    falls through to SQLite untouched.

    Parameters
    ----------
    ivm:
        When True (default) brush sequences over eligible aggregates are
        answered via incremental view maintenance instead of SQL
        re-execution.
    ivm_config:
        Overrides the IVM tuning knobs; ``strict`` is forced to True
        because only the strict shape subset is cross-engine exact.
    """

    name = "sqlite"

    #: Distinguishes the shared-cache URI of each live backend instance.
    _instance_ids = itertools.count()

    def __init__(self, ivm: bool = True, ivm_config: IVMConfig | None = None) -> None:
        self._uri = (
            f"file:repro-sqlite-{os.getpid()}-{next(self._instance_ids)}"
            "?mode=memory&cache=shared"
        )
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        self._catalog = Catalog()
        self._metrics = EngineMetrics()
        if ivm:
            config = ivm_config if ivm_config is not None else IVMConfig()
            config = dataclasses.replace(config, strict=True)
            self._ivm: IVMManager | None = IVMManager(
                self._catalog, metrics=self._metrics, config=config
            )
        else:
            self._ivm = None
        # Parsing each brush step anew would dominate the delta-maintenance
        # cost the IVM interception is meant to save.
        self._plans = PlanCache(self._metrics)
        # The keeper: the shared in-memory database lives exactly as long
        # as at least one connection to its URI is open.
        self._keeper = self.connection

    # ------------------------------------------------------------------ #
    @property
    def capabilities(self) -> BackendCapabilities:
        return SQLITE_CAPABILITIES

    @property
    def metrics(self) -> EngineMetrics:
        return self._metrics

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def ivm(self) -> IVMManager | None:
        """The backend's IVM view manager (``None`` when disabled)."""
        return self._ivm

    @property
    def connection(self) -> sqlite3.Connection:
        """The calling thread's connection (created on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            if self._closed:
                raise ExecutionError("sqlite backend is closed")
            return connection
        if self._closed:
            raise ExecutionError("sqlite backend is closed")
        connection = sqlite3.connect(
            self._uri, uri=True, timeout=10.0, check_same_thread=False
        )
        self._register_functions(connection)
        with self._connections_lock:
            # Atomic with close(): a connection opened while close() runs
            # must not resurrect an empty shared-cache database or leak.
            if self._closed:
                connection.close()
                raise ExecutionError("sqlite backend is closed")
            self._connections.append(connection)
        self._local.connection = connection
        return connection

    def connection_count(self) -> int:
        """Number of per-thread connections opened so far."""
        with self._connections_lock:
            return len(self._connections)

    # ------------------------------------------------------------------ #
    # Table registration
    # ------------------------------------------------------------------ #
    def register_table(self, name: str, table: Table, replace: bool = False) -> None:
        self._catalog.register(name, table, replace=replace)
        load_table(self.connection, name, self._catalog.get(name), replace=replace)

    def register_rows(
        self,
        name: str,
        rows: Sequence[Mapping[str, object]],
        replace: bool = False,
        column_order: Sequence[str] | None = None,
    ) -> None:
        self.register_table(
            name,
            Table.from_rows(rows, name=name, column_order=column_order),
            replace=replace,
        )

    def register_columns(
        self, name: str, data: Mapping[str, Sequence[object]], replace: bool = False
    ) -> None:
        """Register a table created from a column mapping."""
        self.register_table(name, Table.from_columns(data, name=name), replace=replace)

    def drop_table(self, name: str) -> None:
        self._catalog.drop(name)
        connection = self.connection
        connection.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")
        connection.commit()

    def table_names(self) -> list[str]:
        return self._catalog.table_names()

    def table(self, name: str) -> Table:
        return self._catalog.get(name)

    def table_statistics(self, name: str) -> TableStatistics:
        return self._catalog.statistics(name)

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def execute(self, sql: str) -> QueryResult:
        """Execute ``sql`` on SQLite and return a :class:`QueryResult`."""
        if self._ivm is not None:
            start = time.perf_counter()
            plan = self._logical_plan(sql)
            hit = self._ivm.attempt(plan) if plan is not None else None
            if hit is not None:
                table, stats = hit
                result = QueryResult(
                    sql=sql,
                    table=table,
                    elapsed_seconds=time.perf_counter() - start,
                    stats=stats,
                )
                self._metrics.record(result)
                return result
        start = time.perf_counter()
        try:
            cursor = self.connection.execute(sql)
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            raise ExecutionError(f"sqlite backend failed to execute {sql!r}: {exc}") from exc
        elapsed = time.perf_counter() - start
        table = table_from_cursor(cursor.description, rows)
        result = QueryResult(sql=sql, table=table, elapsed_seconds=elapsed, stats=ExecutionStats())
        self._metrics.record(result)
        return result

    def _logical_plan(self, sql: str) -> LogicalPlan | None:
        """The embedded logical plan for ``sql`` (through the shared
        :class:`PlanCache`), or ``None`` when the embedded parser cannot
        read it (sqlite-only syntax) — SQLite then answers it untouched."""
        try:
            return self._plans.plan(_strip_dialect(sql))
        except ReproError:
            return None

    def clear_plan_cache(self) -> None:
        self._plans.clear()

    def close(self) -> None:
        """Close every per-thread connection (frees the shared database)."""
        with self._connections_lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except sqlite3.ProgrammingError:
                pass  # already closed by its owning thread

    # ------------------------------------------------------------------ #
    @staticmethod
    def _register_functions(connection: sqlite3.Connection) -> None:
        """Install aggregate UDFs, ``ROUND`` and any missing math scalar
        functions.

        UDFs are connection-scoped in sqlite3, so this runs once per
        per-thread connection.  A UDF overrides the built-in of the same
        name and arity.
        """
        connection.create_aggregate("MEDIAN", 1, _Median)
        connection.create_aggregate("STDDEV", 1, _Stddev)
        connection.create_aggregate("VARIANCE", 1, _Variance)
        connection.create_function("ROUND", 1, _round, deterministic=True)
        connection.create_function("ROUND", 2, _round, deterministic=True)
        for function_name, (arity, impl) in _SCALAR_FALLBACKS.items():
            probe = f"SELECT {function_name}({', '.join(['1.0'] * arity)})"
            try:
                connection.execute(probe)
            except sqlite3.OperationalError:
                connection.create_function(function_name, arity, impl)
