"""A server-side SQL backend built on the stdlib ``sqlite3`` module.

This is the first *independent* SQL implementation behind the
:class:`~repro.sql.engine.SQLBackend` front door: results come from
SQLite's own parser/planner/executor, which makes it a true cross-check
for the embedded engine (the differential suite runs the shared query
corpus through both and asserts identical results).

Both engines read one SQL text.  The rewrite layer writes the result
contract into it — ``NULLS LAST`` under ASC and ``NULLS FIRST`` under
DESC (SQLite natively sorts NULL smallest), and ``ROWS UNBOUNDED
PRECEDING`` on running window aggregates (SQLite defaults to the RANGE
frame, which gives peer rows one running total) — and the embedded
parser accepts exactly those clauses.  What SQLite still lacks is
supplied here:

* ``MEDIAN`` / ``STDDEV`` / ``VARIANCE`` are registered as Python
  aggregate UDFs that reduce through the embedded engine's own kernel
  (median interpolates between the middle two values; stddev/variance
  are sample statistics with NULL below two inputs),
* math scalar functions (``FLOOR``, ``CEIL``, ...) are registered as UDFs
  only when the linked SQLite build lacks them
  (``SQLITE_ENABLE_MATH_FUNCTIONS`` is common but not guaranteed),
* ``ROUND`` is always replaced by a UDF that rounds ties to even, as the
  engine (``np.round``) and the client evaluator (``round``) do — native
  SQLite rounds ties away from zero,
* NaN is stored as NULL on load — SQLite has no NaN, and NaN *is* the
  embedded engine's NULL encoding.

Physical design: each table is loaded with an index on every column
:func:`~repro.storage.statistics.sorted_columns` names (NULL-free,
numeric, never decreasing in storage order), so a range filter on one
becomes an index range search.  Entries of such an index run in
``(value, rowid)`` order, which for a sorted column is rowid order: an
unordered query and an ascending ``ORDER BY`` return rows in the order
a full scan does (a descending one scans the index backwards, which
reverses its ties; tie order is outside the result contract).  No other
column is indexed: this SQLite build has no STAT4, so it would use any
usable index for any range, and an index on an unsorted column makes a
wide range slower than a scan.

Concurrency: ``sqlite3`` connections must not be shared across threads,
so the backend keeps **one connection per thread** over a single
shared-cache in-memory database (``file:...?mode=memory&cache=shared``).
All connections see the same tables; UDFs are (re-)registered on each
connection as it is created.  A keeper connection opened at construction
pins the in-memory database alive for the backend's lifetime.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sqlite3
import threading

import numpy as np

from repro.errors import ExecutionError, ReproError
from repro.sql.engine import SQLBackend
from repro.sql.executor import ExecutionStats
from repro.sql.functions import aggregate_segments
from repro.sql.planner import LogicalPlan
from repro.storage.sqlite_adapter import (
    create_index_sql,
    load_table,
    quote_identifier,
    table_from_cursor,
)
from repro.storage.statistics import sorted_columns
from repro.storage.table import Table

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


class _KernelAggregate:
    """A UDF aggregate that collects its non-NULL values and reduces them
    through the engine's kernel, :func:`~repro.sql.functions.aggregate_segments`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def step(self, value: object) -> None:
        if value is not None:
            self.values.append(float(value))

    def finalize(self) -> float | None:
        values = np.asarray(self.values, dtype=np.float64)
        (result,) = aggregate_segments(self.name, values, [0], [len(values)])
        return None if np.isnan(result) else float(result)


class SqliteBackend(SQLBackend):
    """An in-memory SQLite database behind the backend front door.

    Registered tables are mirrored into SQLite for execution; the front
    door's catalog keeps them too, so the optimizer's plan encoder sees
    the same table statistics it would on the embedded backend.

    Each thread that touches the backend gets its own ``sqlite3``
    connection to one shared-cache in-memory database, so concurrent
    sessions (each request runs on the serving tier's handler thread
    that received it) never violate sqlite3's one-thread-per-connection
    rule while still reading the same tables.

    Crossfilter-style brush sequences are served through the front
    door's incremental view maintenance (:mod:`repro.sql.ivm`) before
    SQLite sees them.  Because the IVM kernels are the *embedded*
    engine's, this backend's :attr:`strict_ivm` eligibility rules restrict
    maintenance to query shapes whose results are bit-identical across
    both engines — everything else falls through to SQLite untouched.
    """

    name = "sqlite"
    strict_ivm = True

    #: Distinguishes the shared-cache URI of each live backend instance.
    _instance_ids = itertools.count()

    def __init__(self, ivm: bool = True) -> None:
        super().__init__(ivm)
        self._uri = (
            f"file:repro-sqlite-{os.getpid()}-{next(self._instance_ids)}"
            "?mode=memory&cache=shared"
        )
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        # The keeper: the shared in-memory database lives exactly as long
        # as at least one connection to its URI is open.
        self._keeper = self.connection

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

    # ------------------------------------------------------------------ #
    # What differs from the front door
    # ------------------------------------------------------------------ #
    def _load(self, name: str, table: Table) -> None:
        connection = self.connection
        load_table(connection, name, table, replace=True)
        for column in sorted_columns(table):
            connection.execute(create_index_sql(name, column))
        connection.commit()

    def _unload(self, name: str) -> None:
        connection = self.connection
        connection.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")
        connection.commit()

    def _prepare(self, sql: str) -> LogicalPlan | None:
        """The embedded plan IVM is asked about, or ``None`` when IVM is
        off or the embedded parser cannot read the text (sqlite-only
        syntax) — SQLite then answers it untouched.
        """
        if self.ivm is None:
            return None
        try:
            return self.plan(sql)
        except ReproError:
            return None

    def _rescan(
        self, sql: str, plan: LogicalPlan | None
    ) -> tuple[Table, ExecutionStats]:
        try:
            cursor = self.connection.execute(sql)
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            raise ExecutionError(f"sqlite backend failed to execute {sql!r}: {exc}") from exc
        return table_from_cursor(cursor.description, rows), ExecutionStats()

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
        functions, and make ``LIKE`` case-sensitive.

        UDFs and pragmas are connection-scoped in sqlite3, so this runs
        once per per-thread connection.  A UDF overrides the built-in of
        the same name and arity.  sqlite's ``LIKE`` folds ASCII case by
        default; the embedded engine, like the SQL standard, does not.
        """
        connection.execute("PRAGMA case_sensitive_like = ON")
        for name in ("MEDIAN", "STDDEV", "VARIANCE"):
            connection.create_aggregate(name, 1, functools.partial(_KernelAggregate, name))
        connection.create_function("ROUND", 1, _round, deterministic=True)
        connection.create_function("ROUND", 2, _round, deterministic=True)
        for function_name, (arity, impl) in _SCALAR_FALLBACKS.items():
            probe = f"SELECT {function_name}({', '.join(['1.0'] * arity)})"
            try:
                connection.execute(probe)
            except sqlite3.OperationalError:
                connection.create_function(function_name, arity, impl)
