"""The SQL backend front door, and the embedded engine behind it.

:class:`SQLBackend` is the server-side seam the middleware, optimizer and
benchmarks talk to.  It owns, once for every backend, the catalog of
registered tables, the prepared-plan cache, the optional incremental
view maintenance (:mod:`repro.sql.ivm`) and the cumulative engine
:class:`~repro.metrics.Counters`.  :class:`Database`, the ``"embedded"``
backend and the public entry point of :mod:`repro.sql`, adds only its
numpy re-scan (tokenize → parse → plan → optimise → execute) and
``repartition``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.metrics import Counters
from repro.sql.executor import ExecutionStats, Executor
from repro.sql.ivm import IVMManager
from repro.sql.plancache import PlanCache
from repro.sql.planner import LogicalPlan
from repro.storage.catalog import Catalog
from repro.storage.statistics import TableStatistics
from repro.storage.table import PartitionedTable, Table


@dataclass
class QueryResult:
    """Result of executing one SQL query."""

    sql: str
    table: Table
    elapsed_seconds: float
    stats: ExecutionStats

    @property
    def num_rows(self) -> int:
        """Number of rows in the result."""
        return self.table.num_rows

    def to_rows(self) -> list[dict[str, object]]:
        """Result as a list of row dictionaries (cached on the table)."""
        return self.table.to_rows()


#: :class:`ExecutionStats` fields summed into the counter of the same name.
_STATS_COUNTERS = (
    "rows_grouped",
    "groups_formed",
    "rows_sorted",
    "rows_deduplicated",
    "partitions_scanned",
    "partitions_pruned",
    "morsel_tasks",
    "morsel_tasks_inline",
)


#: Every engine counter, in snapshot order.
ENGINE_COUNTERS = (
    "queries_executed",
    "execution_seconds",
    "rows_returned",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_template_hits",
    "plan_template_misses",
    "queries_parsed",
    *_STATS_COUNTERS,
    "ivm_views",
    "ivm_hits",
    "ivm_delta_rows",
    "ivm_rescan_rows_avoided",
    "ivm_fallbacks",
    "ivm_fallback_rows",
    "ivm_invalidations",
)


class SQLBackend:
    """A server-side SQL engine: the one front door every backend shares.

    Registration, lookups, planning through the :class:`PlanCache`, the
    IVM attempt, :class:`QueryResult` assembly and metrics live here.  A
    backend sets :attr:`name` and implements :meth:`_rescan`; one that
    keeps its own copy of the data also overrides :meth:`_load` /
    :meth:`_unload`.  Every backend reads the same SQL text.

    Every backend must honour the result contract pinned by
    ``tests/test_backends_differential.py``: NULL sorts last under ``ASC``
    and first under ``DESC``, cross-type keys order numbers < strings <
    NULL, aggregates skip NULLs, and ``STDDEV``/``VARIANCE`` are sample
    statistics (``ddof=1``, NULL below two values).  ``docs/BACKENDS.md``
    documents the contract in prose.

    Parameters
    ----------
    ivm:
        When True (default) eligible crossfilter-style queries are
        answered from prefiltered index tiles built per query shape (see
        :mod:`repro.sql.ivm`); results are bit-identical to a full
        re-scan by construction.
    """

    #: Short identifier used in cache keys, benchmark output and logs.
    name: str
    #: Whether IVM applies the extra eligibility rules that keep a view's
    #: results bit-identical to an engine other than the embedded one.
    strict_ivm = False

    def __init__(self, ivm: bool = True) -> None:
        #: The registered tables (statistics, zone maps and
        #: table-replacement events).
        self.catalog = Catalog()
        #: Cumulative counters; the benchmarks diff ``metrics.snapshot()``.
        self.metrics = Counters(*ENGINE_COUNTERS)
        self._plans = PlanCache(self.metrics)
        #: The IVM view manager (``None`` when disabled).
        self.ivm: IVMManager | None = (
            IVMManager(self.catalog, self.metrics, strict=self.strict_ivm)
            if ivm
            else None
        )

    # ------------------------------------------------------------------ #
    # Table registration
    # ------------------------------------------------------------------ #
    def register_table(self, name: str, table: Table, replace: bool = False) -> None:
        """Register an existing :class:`Table` under ``name``.

        The backend's own copy is loaded before the catalog entry is
        swapped: the swap fires the catalog's invalidation listeners, and
        a query they trigger must already read the new rows.
        """
        self.catalog.check_register(name, replace)
        self._load(name, table)
        self.catalog.register(name, table, replace=replace)

    def register_rows(
        self,
        name: str,
        rows: Sequence[Mapping[str, object]],
        replace: bool = False,
        column_order: Sequence[str] | None = None,
    ) -> None:
        """Register a table created from row dictionaries."""
        self.register_table(
            name, Table.from_rows(rows, name=name, column_order=column_order), replace
        )

    def drop_table(self, name: str) -> None:
        """Remove a registered table (the backend's copy first, as above)."""
        self._unload(name)
        self.catalog.drop(name)

    def table(self, name: str) -> Table:
        """Return a registered table."""
        return self.catalog.get(name)

    def table_statistics(self, name: str) -> TableStatistics:
        """Statistics for a registered table."""
        return self.catalog.statistics(name)

    def _load(self, name: str, table: Table) -> None:
        """Copy ``table`` into the backend's own storage (none by default)."""

    def _unload(self, name: str) -> None:
        """Remove ``name`` from the backend's own storage (none by default)."""

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def plan(self, sql: str) -> LogicalPlan:
        """Parse and optimise ``sql`` through the :class:`PlanCache`, so
        repeated interactive queries (crossfilter, overview+detail) skip
        the whole tokenize → parse → plan → optimise pipeline: a re-issued
        text is a lookup, a known shape with new values a bind."""
        return self._plans.plan(sql)

    def clear_plan_cache(self) -> None:
        """Drop all cached plans and shape plans."""
        self._plans.clear()

    def execute(self, sql: str) -> QueryResult:
        """Execute ``sql`` and return a :class:`QueryResult`.

        ``elapsed_seconds`` runs from the end of planning to the result
        :class:`Table`: the IVM attempt plus, when it declines, the
        backend's re-scan including its conversion to a table.
        """
        plan = self._prepare(sql)
        start = time.perf_counter()
        hit = self.ivm.attempt(plan) if self.ivm is not None and plan is not None else None
        table, stats = hit if hit is not None else self._rescan(sql, plan)
        elapsed = time.perf_counter() - start
        self.metrics.add(
            queries_executed=1,
            execution_seconds=elapsed,
            rows_returned=table.num_rows,
            **{counter: getattr(stats, counter) for counter in _STATS_COUNTERS},
        )
        return QueryResult(sql=sql, table=table, elapsed_seconds=elapsed, stats=stats)

    def _prepare(self, sql: str) -> LogicalPlan | None:
        """The plan :meth:`execute` offers to IVM and to :meth:`_rescan`."""
        return self.plan(sql)

    def _rescan(
        self, sql: str, plan: LogicalPlan | None
    ) -> tuple[Table, ExecutionStats]:
        """Answer a query IVM declined, by executing it on the backend."""
        raise NotImplementedError

    def stats(self) -> dict[str, float]:
        """Flat snapshot of the backend's cumulative engine counters."""
        return self.metrics.snapshot()

    def close(self) -> None:
        """Release backend resources (nothing to release by default)."""


class Database(SQLBackend):
    """An embedded, in-memory analytical SQL database: the default backend.

    It is the semantic reference for the differential suite: the engine
    was built to the shared contract (numbers < strings < NULL, NULL last
    under ASC / first under DESC, ROWS-frame running aggregates), so the
    ``NULLS`` and ``ROWS`` clauses the rewrite layer writes only restate
    what it does anyway.
    """

    name = "embedded"

    def _rescan(self, sql: str, plan: LogicalPlan) -> tuple[Table, ExecutionStats]:
        return Executor(self.catalog).execute(plan)

    def repartition(self, name: str, target_rows: int) -> None:
        """Re-register ``name`` as a :class:`PartitionedTable`.

        The table is split into contiguous chunks of about
        ``target_rows`` rows; per-partition zone maps are computed lazily
        by the catalog, and from then on a filter directly above a scan
        of the table skips the partitions its zone maps rule out.
        """
        table = PartitionedTable.from_table(self.table(name), target_rows)
        self.register_table(name, table, replace=True)
