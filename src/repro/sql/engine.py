"""The `Database` facade: a DuckDB-like embedded SQL engine.

This is the public entry point of :mod:`repro.sql` and the ``"embedded"``
:class:`~repro.backends.base.SQLBackend`.  It owns a catalog of registered
tables and runs the full pipeline (tokenize → parse → plan → optimise →
execute) for each query, recording timing and row counts so the VegaPlus
optimizer and the benchmark harness can observe server-side work.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.backends.base import BackendCapabilities, SQLBackend
from repro.sql.executor import ExecutionStats, Executor
from repro.sql.ivm import IVMConfig, IVMManager
from repro.sql.plancache import PlanCache
from repro.sql.planner import LogicalPlan
from repro.storage.catalog import Catalog
from repro.storage.resultset import ResultSet
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

    @property
    def num_columns(self) -> int:
        """Number of columns in the result."""
        return self.table.num_columns

    def to_rows(self) -> list[dict[str, object]]:
        """Result as a list of row dictionaries."""
        return self.table.to_rows()

    def result_set(self) -> ResultSet:
        """The result as a zero-copy columnar :class:`ResultSet` (cached).

        Shares the result table's numpy arrays — no rows are
        materialised.  This is what the serving path transports; row
        dicts only exist once a final consumer calls ``rows()`` on it.
        """
        rset = getattr(self, "_result_set", None)
        if rset is None:
            rset = ResultSet.from_table(self.table)
            self._result_set = rset
        return rset

    def to_columns(self) -> dict[str, list[object]]:
        """Result as a mapping column -> values."""
        return self.table.to_columns()

    def result_bytes(self) -> int:
        """Approximate size of the result payload, for transfer modelling."""
        return self.table.nbytes()


@dataclass
class EngineMetrics:
    """Cumulative engine-level metrics across all executed queries.

    Counters are updated under an internal lock so backends serving
    concurrent sessions (:mod:`repro.server`) never lose increments to
    read-modify-write races.
    """

    queries_executed: int = 0
    total_execution_seconds: float = 0.0
    total_rows_returned: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_template_hits: int = 0
    plan_template_misses: int = 0
    queries_parsed: int = 0
    total_rows_grouped: int = 0
    total_groups_formed: int = 0
    total_rows_sorted: int = 0
    total_rows_deduplicated: int = 0
    total_partitions_scanned: int = 0
    total_partitions_pruned: int = 0
    total_morsel_tasks: int = 0
    total_morsel_tasks_inline: int = 0
    ivm_views: int = 0
    ivm_hits: int = 0
    ivm_delta_rows: int = 0
    ivm_rescan_rows_avoided: int = 0
    ivm_fallbacks: int = 0
    ivm_fallback_rows: int = 0
    ivm_invalidations: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def record(self, result: QueryResult) -> None:
        """Record one executed query."""
        with self._lock:
            self.queries_executed += 1
            self.total_execution_seconds += result.elapsed_seconds
            self.total_rows_returned += result.num_rows
            self.total_rows_grouped += result.stats.rows_grouped
            self.total_groups_formed += result.stats.groups_formed
            self.total_rows_sorted += result.stats.rows_sorted
            self.total_rows_deduplicated += result.stats.rows_deduplicated
            self.total_partitions_scanned += result.stats.partitions_scanned
            self.total_partitions_pruned += result.stats.partitions_pruned
            self.total_morsel_tasks += result.stats.morsel_tasks
            self.total_morsel_tasks_inline += result.stats.morsel_tasks_inline

    def count(self, counter: str) -> None:
        """Add one to the named counter field (the plan cache's hit /
        miss / parse accounting)."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def record_ivm_view(self) -> None:
        """Count one materialized view registration."""
        with self._lock:
            self.ivm_views += 1

    def record_ivm_hit(self, delta_rows: int, rows_avoided: int) -> None:
        """Count one query answered from a maintained view.

        ``delta_rows`` is how many rows entered/left the brush range;
        ``rows_avoided`` is the full-scan row count the engine skipped.
        """
        with self._lock:
            self.ivm_hits += 1
            self.ivm_delta_rows += delta_rows
            self.ivm_rescan_rows_avoided += rows_avoided

    def record_ivm_fallback(self, count: int, rows: int) -> None:
        """Count MIN/MAX retraction re-scans (and the rows they touched)."""
        with self._lock:
            self.ivm_fallbacks += count
            self.ivm_fallback_rows += rows

    def record_ivm_invalidations(self, count: int) -> None:
        """Count views dropped by a catalog re-register/drop."""
        with self._lock:
            self.ivm_invalidations += count

    def snapshot(self) -> dict[str, float]:
        """Current counter values as a flat mapping (for delta reporting)."""
        with self._lock:
            return {
                "queries_executed": float(self.queries_executed),
                "execution_seconds": float(self.total_execution_seconds),
                "rows_returned": float(self.total_rows_returned),
                "plan_cache_hits": float(self.plan_cache_hits),
                "plan_cache_misses": float(self.plan_cache_misses),
                "plan_template_hits": float(self.plan_template_hits),
                "plan_template_misses": float(self.plan_template_misses),
                "queries_parsed": float(self.queries_parsed),
                "rows_grouped": float(self.total_rows_grouped),
                "groups_formed": float(self.total_groups_formed),
                "rows_sorted": float(self.total_rows_sorted),
                "rows_deduplicated": float(self.total_rows_deduplicated),
                "partitions_scanned": float(self.total_partitions_scanned),
                "partitions_pruned": float(self.total_partitions_pruned),
                "morsel_tasks": float(self.total_morsel_tasks),
                "morsel_tasks_inline": float(self.total_morsel_tasks_inline),
                "ivm_views": float(self.ivm_views),
                "ivm_hits": float(self.ivm_hits),
                "ivm_delta_rows": float(self.ivm_delta_rows),
                "ivm_rescan_rows_avoided": float(self.ivm_rescan_rows_avoided),
                "ivm_fallbacks": float(self.ivm_fallbacks),
                "ivm_fallback_rows": float(self.ivm_fallback_rows),
                "ivm_invalidations": float(self.ivm_invalidations),
            }

    def reset(self) -> None:
        """Clear all counters (used between benchmark runs)."""
        with self._lock:
            self.queries_executed = 0
            self.total_execution_seconds = 0.0
            self.total_rows_returned = 0
            self.plan_cache_hits = 0
            self.plan_cache_misses = 0
            self.plan_template_hits = 0
            self.plan_template_misses = 0
            self.queries_parsed = 0
            self.total_rows_grouped = 0
            self.total_groups_formed = 0
            self.total_rows_sorted = 0
            self.total_rows_deduplicated = 0
            self.total_partitions_scanned = 0
            self.total_partitions_pruned = 0
            self.total_morsel_tasks = 0
            self.total_morsel_tasks_inline = 0
            self.ivm_views = 0
            self.ivm_hits = 0
            self.ivm_delta_rows = 0
            self.ivm_rescan_rows_avoided = 0
            self.ivm_fallbacks = 0
            self.ivm_fallback_rows = 0
            self.ivm_invalidations = 0


#: Dialect description of the embedded engine.  Concurrent execution is
#: safe because the engine's shared mutable state (plan-cache LRU, metrics
#: counters, catalog registry) is internally locked; query execution
#: itself only reads the immutable column arrays.
EMBEDDED_CAPABILITIES = BackendCapabilities(
    name="embedded",
    supports_window_functions=True,
    supports_nulls_ordering_clause=False,
    nulls_sort_largest=True,
    default_window_frame_is_rows=True,
    thread_safe=True,
    connection_strategy="shared",
    partitioning=True,
)


class Database(SQLBackend):
    """An embedded, in-memory analytical SQL database: the default backend.

    It is the semantic reference for the differential suite — its dialect
    needs no NULL-ordering or window-frame shims because the engine was
    built to the shared contract (numbers < strings < NULL, NULL last
    under ASC / first under DESC, ROWS-frame running aggregates).

    Parameters
    ----------
    ivm:
        When True (default) eligible crossfilter-style queries are
        answered by incrementally maintained materialized views (see
        :mod:`repro.sql.ivm`); results are bit-identical to a full
        re-scan by construction.  ``ivm_config`` overrides the view
        registry's tunables.
    """

    name = "embedded"

    def __init__(
        self,
        plan_cache_size: int = 256,
        ivm: bool = True,
        ivm_config: IVMConfig | None = None,
    ) -> None:
        self._catalog = Catalog()
        self._metrics = EngineMetrics()
        self._plans = PlanCache(self._metrics, plan_cache_size)
        self.ivm: IVMManager | None = (
            IVMManager(self._catalog, metrics=self._metrics, config=ivm_config)
            if ivm
            else None
        )

    @property
    def capabilities(self) -> BackendCapabilities:
        return EMBEDDED_CAPABILITIES

    @property
    def metrics(self) -> EngineMetrics:
        """Cumulative counters across every executed query."""
        return self._metrics

    # ------------------------------------------------------------------ #
    # Table registration
    # ------------------------------------------------------------------ #
    def register_table(self, name: str, table: Table, replace: bool = False) -> None:
        """Register an existing :class:`Table` under ``name``."""
        self._catalog.register(name, table, replace=replace)

    def register_rows(
        self,
        name: str,
        rows: Sequence[Mapping[str, object]],
        replace: bool = False,
        column_order: Sequence[str] | None = None,
    ) -> None:
        """Register a table created from row dictionaries."""
        self._catalog.register_rows(name, rows, replace=replace, column_order=column_order)

    def register_columns(
        self, name: str, data: Mapping[str, Sequence[object]], replace: bool = False
    ) -> None:
        """Register a table created from a column mapping."""
        self._catalog.register(name, Table.from_columns(data, name=name), replace=replace)

    def repartition(self, name: str, target_rows: int) -> None:
        """Re-register ``name`` as a :class:`PartitionedTable`.

        The table is split into contiguous chunks of about
        ``target_rows`` rows; per-partition zone maps are computed lazily
        by the catalog, and queries over the table run partition by
        partition with zone-map pruning from then on.
        """
        table = self._catalog.get(name)
        self._catalog.register(
            name, PartitionedTable.from_table(table, target_rows), replace=True
        )

    def drop_table(self, name: str) -> None:
        """Remove a registered table."""
        self._catalog.drop(name)

    def table_names(self) -> list[str]:
        """Names of registered tables."""
        return self._catalog.table_names()

    def table(self, name: str) -> Table:
        """Return a registered table."""
        return self._catalog.get(name)

    def table_statistics(self, name: str) -> TableStatistics:
        """Statistics for a registered table."""
        return self._catalog.statistics(name)

    @property
    def catalog(self) -> Catalog:
        """The underlying catalog (shared with the executor)."""
        return self._catalog

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def plan(self, sql: str) -> LogicalPlan:
        """Parse and optimise ``sql`` through the :class:`PlanCache`, so
        repeated interactive queries (crossfilter, overview+detail) skip
        the parse, or the whole tokenize → parse → plan → optimise
        pipeline."""
        return self._plans.plan(sql)

    def clear_plan_cache(self) -> None:
        """Drop all cached prepared plans and plan templates."""
        self._plans.clear()

    def execute(self, sql: str) -> QueryResult:
        """Execute ``sql`` and return a :class:`QueryResult`."""
        plan = self.plan(sql)
        start = time.perf_counter()
        hit = self.ivm.attempt(plan) if self.ivm is not None else None
        table, stats = hit if hit is not None else Executor(self._catalog).execute(plan)
        elapsed = time.perf_counter() - start
        result = QueryResult(sql=sql, table=table, elapsed_seconds=elapsed, stats=stats)
        self._metrics.record(result)
        return result
