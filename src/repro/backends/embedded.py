"""The embedded backend: the in-process columnar SQL engine.

Wraps the original :class:`~repro.sql.engine.Database` facade behind the
:class:`~repro.backends.base.SQLBackend` protocol.  This is the default
backend and the semantic reference for the differential suite — its
dialect needs no NULL-ordering or window-frame shims because the engine
was built to the shared contract (numbers < strings < NULL, NULL last
under ASC / first under DESC, ROWS-frame running aggregates).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.backends.base import BackendCapabilities, SQLBackend
from repro.sql.engine import Database, QueryResult
from repro.storage.catalog import Catalog
from repro.storage.statistics import TableStatistics
from repro.storage.table import Table

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


class EmbeddedBackend(SQLBackend):
    """The in-process engine of :mod:`repro.sql` behind the backend seam.

    Parameters
    ----------
    database:
        An existing :class:`Database` to wrap (its catalog, plan cache and
        metrics are shared); a fresh one is created when omitted.
    """

    name = "embedded"

    def __init__(self, database: Database | None = None, **database_kwargs: object) -> None:
        self.database = database if database is not None else Database(**database_kwargs)

    # ------------------------------------------------------------------ #
    @property
    def capabilities(self) -> BackendCapabilities:
        return EMBEDDED_CAPABILITIES

    @property
    def metrics(self):
        """The wrapped engine's cumulative metrics."""
        return self.database.metrics

    @property
    def catalog(self) -> Catalog:
        return self.database.catalog

    @property
    def ivm(self):
        """The wrapped engine's IVM view manager (``None`` when disabled)."""
        return self.database.ivm

    # ------------------------------------------------------------------ #
    def register_table(self, name: str, table: Table, replace: bool = False) -> None:
        self.database.register_table(name, table, replace=replace)

    def register_rows(
        self,
        name: str,
        rows: Sequence[Mapping[str, object]],
        replace: bool = False,
        column_order: Sequence[str] | None = None,
    ) -> None:
        self.database.register_rows(name, rows, replace=replace, column_order=column_order)

    def register_columns(
        self, name: str, data: Mapping[str, Sequence[object]], replace: bool = False
    ) -> None:
        """Register a table created from a column mapping."""
        self.database.register_columns(name, data, replace=replace)

    def repartition(self, name: str, target_rows: int) -> None:
        """Split a registered table into row-range partitions.

        Subsequent queries over the table run partition by partition with
        zone-map pruning (see :mod:`repro.storage.table`).
        """
        self.database.repartition(name, target_rows)

    def drop_table(self, name: str) -> None:
        self.database.drop_table(name)

    def table_names(self) -> list[str]:
        return self.database.table_names()

    def table(self, name: str) -> Table:
        return self.database.table(name)

    def table_statistics(self, name: str) -> TableStatistics:
        return self.database.table_statistics(name)

    # ------------------------------------------------------------------ #
    def execute(self, sql: str) -> QueryResult:
        return self.database.execute(sql)

    def explain(self, sql: str):
        """Cost estimate from the engine's EXPLAIN."""
        return self.database.explain(sql)

    def clear_plan_cache(self) -> None:
        self.database.clear_plan_cache()

