"""The dialect and feature surface of a SQL backend.

The paper runs the server side of VegaPlus on a real DBMS (PostgreSQL or
DuckDB).  The reproduction's backends share one front door,
:class:`~repro.sql.engine.SQLBackend`; each describes what differs in its
SQL with a :class:`BackendCapabilities` record.

Capabilities serve two purposes:

* the **rewrite layer** consults them while generating SQL — e.g. a
  backend whose bare ``ORDER BY x ASC`` does not already sort NULL last
  gets an explicit ``NULLS LAST`` clause, and a backend whose running
  window aggregates default to the RANGE frame gets an explicit
  ``ROWS UNBOUNDED PRECEDING`` frame so cumulative sums match,
* the **optimizer** consults them to decide which transforms may be
  offloaded at all (a backend without window functions cannot take a
  ``stack`` transform).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Aggregate functions the rewrite layer may emit.
CORE_AGGREGATES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "MEDIAN", "STDDEV", "VARIANCE"}
)

#: Scalar functions the expression translator may emit.
CORE_SCALAR_FUNCTIONS = frozenset(
    {"ABS", "CEIL", "FLOOR", "ROUND", "SQRT", "LN", "EXP", "POWER",
     "UPPER", "LOWER", "LENGTH"}
)


@dataclass(frozen=True)
class BackendCapabilities:
    """Dialect and feature flags of one SQL backend.

    The flags describe the backend's *native* behaviour; helper methods
    derive the clauses the SQL generator must add to reach the shared
    semantics (NULL last under ASC / first under DESC; running window
    aggregates over a ROWS frame).
    """

    name: str
    #: Whether ``agg(...) OVER (PARTITION BY ... ORDER BY ...)`` works.
    supports_window_functions: bool = True
    #: Whether ``ORDER BY expr NULLS FIRST|LAST`` parses.
    supports_nulls_ordering_clause: bool = False
    #: Whether a bare ``ORDER BY expr ASC`` already sorts NULL last (the
    #: embedded engine and PostgreSQL do; SQLite sorts NULL smallest).
    nulls_sort_largest: bool = True
    #: Whether a running aggregate ``SUM(x) OVER (ORDER BY k)`` defaults
    #: to the ROWS frame (the embedded engine) rather than the standard
    #: RANGE frame that groups peer rows (SQLite, PostgreSQL).
    default_window_frame_is_rows: bool = True
    #: Aggregate function names the backend executes (upper-case).
    supported_aggregates: frozenset[str] = field(default=CORE_AGGREGATES)
    #: Scalar function names the backend executes (upper-case).
    supported_scalar_functions: frozenset[str] = field(default=CORE_SCALAR_FUNCTIONS)
    #: Whether concurrent ``execute()`` calls from multiple threads are
    #: safe.  The serving runtime (:mod:`repro.server`) refuses to admit
    #: more than one concurrent execution on a backend that does not
    #: declare this.
    thread_safe: bool = False
    #: How the backend achieves thread safety: ``"shared"`` (one engine
    #: instance with internal locking), ``"per-thread"`` (a dedicated
    #: connection per worker thread over shared storage), or ``"none"``.
    connection_strategy: str = "none"
    #: Whether the backend supports horizontal table partitioning with
    #: zone-map pruning at the scan (``repartition``).
    #: The scale benchmarks and the serving tier consult this before
    #: asking a backend to partition a table.
    partitioning: bool = False

    # -------------------------------------------------------------- #
    # Clauses the SQL generator derives from the flags
    # -------------------------------------------------------------- #
    def order_nulls_suffix(self, descending: bool) -> str:
        """Clause forcing NULL last under ASC / first under DESC.

        Empty when the backend's native ordering already matches (or when
        it cannot express the clause — callers must then accept native
        NULL placement, which the differential suite would catch).
        """
        if self.nulls_sort_largest or not self.supports_nulls_ordering_clause:
            return ""
        return " NULLS FIRST" if descending else " NULLS LAST"

    def window_frame_clause(self) -> str:
        """Frame clause forcing ROWS semantics for running aggregates."""
        if self.default_window_frame_is_rows:
            return ""
        return " ROWS UNBOUNDED PRECEDING"

    def supports_aggregate(self, sql_function: str) -> bool:
        """Whether the backend executes the (upper-case) aggregate."""
        return sql_function.upper() in self.supported_aggregates

    def supports_scalar(self, sql_function: str) -> bool:
        """Whether the backend executes the (upper-case) scalar function."""
        return sql_function.upper() in self.supported_scalar_functions
