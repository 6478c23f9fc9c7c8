"""Columnar in-memory storage substrate used by the SQL engine.

The paper's server side is a relational DBMS (PostgreSQL or DuckDB).  This
package provides the storage layer for our in-process substitute: columnar
tables backed by numpy arrays, a catalog mapping names to tables, and basic
per-column statistics from which the plan encoder (:mod:`repro.core.encoder`)
estimates cardinalities.
"""

from repro.storage.column import Column, ColumnType
from repro.storage.table import PartitionedTable, Table
from repro.storage.catalog import Catalog
from repro.storage.statistics import (
    ColumnStatistics,
    ColumnZone,
    TableStatistics,
    ZoneMap,
    compute_table_statistics,
    compute_zone_map,
)

__all__ = [
    "Column",
    "ColumnType",
    "Table",
    "PartitionedTable",
    "Catalog",
    "ColumnStatistics",
    "ColumnZone",
    "TableStatistics",
    "ZoneMap",
    "compute_table_statistics",
    "compute_zone_map",
]
