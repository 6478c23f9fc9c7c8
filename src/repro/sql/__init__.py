"""An in-memory, columnar SQL engine.

This package is the stand-in for the backend DBMS (PostgreSQL / DuckDB)
used by the paper.  It implements the OLAP-style SQL subset that VegaPlus's
query rewriter emits: single-table SELECT queries with expressions,
filtering, grouping and aggregation, sorting, limits, window functions and
nested sub-queries in the FROM clause.  It executes queries; the
optimizer's cardinality estimates come from catalog statistics in
:mod:`repro.core.encoder`.

The public entry point is :class:`repro.sql.engine.Database`, the
``"embedded"`` :class:`~repro.sql.engine.SQLBackend`, which exposes a
DuckDB-like API::

    db = Database()
    db.register_rows("flights", rows)
    result = db.execute("SELECT carrier, COUNT(*) AS n FROM flights GROUP BY carrier")
    result.to_rows()
"""

# The engine reads repro.backends.base and the backends package registers
# Database and SqliteBackend (which subclasses SQLBackend from the
# engine), so the backends package must start loading first whichever of
# the two a caller imports.
import repro.backends  # noqa: F401
from repro.sql.engine import Database, QueryResult
from repro.sql.parser import parse_sql
from repro.sql.tokenizer import tokenize

__all__ = [
    "Database",
    "QueryResult",
    "parse_sql",
    "tokenize",
]
