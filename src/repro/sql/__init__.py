"""An in-memory, columnar SQL engine.

This package is the stand-in for the backend DBMS (PostgreSQL / DuckDB)
used by the paper.  It implements the OLAP-style SQL subset that VegaPlus's
query rewriter emits: single-table SELECT queries with expressions,
filtering, grouping and aggregation, sorting, limits, window functions and
nested sub-queries in the FROM clause, plus ``EXPLAIN`` cost estimation.

The public entry point is :class:`repro.sql.engine.Database`, which exposes
a DuckDB-like API::

    db = Database()
    db.register_rows("flights", rows)
    result = db.execute("SELECT carrier, COUNT(*) AS n FROM flights GROUP BY carrier")
    result.to_rows()
"""

from repro.sql.engine import Database, QueryResult
from repro.sql.parser import parse_sql
from repro.sql.tokenizer import tokenize
from repro.sql.explain import QueryCostEstimate

__all__ = [
    "Database",
    "QueryResult",
    "parse_sql",
    "tokenize",
    "QueryCostEstimate",
]
