"""Columnar adapters between :class:`Table` storage and ``sqlite3``.

The SQLite backend keeps its data in an in-memory SQLite database, but
the reproduction's tables live as numpy-backed :class:`Table` objects.
These adapters move data across that boundary in column-major fashion:

* **load**: a numeric column's float64 array is viewed as an object array
  with NaN rewritten to ``None`` in one vectorised pass (SQLite has no
  NaN — NULL is the only faithful encoding), string columns pass through,
  and rows are streamed to ``executemany`` via ``zip`` over the column
  arrays — no per-value Python branching on the hot path,
* **read**: a cursor's row tuples are transposed back into per-column
  value lists and rebuilt as typed :class:`Column` objects, so results
  round-trip through the same ``to_pylist`` normalisation (integral
  floats render as ints, NULL as ``None``) as embedded-engine results,
* **index**: :func:`create_index_sql` is the DDL of the indexes the
  backend derives from the data
  (:func:`~repro.storage.statistics.sorted_columns`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.storage.column import Column, ColumnType
from repro.storage.table import Table

#: Storage class per column type.  Numeric columns (floats, ints and the
#: engine's 0.0/1.0 booleans) map to REAL; everything else to TEXT.
_SQLITE_TYPE = {ColumnType.NUMERIC: "REAL", ColumnType.STRING: "TEXT"}


def quote_identifier(name: str) -> str:
    """Quote ``name`` for use as a SQLite identifier."""
    return '"' + name.replace('"', '""') + '"'


def sqlite_type_of(column: Column) -> str:
    """SQLite storage class declared for ``column``."""
    return _SQLITE_TYPE[column.ctype]


def create_table_sql(name: str, table: Table) -> str:
    """``CREATE TABLE`` statement mirroring ``table``'s schema."""
    columns = ", ".join(
        f"{quote_identifier(col.name)} {sqlite_type_of(col)}" for col in table.columns()
    )
    return f"CREATE TABLE {quote_identifier(name)} ({columns})"


def create_index_sql(name: str, column: str) -> str:
    """``CREATE INDEX`` statement for ``column`` of table ``name``.

    The index is named ``<table>.<column>``; ``DROP TABLE`` drops it.
    """
    index = quote_identifier(f"{name}.{column}")
    return f"CREATE INDEX {index} ON {quote_identifier(name)} ({quote_identifier(column)})"


def column_to_bindings(column: Column) -> np.ndarray:
    """The column's values as an object array SQLite can bind directly.

    NULL becomes ``None`` (NaN has no SQLite representation); string
    columns holding stray non-string values (mixed-type columns) are
    coerced to text, matching the declared TEXT storage class.
    """
    if column.ctype is ColumnType.NUMERIC:
        values = column.values
        out = values.astype(object)
        mask = np.isnan(values)
        if mask.any():
            out[mask] = None
        return out
    out = np.empty(len(column.values), dtype=object)
    for index, value in enumerate(column.values):
        if value is None:
            out[index] = None
        elif isinstance(value, str):
            out[index] = value
        else:
            out[index] = str(value)
    return out


def load_table(connection, name: str, table: Table, replace: bool = False) -> None:
    """Create and populate SQLite table ``name`` from ``table``.

    Uses one ``executemany`` over a ``zip`` of the per-column binding
    arrays — the row tuples are assembled lazily by the iterator, so no
    intermediate list of rows is materialised.
    """
    quoted = quote_identifier(name)
    if replace:
        connection.execute(f"DROP TABLE IF EXISTS {quoted}")
    connection.execute(create_table_sql(name, table))
    if table.num_columns == 0 or table.num_rows == 0:
        connection.commit()
        return
    bindings = [column_to_bindings(col) for col in table.columns()]
    placeholders = ", ".join("?" for _ in bindings)
    connection.executemany(
        f"INSERT INTO {quoted} VALUES ({placeholders})", zip(*bindings)
    )
    connection.commit()


def _column_from_slice(column_name: str, values: np.ndarray) -> Column:
    """One typed :class:`Column` from an object-array column slice.

    Mirrors :meth:`Column.from_values` semantics (NULL = ``None``/NaN,
    numeric iff every non-null value is an int/float/bool, all-NULL
    columns default numeric) but replaces its per-value Python loop with
    array passes: one C-level null mask, one ``set(map(type, ...))``
    scan for type inference, one ``np.where`` + ``astype`` conversion.
    """
    # ``== None`` catches None, ``!= itself`` catches stray NaN — both
    # run as C element loops over the object array.
    null_mask = (values == None) | (values != values)  # noqa: E711
    non_null = values[~null_mask]
    types = set(map(type, non_null.tolist()))
    if types and not types <= {bool, int, float}:
        if null_mask.any():
            values = values.copy()
            values[null_mask] = None
        return Column(column_name, values, ColumnType.STRING)
    if not types:  # all-NULL columns infer numeric, as from_values does
        data = np.full(len(values), np.nan, dtype=np.float64)
    else:
        data = np.where(null_mask, np.nan, values).astype(np.float64)
    return Column(column_name, data, ColumnType.NUMERIC)


def table_from_cursor(
    description: Sequence[Sequence[object]] | None,
    rows: Iterable[Sequence[object]],
    name: str = "",
) -> Table:
    """Rebuild a :class:`Table` from a cursor's description and row tuples.

    The fetched batch becomes one 2-D object array whose column slices
    are typed directly (:func:`_column_from_slice`) — the per-row,
    per-value ``zip``/``from_values`` loops this replaces dominated the
    sqlite read path on wide results.  Results normalise exactly like
    embedded-engine results (NULL as ``None``, numeric as float64).
    """
    if description is None:
        return Table([], name=name)
    names = [entry[0] for entry in description]
    materialized = rows if isinstance(rows, list) else list(rows)
    if not materialized:
        columns = [Column.from_values(column_name, []) for column_name in names]
        return Table(columns, name=name)
    grid = np.empty((len(materialized), len(names)), dtype=object)
    grid[:] = materialized
    columns = [
        _column_from_slice(column_name, np.ascontiguousarray(grid[:, index]))
        for index, column_name in enumerate(names)
    ]
    return Table(columns, name=name)
