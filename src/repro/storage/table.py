"""Columnar tables.

A :class:`Table` is an ordered mapping of column names to :class:`Column`
objects, all of equal length.  Tables are immutable: every operation
returns a new table that shares column data where possible.

A table is also the one currency of query results, from the executor
through both cache tiers and the shard wire to the client:

* **rows** — :meth:`Table.to_rows` is the canonical row view (NaN becomes
  ``None``, integral floats render as ``int``), materialised once per
  table and cached on it, so a cache hit hands out the same list;
* **bytes** — :attr:`Table.nbytes` is the exact payload in the Arrow
  layout, the number cache byte counts charge and the columnar codec
  sends;
* **wire** — a pickled table carries only its columns (see
  ``Column.__reduce__``), never its caches.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import CatalogError
from repro.storage.column import Column, ColumnType, code_dtype


def composite_codes(
    code_arrays: Sequence[np.ndarray], descending: Sequence[bool] = ()
) -> np.ndarray | None:
    """Fold one non-negative code array per key into a single sort key.

    The keys combine mixed-radix, first key most significant (radix =
    each array's ``max + 1``), into the narrowest unsigned dtype the
    product of the radices fits — so one stable ``argsort`` of the
    result orders rows exactly as a lexsort over the keys would, and for
    products up to 16 bits numpy's stable sort is a radix sort (≈ 6x a
    64-bit merge sort per 100k rows).  A ``descending`` key is mirrored
    inside its radix, which puts NULL — the largest code — first.
    Returns ``None`` when the product overflows 62 bits (callers lexsort).
    """
    arrays = [np.asarray(codes) for codes in code_arrays]
    radices = [int(codes.max()) + 1 if codes.size else 1 for codes in arrays]
    span = 1
    for radix in radices:
        span *= radix
    if span > 2**62:
        return None
    dtype = code_dtype(span - 1).type
    key: np.ndarray | None = None
    for index, (codes, radix) in enumerate(zip(arrays, radices)):
        digit = codes.astype(dtype, copy=False)
        if index < len(descending) and descending[index]:
            digit = dtype(radix - 1) - digit
        key = digit if key is None else key * dtype(radix) + digit
    return key


def _stable_order(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Stable row order by ``keys`` (first most significant): one narrow
    ``argsort`` for a composite key, a lexsort for several."""
    if len(keys) == 1:
        order = np.argsort(keys[0], kind="stable")
    else:
        order = np.lexsort(tuple(reversed(keys)))
    return order.astype(np.int64, copy=False)


def sort_codes(code_arrays: Sequence[np.ndarray], descending: Sequence[bool] = ()) -> np.ndarray:
    """Stable row order sorting by the code tuples (first key most significant)."""
    key = composite_codes(code_arrays, descending)
    if key is not None:
        return _stable_order([key])
    return _stable_order(
        [
            -np.asarray(codes, dtype=np.int64)
            if index < len(descending) and descending[index]
            else np.asarray(codes)
            for index, codes in enumerate(code_arrays)
        ]
    )


def group_segments(
    code_arrays: Sequence[np.ndarray], n_rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition ``n_rows`` rows into groups of equal code tuples.

    ``code_arrays`` holds one non-negative integer code array per
    grouping key (a dictionary column's storage codes, or the output of
    :func:`repro.storage.column.factorize_array`).  Returns
    ``(order, starts, ends)`` where ``order`` is a stable permutation of
    row indices sorted by code tuple and ``order[starts[g]:ends[g]]`` are
    the rows of group ``g``.  Groups appear in ascending code order, which
    is the deterministic numbers < strings < NULL sort order.  With no
    key arrays the whole table forms one segment (even when empty).
    """
    if not code_arrays:
        return (
            np.arange(n_rows, dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([n_rows], dtype=np.int64),
        )
    if n_rows == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty
    key = composite_codes(code_arrays)
    keys = [key] if key is not None else [np.asarray(codes) for codes in code_arrays]
    order = _stable_order(keys)
    change = np.zeros(n_rows - 1, dtype=bool)
    for codes in keys:
        ordered = codes[order]
        change |= ordered[1:] != ordered[:-1]
    starts = np.concatenate(([0], np.flatnonzero(change) + 1)).astype(np.int64)
    ends = np.concatenate((starts[1:], [n_rows])).astype(np.int64)
    return order, starts, ends


class Table:
    """An immutable, in-memory, columnar table.

    Parameters
    ----------
    columns:
        The table's columns, in order.  All columns must have equal length
        and unique names.
    name:
        Optional table name (set when registered in a catalog).
    """

    #: The cached row view and byte count (see :meth:`to_rows` and
    #: :attr:`nbytes`); pickling drops both.
    _rows: list[dict[str, object]] | None = None
    _nbytes: int | None = None

    def __init__(self, columns: Sequence[Column], name: str = "") -> None:
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        names = [col.name for col in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        self._columns: dict[str, Column] = {col.name: col for col in columns}
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, object]],
        name: str = "",
        column_order: Sequence[str] | None = None,
    ) -> "Table":
        """Build a table from a list of row dictionaries.

        Missing keys become NULL.  ``column_order`` pins the column order;
        otherwise columns appear in first-seen order.
        """
        if column_order is None:
            order: list[str] = []
            seen: set[str] = set()
            for row in rows:
                for key in row:
                    if key not in seen:
                        seen.add(key)
                        order.append(key)
        else:
            order = list(column_order)
        columns = [
            Column.from_values(key, [row.get(key) for row in rows]) for key in order
        ]
        return cls(columns, name=name)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        """Number of columns in the table."""
        return len(self._columns)

    def column_names(self) -> list[str]:
        """Column names in order."""
        return list(self._columns)

    def has_column(self, name: str) -> bool:
        """Whether a column with ``name`` exists."""
        return name in self._columns

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise :class:`CatalogError`."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise CatalogError(
                f"table {self.name or '<anonymous>'!r} has no column {name!r}; "
                f"available: {self.column_names()}"
            ) from exc

    def columns(self) -> list[Column]:
        """All columns in order."""
        return list(self._columns.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.column_names()})"

    def __getstate__(self) -> dict[str, object]:
        """Pickle the columns and the name (and partition bounds), not the caches."""
        return {
            key: value for key, value in self.__dict__.items() if key not in ("_rows", "_nbytes")
        }

    # ------------------------------------------------------------------ #
    # Row-wise and column-wise transformation
    # ------------------------------------------------------------------ #
    def select(self, names: Sequence[str]) -> "Table":
        """Project to the named columns (in the given order)."""
        return Table([self.column(n) for n in names], name=self.name)

    def with_column(self, column: Column) -> "Table":
        """Return a table with ``column`` added or replaced."""
        cols = [c for c in self.columns() if c.name != column.name]
        cols.append(column)
        return Table(cols, name=self.name)

    def take(self, indices: np.ndarray) -> "Table":
        """Reorder/subset rows by integer indices."""
        return Table([col.take(indices) for col in self.columns()], name=self.name)

    def distinct_indices(self, subset: Sequence[str] | None = None) -> np.ndarray:
        """Row indices of the first occurrence of each distinct row.

        ``subset`` restricts the comparison to the named columns.  Indices
        come back in ascending (original row) order, so ``take`` preserves
        first-seen ordering — the same contract as SQL ``SELECT DISTINCT``.
        """
        if self.num_rows == 0:
            return np.array([], dtype=np.int64)
        names = list(subset) if subset is not None else self.column_names()
        codes = [self.column(name).group_codes() for name in names]
        order, starts, _ends = group_segments(codes, self.num_rows)
        if len(starts) == 0:
            return np.array([], dtype=np.int64)
        # The sort is stable, so each segment's first entry is already
        # the group's minimum (first-occurrence) row index.
        firsts = order[starts]
        firsts.sort()
        return firsts

    def slice(self, offset: int, length: int | None = None) -> "Table":
        """Return rows ``offset:offset+length`` (zero-copy column views)."""
        stop = None if length is None else offset + length
        return Table([col.slice(offset, stop) for col in self.columns()], name=self.name)

    def renamed(self, name: str) -> "Table":
        """Return this table under another name (same class, shared data)."""
        return Table(self.columns(), name=name)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_rows(self) -> list[dict[str, object]]:
        """The canonical row dictionaries, materialised once and cached.

        Every caller of one table shares the list: read it, do not
        mutate it.
        """
        if self._rows is None:
            names = self.column_names()
            pylists = [self._columns[n].to_pylist() for n in names]
            self._rows = [dict(zip(names, row)) for row in zip(*pylists)]
        return self._rows

    @property
    def nbytes(self) -> int:
        """Exact payload bytes in the Arrow layout, computed once.

        8 bytes per number; a string costs its UTF-8 length plus a 4-byte
        offset, a NULL string the offset only.  Cache byte counts charge
        this, so eviction frees exactly what insertion charged.
        """
        if self._nbytes is None:
            self._nbytes = sum(map(_payload_bytes, self._columns.values()))
        return self._nbytes


def _payload_bytes(column: Column) -> int:
    """One column's share of :attr:`Table.nbytes`."""
    if column.ctype is ColumnType.NUMERIC:
        return 8 * len(column)
    if column.codes is not None:
        lengths = [len(value.encode()) + 4 for value in column.dictionary]
        lengths.append(4)
        return int(np.asarray(lengths, dtype=np.int64)[column.codes].sum())
    return sum(4 if value is None else len(str(value).encode()) + 4 for value in column.values)


class PartitionedTable(Table):
    """A table split into contiguous row-range partitions.

    Behaves exactly like a :class:`Table` everywhere (same columns, same
    rows, same operations — derived tables come back unpartitioned); the
    partitioning is extra structure the executor's scan exploits: the
    catalog attaches a zone map (per-column min/max/null-count, see
    :mod:`repro.storage.statistics`) to each partition so range
    predicates can skip partitions before scanning them.

    Partitions are *horizontal* and *ordered*: partition ``i`` holds rows
    ``boundaries[i]:boundaries[i + 1]`` of the original row order, so
    the rows of the kept partitions, in index order, are the table's rows
    in the table's order — which is why a pruned scan returns exactly the
    rows, and the order, a flat scan does.
    """

    def __init__(
        self,
        columns: Sequence[Column],
        name: str = "",
        boundaries: Sequence[int] | None = None,
    ) -> None:
        super().__init__(columns, name=name)
        n = self.num_rows
        if boundaries is None:
            boundaries = (0, n)
        bounds = [int(b) for b in boundaries]
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n:
            raise ValueError(
                f"partition boundaries must run 0..{n}, got {bounds}"
            )
        # A zero-row table is one (empty) partition; otherwise partitions
        # must be non-empty so every zone map describes some rows.
        if n == 0:
            bounds = [0, 0]
        elif any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"partition boundaries must be strictly increasing: {bounds}")
        self._boundaries: tuple[int, ...] = tuple(bounds)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_table(cls, table: Table, target_rows: int) -> "PartitionedTable":
        """Split ``table`` into chunks of about ``target_rows`` rows each."""
        if target_rows <= 0:
            raise ValueError(f"target_rows must be positive, got {target_rows}")
        n = table.num_rows
        boundaries = list(range(0, n, target_rows)) + [n] if n else [0, 0]
        return cls(table.columns(), name=table.name, boundaries=boundaries)

    def renamed(self, name: str) -> "PartitionedTable":
        """Rename while *preserving* the partition boundaries."""
        return PartitionedTable(self.columns(), name=name, boundaries=self._boundaries)

    def select(self, names: Sequence[str]) -> "PartitionedTable":
        """Project columns; rows are untouched, so the partitioning holds."""
        return PartitionedTable(
            [self.column(n) for n in names], name=self.name, boundaries=self._boundaries
        )

    # ------------------------------------------------------------------ #
    @property
    def num_partitions(self) -> int:
        """Number of row-range partitions."""
        return len(self._boundaries) - 1

    def row_ranges(self, indices: Sequence[int]) -> list[tuple[int, int]]:
        """``(start, end)`` row ranges covering partitions ``indices``
        (ascending), with adjacent partitions merged into one range."""
        ranges: list[tuple[int, int]] = []
        for index in indices:
            start, end = self._boundaries[index], self._boundaries[index + 1]
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((start, end))
        return ranges

    def partition(self, index: int) -> Table:
        """Partition ``index`` as a zero-copy :class:`Table` view.

        Row ranges slice the backing numpy arrays directly, so building a
        partition view allocates no row data; string partitions share the
        table's dictionary.
        """
        start, end = self._boundaries[index], self._boundaries[index + 1]
        return Table([col.slice(start, end) for col in self.columns()], name=self.name)

    def partitions(self) -> list[Table]:
        """All partitions in row order."""
        return [self.partition(i) for i in range(self.num_partitions)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedTable({self.name!r}, rows={self.num_rows}, "
            f"partitions={self.num_partitions}, cols={self.column_names()})"
        )
