"""Columnar result sets: the record batch that crosses the serving path.

The engine executes columnar (:mod:`repro.storage.table`), but the
serving tier used to explode every result into ``list[dict]`` at the
middleware boundary — O(rows) dict allocations and O(rows·cols) PyObject
boxing on every cache insert, wire transfer and session export.  A
:class:`ResultSet` keeps the executor's column arrays intact end to end:

* **zero-copy construction** from a :class:`~repro.storage.table.Table`
  (the numpy arrays are shared, never copied),
* **exact byte accounting** (:attr:`ResultSet.nbytes`) so cache byte
  counts charge what eviction actually frees, instead of a codec's
  sampled estimate,
* **out-of-band pickling**: numeric columns are contiguous float64
  arrays, so ``pickle.dumps(..., protocol=5, buffer_callback=...)``
  exports them as raw buffers the wire layer sends without re-encoding
  (see :mod:`repro.net.serialize`),
* **lazy row materialisation**: :meth:`rows` produces the canonical
  row-dict view (identical to ``Table.to_rows()`` — NaN becomes
  ``None``, integral floats render as ``int``) only when a final
  consumer asks, and caches it.

NULL encoding follows the storage layer: NaN in float64 numeric
columns, ``None`` in object (string) columns; :meth:`null_masks`
derives boolean masks on demand.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.storage.column import ColumnType, canonical_pylist
from repro.storage.table import Table


class ResultSet:
    """An immutable columnar record batch of one query result.

    Parameters
    ----------
    names:
        Column names, in output order.
    arrays:
        One numpy array per column: float64 (NaN = NULL) for numeric
        columns, object (``None`` = NULL) for string columns.  Numeric
        arrays are made C-contiguous (a no-op for fresh kernel output)
        so they export as single raw buffers under pickle protocol 5.
    ctypes:
        The :class:`~repro.storage.column.ColumnType` of each column.
    """

    __slots__ = ("names", "arrays", "ctypes", "_rows", "_nbytes")

    def __init__(
        self,
        names: Sequence[str],
        arrays: Sequence[np.ndarray],
        ctypes: Sequence[ColumnType],
    ) -> None:
        if not (len(names) == len(arrays) == len(ctypes)):
            raise ValueError(
                f"mismatched result-set shape: {len(names)} names, "
                f"{len(arrays)} arrays, {len(ctypes)} types"
            )
        lengths = {len(array) for array in arrays}
        if len(lengths) > 1:
            raise ValueError(f"ragged result-set columns: lengths {sorted(lengths)}")
        self.names: tuple[str, ...] = tuple(names)
        prepared: list[np.ndarray] = []
        for array, ctype in zip(arrays, ctypes):
            if ctype is ColumnType.NUMERIC:
                prepared.append(
                    np.ascontiguousarray(np.asarray(array, dtype=np.float64))
                )
            else:
                prepared.append(np.asarray(array, dtype=object))
        self.arrays: tuple[np.ndarray, ...] = tuple(prepared)
        self.ctypes: tuple[ColumnType, ...] = tuple(ctypes)
        self._rows: list[dict[str, object]] | None = None
        self._nbytes: int | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_table(cls, table: Table) -> "ResultSet":
        """Zero-copy view over ``table``'s column arrays."""
        columns = table.columns()
        return cls(
            [col.name for col in columns],
            [col.values for col in columns],
            [col.ctype for col in columns],
        )

    # ------------------------------------------------------------------ #
    # Shape and size
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        return int(len(self.arrays[0])) if self.arrays else 0

    @property
    def num_columns(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({self.num_rows}x{self.num_columns} {list(self.names)})"

    @property
    def nbytes(self) -> int:
        """Exact payload size of this batch, cached after first use.

        Numeric columns cost their raw buffer size (8 bytes per value);
        string columns cost each value's UTF-8 length plus a 4-byte
        offset (Arrow's varbinary layout), NULL costing the offset only.
        This is the number cache byte counts account with — eviction
        frees exactly what insertion charged.
        """
        if self._nbytes is None:
            total = 0
            for array, ctype in zip(self.arrays, self.ctypes):
                if ctype is ColumnType.NUMERIC:
                    total += int(array.nbytes)
                else:
                    total += sum(
                        4 if v is None else len(str(v).encode("utf-8")) + 4
                        for v in array
                    )
            self._nbytes = total
        return self._nbytes

    def null_masks(self) -> dict[str, np.ndarray]:
        """Boolean NULL mask per column, derived lazily from the encoding."""
        masks: dict[str, np.ndarray] = {}
        for name, array, ctype in zip(self.names, self.arrays, self.ctypes):
            if ctype is ColumnType.NUMERIC:
                masks[name] = np.isnan(array)
            else:
                masks[name] = np.array([v is None for v in array], dtype=bool)
        return masks

    # ------------------------------------------------------------------ #
    # Row materialisation (the final-consumer view)
    # ------------------------------------------------------------------ #
    def rows(self) -> list[dict[str, object]]:
        """The canonical row-dict view, materialised once and cached.

        Byte-identical to ``Table.to_rows()`` of the originating table:
        NaN → ``None``, integral floats → ``int``, everything else
        ``float``; string NULLs stay ``None``.
        """
        if self._rows is None:
            pylists = [canonical_pylist(array) for array in self.arrays]
            self._rows = [dict(zip(self.names, row)) for row in zip(*pylists)]
        return self._rows

    def head_rows(self, k: int) -> list[dict[str, object]]:
        """Canonical rows of the first ``k`` rows only (codec sampling)."""
        if self._rows is not None:
            return self._rows[:k]
        k = min(k, self.num_rows)
        pylists = [canonical_pylist(array[:k]) for array in self.arrays]
        return [dict(zip(self.names, row)) for row in zip(*pylists)]

    # ------------------------------------------------------------------ #
    # Canonical equality
    # ------------------------------------------------------------------ #
    def equals(self, other: "ResultSet") -> bool:
        """Canonical equality: same columns, same rows under the row view.

        Numeric columns compare on the raw arrays (NaN == NaN, the NULL
        encoding); object columns fall back to the canonical Python
        values, so a ``1.0`` stored as object equals a float64 ``1.0``
        rendered through :meth:`rows`.
        """
        if self.names != other.names or self.num_rows != other.num_rows:
            return False
        for a, b, ta, tb in zip(self.arrays, other.arrays, self.ctypes, other.ctypes):
            if ta is ColumnType.NUMERIC and tb is ColumnType.NUMERIC:
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            elif canonical_pylist(a) != canonical_pylist(b):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self.equals(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # type: ignore[assignment] - mutable caches inside

    # ------------------------------------------------------------------ #
    # Pickling (protocol-5 friendly: caches never cross the wire)
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        return (
            _rebuild_result_set,
            (self.names, self.arrays, tuple(t.value for t in self.ctypes)),
        )


def _rebuild_result_set(
    names: tuple[str, ...],
    arrays: tuple[np.ndarray, ...],
    ctype_values: tuple[str, ...],
) -> ResultSet:
    """Unpickle hook: rebuild from names, arrays and ``ColumnType`` values."""
    return ResultSet(names, arrays, tuple(ColumnType(v) for v in ctype_values))
