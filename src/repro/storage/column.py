"""Typed columns backed by numpy arrays.

Columns are the unit of storage in the SQL engine.  Numeric columns use
float64 arrays with ``nan`` encoding SQL ``NULL``.  Boolean columns (a
predicate used as a value) are stored as float64 (0.0/1.0/nan), so they
group, sort and aggregate with the numeric kernels.

String columns whose non-NULL values are all ``str`` are
**dictionary-encoded**: a narrow unsigned ``codes`` array indexes one
*sorted* ``dictionary`` of the distinct strings, and NULL is the single
code ``len(dictionary)``.  Because the dictionary is sorted and all
strings share one :func:`sort_rank_key` tier, code order *is* the
engine's deterministic group/sort order (strings ascending, NULL last),
so grouping, DISTINCT and ORDER BY run on the codes and never hash a
string again.  ``take``/``slice`` move codes and share the
dictionary by reference; ``values`` materialises the object view
(``None`` = NULL) lazily for consumers that want Python strings.  A
string column holding anything else (mixed types) keeps the plain object
representation — the choice follows the data, there is no setting.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence

import numpy as np


class ColumnType(enum.Enum):
    """Storage type of a column."""

    NUMERIC = "numeric"
    STRING = "string"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Types stored in NUMERIC columns (``np.bool_`` is not an ``np.integer``).
_NUMERIC_TYPES = (bool, int, float, np.bool_, np.integer, np.floating)

#: Exact Python types ``np.array(..., dtype=float64)`` converts faithfully
#: in one C pass; anything else (``None``, numpy scalars, strings — numpy
#: would happily parse ``"1.5"``) takes the per-value loop.
_PLAIN_NUMBERS = frozenset({float, int, bool})


def _is_missing(value: object) -> bool:
    if value is None:
        return True
    if isinstance(value, float) and np.isnan(value):
        return True
    return False


def sort_rank_key(value: object) -> tuple[int, object]:
    """Deterministic cross-type ordering key: numbers < strings < NULL.

    NULL (``None``/NaN) ranks strictly largest so that ascending sorts put
    it last and descending sorts put it first (PostgreSQL semantics).
    """
    if _is_missing(value):
        return (2, "")
    if isinstance(value, _NUMERIC_TYPES):
        return (0, float(value))
    return (1, str(value))


def code_dtype(cardinality: int) -> np.dtype:
    """Narrowest unsigned dtype holding codes ``0..cardinality`` inclusive."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if cardinality <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def encode_strings(values: Sequence[object]) -> tuple[np.ndarray, np.ndarray] | None:
    """Dictionary-encode ``values`` (``str`` or ``None``) in one hash pass.

    Returns ``(codes, dictionary)`` — ``dictionary`` the sorted distinct
    strings as an object array, ``codes[i]`` the index of row ``i``'s
    string, NULL the code ``len(dictionary)`` — or ``None`` when any
    value is neither ``str`` nor ``None`` (or is unhashable).
    """
    try:
        distinct = set(values)
    except TypeError:
        return None
    distinct.discard(None)
    if not all(isinstance(value, str) for value in distinct):
        return None
    ordered = sorted(distinct)
    mapping: dict[object, int] = {value: code for code, value in enumerate(ordered)}
    mapping[None] = len(ordered)
    codes = np.fromiter(
        map(mapping.__getitem__, values), dtype=code_dtype(len(ordered)), count=len(values)
    )
    dictionary = np.empty(len(ordered), dtype=object)
    dictionary[:] = ordered
    return codes, dictionary


def factorize_array(values: np.ndarray) -> tuple[np.ndarray, list[object]]:
    """Encode ``values`` as int64 codes into a sorted unique-value list.

    Returns ``(codes, uniques)`` where ``uniques`` is ordered by
    :func:`sort_rank_key` (so code order == deterministic sort order) and
    ``codes[i]`` indexes the unique value of row ``i``.  NULLs (NaN in
    numeric arrays, ``None``/NaN in object arrays) collapse to a single
    unique with the largest code.
    """
    if values.dtype != object:
        data = np.asarray(values, dtype=np.float64)
        nan_mask = np.isnan(data)
        uniq, inverse = np.unique(data[~nan_mask], return_inverse=True)
        codes = np.empty(len(data), dtype=np.int64)
        codes[~nan_mask] = inverse
        codes[nan_mask] = uniq.size
        uniques: list[object] = [float(v) for v in uniq]
        if nan_mask.any():
            uniques.append(None)
        return codes, uniques
    # Pure string arrays (computed group keys, DISTINCT over expressions)
    # take the dictionary encoder: its sorted dictionary is already in
    # rank order — strings all share the "string" rank tier.
    encoded = encode_strings(values.tolist())
    if encoded is not None:
        codes, dictionary = encoded
        uniq = dictionary.tolist()
        if len(uniq) in codes:
            uniq.append(None)
        return codes.astype(np.int64), uniq
    mapping: dict[object, int] = {}
    raw_uniques: list[object] = []
    raw_codes = np.empty(len(values), dtype=np.int64)
    for i, value in enumerate(values):
        if _is_missing(value):
            value = None
        code = mapping.get(value)
        if code is None:
            code = len(raw_uniques)
            mapping[value] = code
            raw_uniques.append(value)
        raw_codes[i] = code
    order = sorted(range(len(raw_uniques)), key=lambda c: sort_rank_key(raw_uniques[c]))
    remap = np.empty(len(raw_uniques), dtype=np.int64)
    for new_code, old_code in enumerate(order):
        remap[old_code] = new_code
    return remap[raw_codes] if len(raw_uniques) else raw_codes, [raw_uniques[c] for c in order]


def _load_column(
    name: str, data: np.ndarray | bytes, entries: tuple[str, ...] | None = None
) -> "Column":
    """Unpickle hook (see ``Column.__reduce__``).

    A float64 array is a numeric column and an object array a plain
    string column; bytes are the codes of an encoded column over
    ``entries``.
    """
    if entries is None:
        ctype = ColumnType.NUMERIC if data.dtype == np.float64 else ColumnType.STRING
        return Column._of(name, ctype, data)
    dictionary = np.empty(len(entries), dtype=object)
    dictionary[:] = entries
    codes = np.frombuffer(data, dtype=code_dtype(len(entries)))
    return Column.from_codes(name, codes, dictionary)


def infer_column_type(values: Iterable[object]) -> ColumnType:
    """Infer the storage type from a sample of Python values.

    A column is numeric when every non-null value is an ``int``, ``float``
    or ``bool`` (Python or numpy); otherwise it is stored as strings/objects.
    """
    for value in values:
        if _is_missing(value):
            continue
        if not isinstance(value, _NUMERIC_TYPES):
            return ColumnType.STRING
    return ColumnType.NUMERIC


def canonical_pylist(values: np.ndarray) -> list[object]:
    """An array as canonical Python values — the engine's one row-view rule.

    Float arrays: NaN becomes ``None``, integral floats render as ``int``
    (exactly, whatever their magnitude), everything else stays ``float``.
    Object arrays pass through (``None`` is already NULL).
    """
    if values.dtype == object:
        return values.tolist()
    out = values.astype(object)
    integral = values == np.floor(values)  # False for NaN; True for ±inf
    small = integral & (np.abs(values) < 2.0**63)
    out[small] = values[small].astype(np.int64)
    for index in np.flatnonzero(integral & ~small & np.isfinite(values)):
        out[index] = int(values[index])
    out[np.isnan(values)] = None
    return out.tolist()


class Column:
    """A named, typed, immutable column of values.

    Parameters
    ----------
    name:
        Column name.
    values:
        Backing numpy array.  Numeric columns are stored as float64.
        String columns take an object array (``None``/NaN = NULL): when
        every non-NULL value is a ``str`` the column dictionary-encodes
        it (see the module docstring), otherwise it keeps the object
        array with NaN normalised to ``None``.
    ctype:
        The declared :class:`ColumnType`.

    ``codes``/``dictionary`` are set on dictionary-encoded columns and
    ``None`` otherwise; :meth:`from_codes` builds an encoded column
    directly (the kernels' path — no string is touched).
    """

    __slots__ = ("name", "ctype", "codes", "dictionary", "_values")

    def __init__(self, name: str, values: np.ndarray, ctype: ColumnType) -> None:
        self.name = name
        self.ctype = ctype
        self.codes: np.ndarray | None = None
        self.dictionary: np.ndarray | None = None
        if ctype is ColumnType.NUMERIC:
            self._values: np.ndarray | None = np.asarray(values, dtype=np.float64)
            return
        data = np.asarray(values, dtype=object)
        encoded = encode_strings(data.tolist())
        if encoded is None:
            # Non-string values present.  One NULL definition still holds:
            # a float NaN inside an object array becomes None here.
            nan_mask = data != data
            if nan_mask.any():
                data = data.copy()
                data[nan_mask] = None
                encoded = encode_strings(data.tolist())
        if encoded is not None:
            self.codes, self.dictionary = encoded
        self._values = data

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _of(
        cls,
        name: str,
        ctype: ColumnType,
        values: np.ndarray | None,
        codes: np.ndarray | None = None,
        dictionary: np.ndarray | None = None,
    ) -> "Column":
        """A column over already-prepared storage (no inspection, no copy)."""
        column = cls.__new__(cls)
        column.name = name
        column.ctype = ctype
        column._values = values
        column.codes = codes
        column.dictionary = dictionary
        return column

    @classmethod
    def from_codes(cls, name: str, codes: np.ndarray, dictionary: np.ndarray) -> "Column":
        """Dictionary-encoded string column over an existing dictionary.

        ``codes`` index the sorted ``dictionary`` (shared by reference,
        never copied); ``len(dictionary)`` encodes NULL.
        """
        return cls._of(name, ColumnType.STRING, None, codes, dictionary)

    @classmethod
    def from_values(cls, name: str, values: Sequence[object]) -> "Column":
        """Build a column from arbitrary Python values, inferring the type."""
        types = set(map(type, values))
        if types <= _PLAIN_NUMBERS:
            return cls(name, np.array(values, dtype=np.float64), ColumnType.NUMERIC)
        if types <= {str, type(None)} and str in types:
            codes, dictionary = encode_strings(values)
            return cls.from_codes(name, codes, dictionary)
        ctype = infer_column_type(values)
        if ctype is ColumnType.NUMERIC:
            data = np.array(
                [np.nan if _is_missing(v) else float(v) for v in values],
                dtype=np.float64,
            )
        else:
            data = np.array(
                [None if _is_missing(v) else v for v in values], dtype=object
            )
        return cls(name, data, ctype)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The backing array: float64, or the object view of a string column.

        For a dictionary-encoded column the object view is materialised
        from the codes on first use and cached (``None`` = NULL).
        """
        if self._values is None:
            self._values = np.append(self.dictionary, None)[self.codes]
        return self._values

    def __len__(self) -> int:
        data = self.codes if self.codes is not None else self._values
        return int(data.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.name!r}, {self.ctype.value}, n={len(self)})"

    def __reduce__(self):
        # A column pickles its storage, never the decoded object view.
        # Numeric values go as one contiguous float64 array (an
        # out-of-band buffer under pickle protocol 5).  An encoded column
        # goes as code bytes plus a tuple of only the entries they use: a
        # filtered column may use a handful of a large shared dictionary,
        # and two array headers cost a small result more than its strings.
        # Loading hashes no string.
        if self.codes is None:
            values = self._values
            if self.ctype is ColumnType.NUMERIC:
                values = np.ascontiguousarray(values)
            return (_load_column, (self.name, values))
        codes, dictionary = self.codes, self.dictionary
        used = np.zeros(len(dictionary) + 1, dtype=bool)
        used[codes] = True
        if not used[:-1].all():
            # Renumber the used entries in order (the dictionary stays
            # sorted); NULL becomes the new dictionary's length.
            dictionary = dictionary[used[:-1]]
            remap = np.cumsum(used) - 1
            remap[-1] = len(dictionary)
            codes = remap[codes]
        codes = codes.astype(code_dtype(len(dictionary)), copy=False)
        return (_load_column, (self.name, codes.tobytes(), tuple(dictionary)))

    def is_numeric(self) -> bool:
        """Whether the column stores numeric data."""
        return self.ctype is ColumnType.NUMERIC

    def null_mask(self) -> np.ndarray:
        """Boolean array marking NULL entries."""
        if self.ctype is ColumnType.NUMERIC:
            return np.isnan(self._values)
        if self.codes is not None:
            return self.codes == len(self.dictionary)
        return self._values == None  # noqa: E711 - elementwise over objects

    def _derive(self, index: object) -> "Column":
        """The rows selected by ``index`` (an index array or a slice)."""
        if self.codes is not None:
            return Column.from_codes(self.name, self.codes[index], self.dictionary)
        return Column._of(self.name, self.ctype, self._values[index])

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column containing the rows at ``indices``."""
        return self._derive(indices)

    def slice(self, start: int, stop: int | None = None) -> "Column":
        """Rows ``start:stop`` as a zero-copy view (shares the dictionary)."""
        view = self._derive(slice(start, stop))
        if self.codes is not None and self._values is not None:
            view._values = self._values[start:stop]
        return view

    def group_codes(self) -> np.ndarray:
        """Non-negative integer codes whose order is the group/sort order.

        Equal values share a code, codes ascend in :func:`sort_rank_key`
        order and NULL is largest.  Encoded columns hand out their
        storage codes (possibly sparse after a filter — harmless to the
        sort kernels); everything else factorizes.
        """
        if self.codes is not None:
            return self.codes
        return factorize_array(self._values)[0]

    def rename(self, name: str) -> "Column":
        """Return the same column under a different name (shared data)."""
        return Column._of(name, self.ctype, self._values, self.codes, self.dictionary)

    def to_pylist(self) -> list[object]:
        """Convert to a list of Python values (``None`` for NULL)."""
        return canonical_pylist(self.values)
