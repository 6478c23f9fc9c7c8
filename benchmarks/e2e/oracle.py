"""The benchmark's own oracle: numpy evaluation of :class:`Query`, and row comparison.

Independent of every layer under test — no parser, planner, cache, IVM
view, partition or backend of ``repro`` is involved — and cheap enough
(range predicates become slices of a per-column sort order) that *every*
measured response is checked, not a sample.

Semantics replicated from the repo's backend contract: aggregates skip
NULL (NaN here), ``COUNT(*)`` counts rows, an all-NULL group aggregates
to NULL, comparisons never match NULL, groups order by key.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from benchmarks.e2e.queries import Query

#: The repo's row-identity contract for floats.
REL_TOL = 1e-9

_COMPARE = {">=": np.greater_equal, "<": np.less, "<=": np.less_equal}


def value_match(got: object, want: object) -> bool:
    """Floats within :data:`REL_TOL`; everything else exactly."""
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)
    return got == want


def rows_match(got: Sequence[Mapping], want: Sequence[Mapping]) -> bool:
    """Order-sensitive row equality (every SQL shape has a total ORDER BY)."""
    if len(got) != len(want):
        return False
    for got_row, want_row in zip(got, want):
        if got_row.keys() != want_row.keys():
            return False
        if not all(value_match(got_row[key], value) for key, value in want_row.items()):
            return False
    return True


def _sort_key(row: Mapping) -> tuple:
    # 9 significant digits: coarser than REL_TOL, so near-equal rows sort alike.
    return tuple(
        (key, f"{value:.9g}" if isinstance(value, (int, float)) else repr(value))
        for key, value in sorted(row.items())
    )


def rows_match_unordered(got: Sequence[Mapping], want: Sequence[Mapping]) -> bool:
    """Multiset equality with the same tolerance (dataflow datasets carry no order)."""
    return rows_match(sorted(got, key=_sort_key), sorted(want, key=_sort_key))


class Oracle:
    """Evaluates :class:`Query` over the generated rows with numpy."""

    def __init__(self, rows: Sequence[Mapping[str, object]]) -> None:
        self._numeric: dict[str, np.ndarray] = {}
        self._codes: dict[str, np.ndarray] = {}
        self._categories: dict[str, np.ndarray] = {}
        self._order: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for column in rows[0]:
            values = [row[column] for row in rows]
            if any(isinstance(value, str) for value in values):
                self._categories[column], self._codes[column] = np.unique(
                    np.asarray(values, dtype=object).astype(str), return_inverse=True
                )
            else:
                self._numeric[column] = np.asarray(
                    [np.nan if value is None else value for value in values], dtype=np.float64
                )
        self.n_rows = len(rows)

    def column_range(self, column: str) -> tuple[float, float]:
        """Observed (min, max) of a numeric column."""
        values = self._numeric[column]
        return float(np.nanmin(values)), float(np.nanmax(values))

    # ------------------------------------------------------------------ #
    def _selected(self, where: Sequence[tuple[str, str, float]]) -> np.ndarray:
        """Row indices passing every predicate (in no particular order)."""
        lead = where[0][0]
        if lead not in self._order:
            order = np.argsort(self._numeric[lead], kind="stable")  # NaN sorts last
            order = order[: len(order) - int(np.isnan(self._numeric[lead]).sum())]
            self._order[lead] = (order, self._numeric[lead][order])
        order, ordered = self._order[lead]
        start, stop = 0, len(ordered)
        rest = []
        for column, op, value in where:
            if column != lead:
                rest.append((column, op, value))
            elif op == ">=":
                start = max(start, int(np.searchsorted(ordered, value, "left")))
            elif op == "<":
                stop = min(stop, int(np.searchsorted(ordered, value, "left")))
            elif op == "<=":
                stop = min(stop, int(np.searchsorted(ordered, value, "right")))
            else:
                raise ValueError(f"unsupported operator {op!r}")
        index = order[start:stop]
        for column, op, value in rest:
            index = index[_COMPARE[op](self._numeric[column][index], value)]
        return index

    def rows(self, query: Query) -> list[dict[str, object]]:
        """The rows ``query.sql`` must return."""
        index = self._selected(query.where)
        if query.columns:
            return self._fetch(query, index)
        return self._grouped(query, index)

    def _fetch(self, query: Query, index: np.ndarray) -> list[dict[str, object]]:
        sort_columns = [self._numeric[key][index] for key in reversed(query.keys)]
        index = index[np.lexsort(sort_columns)]
        lists = []
        for column in query.columns:
            if column in self._numeric:
                values = self._numeric[column][index]
                lists.append([None if math.isnan(v) else v for v in values.tolist()])
            else:
                lists.append(self._categories[column][self._codes[column][index]].tolist())
        return [dict(zip(query.columns, values)) for values in zip(*lists)]

    def _grouped(self, query: Query, index: np.ndarray) -> list[dict[str, object]]:
        # Group codes are small (<= 18 carriers x 120 origins), so every
        # aggregate is a bincount over the code space; int16 codes make the
        # stable argsort MIN/MAX needs a radix sort.
        space = 1
        combined = np.zeros(len(index), dtype=np.int64)
        for key in query.keys:
            space *= len(self._categories[key])
            combined = combined * len(self._categories[key]) + self._codes[key][index]
        combined = combined.astype(np.int16)
        by_group = starts = None
        sizes = np.bincount(combined, minlength=space)
        groups = np.flatnonzero(sizes)
        out: dict[str, list[object]] = {}
        remainder = groups
        for key in reversed(query.keys):
            remainder, codes = np.divmod(remainder, len(self._categories[key]))
            out[key] = self._categories[key][codes].tolist()
        out = {key: out[key] for key in query.keys}
        for function, argument, alias in query.aggs:
            if argument == "*":
                out[alias] = sizes[groups].tolist()
                continue
            values = self._numeric[argument][index]
            present = ~np.isnan(values)
            counts = np.bincount(combined[present], minlength=space)[groups]
            if function in ("SUM", "AVG"):
                result = np.bincount(combined[present], weights=values[present], minlength=space)
                result = result[groups]
                if function == "AVG":
                    result = result / np.maximum(counts, 1)
            elif function in ("MIN", "MAX") and len(groups):
                if by_group is None:
                    by_group = np.argsort(combined, kind="stable")
                    starts = np.searchsorted(combined[by_group], groups)
                reducer = np.fmin if function == "MIN" else np.fmax
                result = reducer.reduceat(values[by_group], starts)
            else:
                raise ValueError(f"unsupported aggregate {function!r}")
            out[alias] = [
                value if count else None for value, count in zip(result.tolist(), counts.tolist())
            ]
        names = list(out)
        return [dict(zip(names, values)) for values in zip(*(out[name] for name in names))]


def describe_mismatch(got: Sequence[Mapping], want: Sequence[Mapping]) -> str:
    """One line locating the first difference (for the failure log)."""
    if len(got) != len(want):
        return f"row count {len(got)} != {len(want)}"
    for position, (got_row, want_row) in enumerate(zip(got, want)):
        if not rows_match([got_row], [want_row]):
            return f"row {position}: got {dict(got_row)!r}, want {dict(want_row)!r}"
    return "rows differ only in order"
