"""Naive reference versions of the engine's group / sort / distinct kernels.

The engine groups, sorts and deduplicates through factorized codes and
one stable sort (:func:`repro.storage.table.group_segments`,
:func:`repro.storage.table.sort_codes`).  The ``*_reference`` functions
here are the row-at-a-time definitions of the same results; the
property-based differential tests check the kernels against them and
``benchmarks/bench_sql_kernels.py`` times the two side by side.  The
``*_vectorized`` functions are the kernels behind the same signatures.

Both share one deterministic ordering: numbers < strings < NULL
(``sort_rank_key``), with ORDER BY treating NULL as the largest value
(last under ASC, first under DESC — PostgreSQL semantics).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sql.functions import is_string_array
from repro.storage.column import factorize_array, sort_rank_key
from repro.storage.table import Table, group_segments, sort_codes


def _normalise_group_value(value: object) -> object:
    """NULL-normalise one grouping value (NaN and None collapse to None)."""
    if value is None:
        return None
    if isinstance(value, (float, np.floating)) and np.isnan(value):
        return None
    return value


def group_rows_vectorized(group_arrays: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """Vectorized grouping: factorized codes + one stable sort of the codes.

    Returns each group's row indices (ascending within a group) with the
    groups themselves in deterministic key order.
    """
    codes = [factorize_array(arr)[0] for arr in group_arrays]
    order, starts, ends = group_segments(codes, n)
    return [order[start:end] for start, end in zip(starts, ends)]


def group_rows_reference(group_arrays: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """Naive reference grouping: a dict of normalised key tuples."""
    normalised: list[list[object]] = []
    for arr in group_arrays:
        if is_string_array(arr):
            normalised.append([_normalise_group_value(v) for v in arr])
        else:
            normalised.append([None if np.isnan(v) else float(v) for v in arr])
    keys: dict[tuple, list[int]] = {}
    for i in range(n):
        key = tuple(col[i] for col in normalised)
        keys.setdefault(key, []).append(i)
    ordered = sorted(keys.items(), key=lambda kv: _group_sort_key(kv[0]))
    return [np.array(indices, dtype=np.int64) for _, indices in ordered]


def sort_indices_vectorized(
    key_arrays: Sequence[np.ndarray], descending: Sequence[bool], n: int
) -> np.ndarray:
    """Stable multi-key sort via one stable sort over factorized codes.

    Factorized codes already order uniques by the deterministic rank with
    NULL largest, so DESC simply mirrors the codes (putting NULLs first).
    """
    if not key_arrays:
        return np.arange(n, dtype=np.int64)
    return sort_codes([factorize_array(values)[0] for values in key_arrays], descending)


def sort_indices_reference(
    key_arrays: Sequence[np.ndarray], descending: Sequence[bool], n: int
) -> np.ndarray:
    """Naive reference sort: repeated stable Python sorts, least key first."""
    indices = list(range(n))
    for values, desc in reversed(list(zip(key_arrays, descending))):
        indices.sort(
            key=lambda i: sort_rank_key(_normalise_group_value(values[i])),
            reverse=desc,
        )
    return np.array(indices, dtype=np.int64)


def distinct_indices_reference(table: Table) -> np.ndarray:
    """Naive reference DISTINCT: first occurrence of each materialised row."""
    seen: set[tuple] = set()
    keep: list[int] = []
    for index, row in enumerate(table.to_rows()):
        key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
        if key not in seen:
            seen.add(key)
            keep.append(index)
    return np.array(keep, dtype=np.int64)


def _group_sort_key(key: tuple) -> tuple:
    """Deterministic ordering of group keys with mixed types and NULLs."""
    return tuple(sort_rank_key(value) for value in key)
