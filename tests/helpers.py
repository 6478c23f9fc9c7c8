"""Helpers shared by test modules."""

from __future__ import annotations

from collections.abc import Sequence

from repro.storage.resultset import ResultSet
from repro.storage.table import Table


def result_set(rows: Sequence[dict] = ()) -> ResultSet:
    """A small columnar result — what caches store and codecs estimate."""
    return ResultSet.from_table(Table.from_rows(list(rows)))
