"""Partitioned vs flat differential over the backend corpus.

Runs every query of the 29-query backend corpus (plus its hypothesis
shapes) on two embedded engines holding identical data — one flat, one
partitioned — and asserts row-identical results through the same comparison contract the
cross-backend suite enforces (values, ordering, NULL placement).

This is the correctness gate of the partitioned execution refactor: the
pruning pass and every merge step (concat, partial-aggregate combine,
per-partition DISTINCT, post-merge sort) must be invisible in results.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_backends_differential import (
    CORPUS,
    _mixed_rows,
    assert_identical_results,
)

from repro.datasets import generate_dataset
from repro.sql import Database


def _engine_pair(
    tables: dict[str, tuple[list[dict], list[str] | None]],
    target_rows: int,
) -> dict[str, Database]:
    """A flat and a partitioned engine with the same data."""
    serial = Database()
    partitioned = Database()
    for name, (rows, column_order) in tables.items():
        serial.register_rows(name, rows, column_order=column_order)
        partitioned.register_rows(name, rows, column_order=column_order)
        partitioned.repartition(name, target_rows)
    return {"serial": serial, "partitioned": partitioned}


@pytest.fixture(scope="module")
def engines():
    """The corpus tables, flat vs partitioned."""
    return _engine_pair(
        {
            "data": (_mixed_rows(), ["g", "v", "w", "b"]),
            "flights": (generate_dataset("flights", 300, seed=5), None),
        },
        target_rows=40,
    )


@pytest.mark.parametrize(
    ("name", "builder", "is_ordered"), CORPUS, ids=[c[0] for c in CORPUS]
)
def test_corpus_query_identical_partitioned(engines, name, builder, is_ordered):
    sql_by_engine = {
        engine_name: builder(engine.capabilities)
        for engine_name, engine in engines.items()
    }
    assert_identical_results(sql_by_engine, engines, ordered=is_ordered)


def test_partitioned_engine_actually_partitions(engines):
    """The differential is only meaningful if morsels actually run."""
    engines["partitioned"].metrics.reset()
    engines["partitioned"].query_rows("SELECT g, COUNT(*) AS n FROM data GROUP BY g")
    snapshot = engines["partitioned"].stats()
    assert snapshot["partitions_scanned"] > 0
    assert snapshot["morsel_tasks"] > 0


# --------------------------------------------------------------------------- #
# Property-based: random tables, random partition sizes
# --------------------------------------------------------------------------- #

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

row_strategy = st.fixed_dictionaries(
    {
        "v": st.one_of(st.none(), finite_floats),
        "w": finite_floats,
        "g": st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
    }
)

#: Queries stressing every merge step: filter chains, decomposable and
#: non-decomposable aggregates, DISTINCT, ORDER BY + LIMIT.
PARTITION_QUERIES = (
    "SELECT * FROM t WHERE v > 0 AND w < 100",
    "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi "
    "FROM t GROUP BY g",
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE v > 10",
    "SELECT MEDIAN(v) AS med, COUNT(DISTINCT g) AS ng FROM t",
    "SELECT DISTINCT g FROM t",
    "SELECT g, v FROM t WHERE v BETWEEN -100 AND 100 ORDER BY v DESC, g ASC LIMIT 7",
    "SELECT g, SUM(v) + COUNT(*) AS combo FROM t GROUP BY g",
)


@given(
    rows=st.lists(row_strategy, min_size=0, max_size=40),
    target_rows=st.integers(min_value=1, max_value=12),
)
def test_random_tables_identical_partitioned(rows, target_rows):
    engines = _engine_pair({"t": (rows, ["v", "w", "g"])}, target_rows=target_rows)
    for sql in PARTITION_QUERIES:
        assert_identical_results(dict.fromkeys(engines, sql), engines, ordered=False)


@given(rows=st.lists(row_strategy, min_size=1, max_size=30), descending=st.booleans())
def test_random_order_by_identical_partitioned(rows, descending):
    """Positional comparison: the merge must preserve stable sort order."""
    engines = _engine_pair({"t": (rows, ["v", "w", "g"])}, target_rows=5)
    direction = "DESC" if descending else "ASC"
    sql = f"SELECT v, g FROM t WHERE w >= -1e6 ORDER BY v {direction}"
    assert_identical_results(dict.fromkeys(engines, sql), engines, ordered=True)


def test_partition_boundary_rows_not_lost():
    """Boundary values landing exactly on partition edges stay visible."""
    rows = [{"t": float(i), "v": float(i)} for i in range(100)]
    engines = _engine_pair({"t": (rows, ["t", "v"])}, target_rows=10)
    for bound in (9.0, 10.0, 50.0, 99.0):
        sql = f"SELECT COUNT(*) AS n FROM t WHERE t >= {bound}"
        assert_identical_results(dict.fromkeys(engines, sql), engines, ordered=True)
    deltas = engines["partitioned"].query_rows(
        "SELECT COUNT(*) AS n FROM t WHERE t = 10"
    )
    assert deltas == [{"n": 1}]


def test_float_merge_tolerance_is_tight():
    """Partial-sum merges agree with serial sums to float tolerance."""
    rng = np.random.default_rng(11)
    rows = [{"g": "ab"[i % 2], "v": float(rng.normal(0, 1e6))} for i in range(5000)]
    engines = _engine_pair({"t": (rows, ["g", "v"])}, target_rows=500)
    serial = engines["serial"].query_rows("SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g")
    partitioned = engines["partitioned"].query_rows(
        "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g"
    )
    for row_a, row_b in zip(serial, partitioned):
        assert row_a["g"] == row_b["g"]
        assert np.isclose(row_a["s"], row_b["s"], rtol=1e-9)
        assert np.isclose(row_a["a"], row_b["a"], rtol=1e-9)


def test_partitioned_execution_starts_nothing():
    """Partitions are scanned on the calling thread: no thread, no process.

    The shape that used to be handed to a worker pool — several
    surviving partitions of at least 8,192 rows each — through all three
    partitioned operators (grouped aggregate, DISTINCT, row-local chain).
    """
    rows = [{"t": float(i), "g": "abcd"[i % 4], "v": float(i % 97)} for i in range(40_000)]
    engines = _engine_pair({"t": (rows, ["t", "g", "v"])}, target_rows=10_000)
    threads = threading.active_count()
    children = multiprocessing.active_children()
    for sql in (
        "SELECT g, COUNT(*) AS n, AVG(v) AS a FROM t WHERE t >= 10000 GROUP BY g",
        "SELECT DISTINCT g FROM t WHERE t >= 10000",
        "SELECT t, v FROM t WHERE t >= 10000 AND v < 3",
    ):
        assert_identical_results(dict.fromkeys(engines, sql), engines, ordered=False)
    # Three of the four 10,000-row partitions survive each query.
    assert engines["partitioned"].stats()["partitions_scanned"] == 9
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children
