"""Partitioned vs flat differential over the backend corpus.

Runs every query of the backend corpus (plus its hypothesis
shapes) on two embedded engines holding identical data — one flat, one
partitioned — and asserts the results are exactly equal: every value
with its type (float sums to the last bit), the column order and the
row order, also for queries without ORDER BY.

Partitioning changes only which rows the scan reads: the operators above
it are the flat ones over the flat filter's rows in the flat order, so
anything short of ``==`` here is a bug.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_backends_differential import CORPUS, DATA_COLUMNS, _flights_rows, _mixed_rows

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


def _typed(rows: list[dict]) -> list[list[tuple]]:
    """Each row as ``(column, type, value)`` triples in column order."""
    return [[(name, type(value), value) for name, value in row.items()] for row in rows]


def assert_exactly_equal(engines: dict[str, Database], sql: str) -> None:
    """The partitioned engine's rows ``==`` the flat engine's: value,
    type, column order and row order."""
    flat = engines["serial"].execute(sql).to_rows()
    partitioned = engines["partitioned"].execute(sql).to_rows()
    assert _typed(partitioned) == _typed(flat), sql


@pytest.fixture(scope="module")
def engines():
    """The corpus tables, flat vs partitioned."""
    return _engine_pair(
        {
            "data": (_mixed_rows(), DATA_COLUMNS),
            "flights": (_flights_rows(), None),
        },
        target_rows=40,
    )


@pytest.mark.parametrize("sql", [c[1] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_corpus_query_identical_partitioned(engines, sql):
    assert_exactly_equal(engines, sql)


def test_partitioned_engine_actually_partitions(engines):
    """The differential is only meaningful if the scan reads partitions."""
    before = engines["partitioned"].stats()
    engines["partitioned"].execute("SELECT g, COUNT(*) AS n FROM data GROUP BY g").to_rows()
    after = engines["partitioned"].stats()
    assert after["partitions_scanned"] > before["partitions_scanned"]
    assert after["morsel_tasks"] > before["morsel_tasks"]


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

#: Every operator over a pruned scan: filter chains, mergeable and other
#: aggregates, DISTINCT, ORDER BY + LIMIT.
PARTITION_QUERIES = (
    "SELECT * FROM t WHERE v > 0 AND w < 100",
    "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi "
    "FROM t GROUP BY g",
    "SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE v > 10",
    "SELECT MEDIAN(v) AS med, COUNT(DISTINCT g) AS ng FROM t",
    "SELECT DISTINCT g FROM t",
    "SELECT g, v FROM t WHERE v BETWEEN -100 AND 100 ORDER BY v DESC, g ASC LIMIT 7",
    "SELECT g, SUM(v) + COUNT(*) AS combo FROM t GROUP BY g",
    "SELECT g, -SUM(v) AS neg, SUM(v) / COUNT(*) AS ratio, MAX(v) - MIN(v) + 1 AS span "
    "FROM t GROUP BY g",
)


@given(
    rows=st.lists(row_strategy, min_size=0, max_size=40),
    target_rows=st.integers(min_value=1, max_value=12),
)
def test_random_tables_identical_partitioned(rows, target_rows):
    engines = _engine_pair({"t": (rows, ["v", "w", "g"])}, target_rows=target_rows)
    for sql in PARTITION_QUERIES:
        assert_exactly_equal(engines, sql)


@given(rows=st.lists(row_strategy, min_size=1, max_size=30), descending=st.booleans())
def test_random_order_by_identical_partitioned(rows, descending):
    """The sort over a pruned, filtered scan is stable in flat row order."""
    engines = _engine_pair({"t": (rows, ["v", "w", "g"])}, target_rows=5)
    direction = "DESC" if descending else "ASC"
    assert_exactly_equal(engines, f"SELECT v, g FROM t WHERE w >= -1e6 ORDER BY v {direction}")


def test_partition_boundary_rows_not_lost():
    """Boundary values landing exactly on partition edges stay visible."""
    rows = [{"t": float(i), "v": float(i)} for i in range(100)]
    engines = _engine_pair({"t": (rows, ["t", "v"])}, target_rows=10)
    for bound in (9.0, 10.0, 50.0, 99.0):
        assert_exactly_equal(engines, f"SELECT COUNT(*) AS n FROM t WHERE t >= {bound}")
    deltas = engines["partitioned"].execute(
        "SELECT COUNT(*) AS n FROM t WHERE t = 10"
    ).to_rows()
    assert deltas == [{"n": 1}]


def test_partitioned_float_sums_are_bit_identical():
    """SUM and AVG over a partitioned table equal the flat ones exactly."""
    rng = np.random.default_rng(11)
    rows = [{"g": "ab"[i % 2], "v": float(rng.normal(0, 1e6))} for i in range(5000)]
    engines = _engine_pair({"t": (rows, ["g", "v"])}, target_rows=500)
    sql = "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g"
    serial = engines["serial"].execute(sql).to_rows()
    partitioned = engines["partitioned"].execute(sql).to_rows()
    assert partitioned == serial
    assert all(isinstance(row["s"], float) for row in partitioned)


def test_partitioned_execution_starts_nothing():
    """Partitions are scanned on the calling thread: no thread, no process.

    The shape that used to be handed to a worker pool — several
    surviving partitions of at least 8,192 rows each — under a grouped
    aggregate, a DISTINCT and a bare filter.
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
        assert_exactly_equal(engines, sql)
    # Three of the four 10,000-row partitions survive each query.
    assert engines["partitioned"].stats()["partitions_scanned"] == 9
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == children
