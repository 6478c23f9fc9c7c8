"""End-to-end tests of the SQL engine (parser → planner → executor)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ExecutionError, PlanningError
from repro.sql import Database
from repro.sql.executor import (
    distinct_indices_reference,
    group_rows_reference,
    sort_indices_reference,
)
from repro.sql.planner import ScanNode
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table, composite_codes, group_segments, sort_codes


@pytest.fixture()
def db(tiny_table_rows):
    database = Database()
    database.register_rows("tiny", tiny_table_rows)
    return database


def rows(db, sql):
    return db.execute(sql).to_rows()


# --------------------------------------------------------------------------- #
# Projection, filtering, expressions
# --------------------------------------------------------------------------- #


def test_select_star(db):
    assert len(rows(db, "SELECT * FROM tiny")) == 5


def test_select_columns_and_alias(db):
    result = rows(db, "SELECT category AS c, value FROM tiny")
    assert set(result[0]) == {"c", "value"}


def test_where_comparison_and_logic(db):
    result = rows(db, "SELECT value FROM tiny WHERE value > 10 AND value < 50")
    assert sorted(r["value"] for r in result) == [20, 30]


def test_where_nulls_are_excluded(db):
    result = rows(db, "SELECT value FROM tiny WHERE value > 0")
    assert len(result) == 4  # the NULL row never satisfies a comparison


def test_where_is_null(db):
    assert len(rows(db, "SELECT * FROM tiny WHERE value IS NULL")) == 1
    assert len(rows(db, "SELECT * FROM tiny WHERE value IS NOT NULL")) == 4


def test_where_in_list_and_string_equality(db):
    result = rows(db, "SELECT * FROM tiny WHERE category IN ('a', 'c')")
    assert len(result) == 3
    result = rows(db, "SELECT * FROM tiny WHERE category = 'b'")
    assert len(result) == 2


def test_where_between_and_not(db):
    assert len(rows(db, "SELECT * FROM tiny WHERE value BETWEEN 20 AND 30")) == 2
    assert len(rows(db, "SELECT * FROM tiny WHERE NOT value > 20")) == 2


def test_arithmetic_and_scalar_functions(db):
    result = rows(db, "SELECT value * 2 + 1 AS derived, FLOOR(value / 15) AS bucket FROM tiny WHERE value = 30")
    assert result[0]["derived"] == 61
    assert result[0]["bucket"] == 2


def test_case_expression(db):
    result = rows(
        db,
        "SELECT category, CASE WHEN value >= 30 THEN 'high' ELSE 'low' END AS level "
        "FROM tiny WHERE value IS NOT NULL ORDER BY value",
    )
    assert [r["level"] for r in result] == ["low", "low", "high", "high"]


def test_division_by_zero_yields_null(db):
    result = rows(db, "SELECT value / 0 AS broken FROM tiny WHERE value = 10")
    assert result[0]["broken"] is None


def test_string_functions_and_concat(db):
    result = rows(db, "SELECT UPPER(category) AS u, category || '!' AS c FROM tiny WHERE value = 10")
    assert result[0] == {"u": "A", "c": "a!"}


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #


def test_global_aggregates(db):
    result = rows(db, "SELECT COUNT(*) AS n, SUM(value) AS s, AVG(value) AS a, MIN(value) AS lo, MAX(value) AS hi FROM tiny")
    assert result == [{"n": 5, "s": 110, "a": 27.5, "lo": 10, "hi": 50}]


def test_count_column_skips_nulls(db):
    result = rows(db, "SELECT COUNT(value) AS n FROM tiny")
    assert result[0]["n"] == 4


def test_group_by_with_order(db):
    result = rows(db, "SELECT category, COUNT(*) AS n FROM tiny GROUP BY category ORDER BY category")
    assert result == [
        {"category": "a", "n": 2},
        {"category": "b", "n": 2},
        {"category": "c", "n": 1},
    ]


def test_group_by_expression_alias(db):
    result = rows(
        db,
        "SELECT FLOOR(weight / 2) AS bucket, COUNT(*) AS n FROM tiny GROUP BY bucket ORDER BY bucket",
    )
    assert [r["bucket"] for r in result] == [0, 1, 2]


def test_having_filters_groups(db):
    result = rows(
        db,
        "SELECT category, COUNT(*) AS n FROM tiny GROUP BY category HAVING COUNT(*) > 1 ORDER BY category",
    )
    assert [r["category"] for r in result] == ["a", "b"]


def test_aggregate_of_empty_input(db):
    result = rows(db, "SELECT COUNT(*) AS n, SUM(value) AS s FROM tiny WHERE value > 1000")
    assert result == [{"n": 0, "s": None}]


def test_count_distinct(db):
    result = rows(db, "SELECT COUNT(DISTINCT category) AS n FROM tiny")
    assert result[0]["n"] == 3


def test_median_and_stddev(db):
    result = rows(db, "SELECT MEDIAN(value) AS m, STDDEV(value) AS s FROM tiny")
    assert result[0]["m"] == 25
    assert result[0]["s"] == pytest.approx(17.078, abs=0.01)


def test_group_by_requires_grouped_items(db):
    with pytest.raises(PlanningError):
        db.execute("SELECT value, COUNT(*) FROM tiny GROUP BY category")


def test_aggregate_in_where_rejected(db):
    with pytest.raises(PlanningError):
        db.execute("SELECT category FROM tiny WHERE COUNT(*) > 1")


# --------------------------------------------------------------------------- #
# Sorting, limits, distinct, subqueries, windows
# --------------------------------------------------------------------------- #


def test_order_by_multiple_keys_and_nulls_last(db):
    result = rows(db, "SELECT category, value FROM tiny ORDER BY category, value DESC")
    assert result[0] == {"category": "a", "value": 20}
    # PostgreSQL semantics: DESC places NULLs first within the 'b' group.
    assert result[2]["value"] is None
    assert result[3]["value"] == 30


def test_limit_offset(db):
    result = rows(db, "SELECT value FROM tiny ORDER BY weight LIMIT 2 OFFSET 1")
    assert [r["value"] for r in result] == [20, 30]


def test_distinct(db):
    result = rows(db, "SELECT DISTINCT category FROM tiny")
    assert len(result) == 3


def test_subquery_in_from(db):
    result = rows(
        db,
        "SELECT category, COUNT(*) AS n FROM "
        "(SELECT * FROM tiny WHERE value > 10) AS sub GROUP BY category ORDER BY category",
    )
    assert result == [{"category": "a", "n": 1}, {"category": "b", "n": 1}, {"category": "c", "n": 1}]


def test_window_running_sum(db):
    result = rows(
        db,
        "SELECT category, weight, SUM(weight) OVER (PARTITION BY category ORDER BY weight) AS cumulative FROM tiny ORDER BY category, weight",
    )
    by_category = {}
    for row in result:
        by_category.setdefault(row["category"], []).append(row["cumulative"])
    assert by_category["a"] == [1, 3]
    assert by_category["b"] == [3, 7]


def test_window_row_number(db):
    result = rows(
        db,
        "SELECT category, ROW_NUMBER() OVER (PARTITION BY category ORDER BY weight) AS rn FROM tiny ORDER BY category, rn",
    )
    assert [r["rn"] for r in result if r["category"] == "a"] == [1, 2]


def test_window_without_order_is_partition_total(db):
    result = rows(
        db,
        "SELECT category, SUM(weight) OVER (PARTITION BY category) AS total FROM tiny ORDER BY category",
    )
    totals = {r["category"]: r["total"] for r in result}
    assert totals == {"a": 3, "b": 7, "c": 5}


# --------------------------------------------------------------------------- #
# Engine-level behaviour
# --------------------------------------------------------------------------- #


def test_unknown_table_and_column(db):
    with pytest.raises(CatalogError):
        db.execute("SELECT * FROM missing")
    with pytest.raises(ExecutionError):
        db.execute("SELECT missing_column FROM tiny")


def test_unknown_function(db):
    with pytest.raises(ExecutionError):
        db.execute("SELECT FROBNICATE(value) FROM tiny")


def test_engine_metrics_accumulate(db):
    db.execute("SELECT * FROM tiny")
    db.execute("SELECT COUNT(*) FROM tiny")
    assert db.metrics.queries_executed >= 2
    assert db.metrics.total_rows_returned >= 6


def test_execution_stats_count_kernel_work(db):
    grouped = db.execute("SELECT category, COUNT(*) FROM tiny GROUP BY category")
    assert grouped.stats.rows_grouped == 5
    assert grouped.stats.groups_formed == 3
    ordered = db.execute("SELECT * FROM tiny ORDER BY value")
    assert ordered.stats.rows_sorted == 5
    deduped = db.execute("SELECT DISTINCT category FROM tiny")
    assert deduped.stats.rows_deduplicated == 5
    totals = db.metrics.snapshot()
    assert totals["groups_formed"] >= 3
    assert totals["rows_sorted"] >= 5
    assert totals["rows_deduplicated"] >= 5


def test_plan_cache_hits_on_whitespace_variants(db):
    baseline_misses = db.metrics.plan_cache_misses
    first = rows(db, "SELECT category, COUNT(*) AS n FROM tiny GROUP BY category")
    again = rows(db, "SELECT   category,\n  COUNT(*) AS n\nFROM tiny   GROUP BY category")
    assert again == first
    assert db.metrics.plan_cache_hits >= 1
    assert db.metrics.plan_cache_misses == baseline_misses + 1


def test_plan_cache_preserves_string_literal_whitespace():
    database = Database()
    database.register_rows("t", [{"s": "a b"}, {"s": "a  b"}])
    for quote in ("'", '"'):
        one = database.query_rows(f"SELECT * FROM t WHERE s = {quote}a b{quote}")
        two = database.query_rows(f"SELECT * FROM t WHERE s = {quote}a  b{quote}")
        assert one == [{"s": "a b"}]
        assert two == [{"s": "a  b"}]  # distinct cache keys, not a stale plan
    assert database.metrics.plan_cache_misses == 4
    assert database.metrics.plan_cache_hits == 0


def test_plan_cache_survives_table_replacement(db):
    sql = "SELECT COUNT(*) AS n FROM tiny"
    assert rows(db, sql) == [{"n": 5}]
    db.register_rows("tiny", [{"category": "x", "value": 1, "weight": 1}], replace=True)
    assert rows(db, sql) == [{"n": 1}]  # cached plan re-resolves the table
    assert db.metrics.plan_cache_hits >= 1


def test_apply_aggregate_segments_honours_gapped_segments():
    import numpy as np

    from repro.sql.functions import apply_aggregate_segments

    values = np.array([1.0, 2.0, 3.0])
    starts, ends = np.array([0, 2]), np.array([1, 3])
    # Non-contiguous segments must skip the reduceat fast path (which would
    # fold row 1 into the first group) and honour ends exactly.
    assert apply_aggregate_segments("SUM", values, starts, ends) == [1.0, 3.0]
    assert apply_aggregate_segments("COUNT", values, starts, ends) == [1.0, 1.0]


def test_order_by_string_nulls_deterministic():
    database = Database()
    database.register_rows(
        "t", [{"s": "b"}, {"s": None}, {"s": "a"}, {"s": None}, {"s": "c"}]
    )
    ascending = [r["s"] for r in database.query_rows("SELECT s FROM t ORDER BY s")]
    assert ascending == ["a", "b", "c", None, None]
    descending = [r["s"] for r in database.query_rows("SELECT s FROM t ORDER BY s DESC")]
    assert descending == [None, None, "c", "b", "a"]


def test_register_columns_and_drop(db):
    db.register_columns("extra", {"a": [1, 2, 3]})
    assert db.query_rows("SELECT COUNT(*) AS n FROM extra") == [{"n": 3}]
    db.drop_table("extra")
    assert "extra" not in db.table_names()


def test_group_scalar_tail_vectorized_matches_naive_reference():
    """Pin the fancy-indexed per-group scalar tail against naive Python.

    A non-aggregate scalar expression inside GROUP BY takes each group's
    first row via one ``order[starts]`` take; this must agree with a
    per-group loop for many groups, NULL keys, string keys, and the
    empty-input global-aggregate case (empty segment -> NULL).
    """
    import random

    rng = random.Random(7)
    rows = [
        {
            "g": rng.choice([None, *(f"k{i}" for i in range(50))]),
            "v": rng.choice([None, -1.5, 0.0, 2.0, 7.25]),
        }
        for _ in range(400)
    ]
    database = Database()
    database.register_rows("t", rows, column_order=["g", "v"])
    result = database.query_rows(
        "SELECT g, g AS key_again, v + 0 AS shifted, COUNT(*) AS n "
        "FROM t GROUP BY g, v + 0 ORDER BY g, shifted"
    )
    naive: dict[tuple, int] = {}
    for row in rows:
        naive[(row["g"], row["v"])] = naive.get((row["g"], row["v"]), 0) + 1
    assert len(result) == len(naive)
    for out in result:
        assert out["key_again"] == out["g"]
        assert out["n"] == naive[(out["g"], out["shifted"])]

    # Empty input: zero groups must come out as zero rows, and the
    # no-GROUP-BY global aggregate yields its one NULL-filled segment.
    database.register_columns("e", {"g": [], "v": []})
    assert database.query_rows("SELECT g, v + 0 AS s FROM e GROUP BY g, v + 0") == []
    assert database.query_rows("SELECT MAX(v) AS m, COUNT(*) AS n FROM e") == [
        {"m": None, "n": 0}
    ]


# --------------------------------------------------------------------------- #
# Dictionary-encoded string columns: code-domain kernels vs naive references
# --------------------------------------------------------------------------- #

_kernel_settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)
_strings = st.one_of(st.none(), st.sampled_from(["", "a", "b", "c", "zz", "é", "B"]))


@st.composite
def _dictionary_table(draw):
    """1-3 dictionary-encoded key columns (NULLs included), then a filter,
    so the surviving codes are sparse in the shared dictionary."""
    n = draw(st.integers(min_value=0, max_value=30))
    n_keys = draw(st.integers(min_value=1, max_value=3))
    columns = [
        Column(
            f"k{index}",
            np.array(draw(st.lists(_strings, min_size=n, max_size=n)), dtype=object),
            ColumnType.STRING,
        )
        for index in range(n_keys)
    ]
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return Table(columns).filter(mask)


@_kernel_settings
@given(table=_dictionary_table(), flags=st.lists(st.booleans(), min_size=3, max_size=3))
def test_code_domain_kernels_match_references_on_dictionary_columns(table, flags):
    columns = table.columns()
    assert all(column.codes is not None for column in columns)
    n = table.num_rows
    codes = [column.group_codes() for column in columns]
    arrays = [column.values for column in columns]

    order, starts, ends = group_segments(codes, n)
    groups = [order[start:end].tolist() for start, end in zip(starts, ends)]
    assert groups == [g.tolist() for g in group_rows_reference(arrays, n)]

    descending = flags[: len(columns)]
    assert sort_codes(codes, descending).tolist() == (
        sort_indices_reference(arrays, descending, n).tolist()
    )
    assert table.distinct_indices().tolist() == distinct_indices_reference(table).tolist()


@_kernel_settings
@given(table=_dictionary_table(), descending=st.booleans())
def test_dictionary_columns_through_sql_match_references(table, descending):
    """The same three shapes through parser → planner → executor."""
    names = table.column_names()
    keys = ", ".join(names)
    database = Database()
    database.register_table("t", table)
    arrays = [table.column(name).values for name in names]

    grouped = database.query_rows(f"SELECT {keys}, COUNT(*) AS n FROM t GROUP BY {keys}")
    reference = group_rows_reference(arrays, table.num_rows)
    assert [row["n"] for row in grouped] == [len(group) for group in reference]
    assert [tuple(row[name] for name in names) for row in grouped] == [
        tuple(array[group[0]] for array in arrays) for group in reference
    ]

    direction = " DESC" if descending else ""
    ordered = database.query_rows(
        f"SELECT {keys} FROM t ORDER BY " + ", ".join(name + direction for name in names)
    )
    expected = sort_indices_reference(arrays, [descending] * len(names), table.num_rows)
    assert ordered == table.take(expected).to_rows()

    distinct = database.query_rows(f"SELECT DISTINCT {keys} FROM t")
    seen: list[tuple] = []
    for row in table.to_rows():
        if tuple(row.values()) not in seen:
            seen.append(tuple(row.values()))
    assert [tuple(row.values()) for row in distinct] == seen


def test_wide_key_products_fall_back_to_wider_sorts():
    """Composite keys past 16 and 32 bits (and past 62: lexsort) stay exact."""
    rng = np.random.default_rng(3)
    for radix, n_keys, dtype in ((200, 2, np.uint16), (3000, 2, np.uint32),
                                 (3000, 4, np.int64), (2**21, 3, None)):
        codes = [rng.integers(0, radix, 500) for _ in range(n_keys)]
        for array in codes:
            array[0] = radix - 1  # pin the radix
        key = composite_codes(codes)
        assert (key is None) if dtype is None else (key.dtype == dtype)
        expected = np.lexsort(tuple(reversed(codes)))
        assert sort_codes(codes).tolist() == expected.tolist()
        order, starts, ends = group_segments(codes, 500)
        assert order.tolist() == expected.tolist()
        tuples = list(zip(*(array[order] for array in codes)))
        assert [tuples[s] for s in starts] == sorted(set(tuples))
        flipped = sort_codes(codes, [True] * n_keys)
        assert flipped.tolist() == np.lexsort(tuple(-a for a in reversed(codes))).tolist()


# --------------------------------------------------------------------------- #
# Scan column pruning
# --------------------------------------------------------------------------- #


def _scan_columns(sql: str) -> list:
    database = Database()
    scans: list = []

    def walk(node):
        if isinstance(node, ScanNode):
            scans.append(node.columns)
        for child in node.children():
            walk(child)

    walk(database.plan(sql).root)
    return scans


@pytest.mark.parametrize(
    ("sql", "expected"),
    [
        ("SELECT origin, COUNT(*), AVG(delay) FROM flights WHERE distance <= 9 "
         "GROUP BY origin ORDER BY origin", [{"origin", "delay", "distance"}]),
        ("SELECT COUNT(*) FROM flights", [set()]),
        ("SELECT carrier FROM flights WHERE delay > 0 ORDER BY distance",
         [{"carrier", "delay", "distance"}]),
        ("SELECT FLOOR(distance / 100) AS b, COUNT(*) FROM flights GROUP BY b",
         [{"distance", "b"}]),
        ("SELECT DISTINCT carrier, origin FROM flights WHERE date < 5",
         [{"carrier", "origin", "date"}]),
        ("SELECT * FROM flights WHERE delay > 0", [None]),
        ("SELECT *, SUM(delay) OVER (PARTITION BY carrier ORDER BY date) AS s FROM flights",
         [None]),
        ("SELECT carrier, SUM(delay) OVER (PARTITION BY origin ORDER BY date) AS s "
         "FROM flights", [{"carrier", "delay", "origin", "date"}]),
        ("SELECT carrier, n FROM (SELECT carrier, COUNT(*) AS n FROM flights "
         "GROUP BY carrier) AS sub WHERE n > 3", [{"carrier"}]),
        ("SELECT carrier FROM (SELECT * FROM flights) AS sub WHERE delay > 1", [None]),
        ("SELECT carrier FROM (SELECT carrier, delay FROM flights) AS sub WHERE delay > 1",
         [{"carrier", "delay"}]),
    ],
)
def test_scan_nodes_record_minimal_column_sets(sql, expected):
    assert _scan_columns(sql) == [None if e is None else frozenset(e) for e in expected]


def test_narrow_scans_return_the_same_rows(flights_db, flights_rows):
    """Every pruned shape still sees each column it needs (vs a Python oracle)."""
    assert flights_db.query_rows("SELECT COUNT(*) AS n FROM flights") == [{"n": 500}]
    late = [r for r in flights_rows if r["delay"] is not None and r["delay"] > 30]
    assert flights_db.query_rows("SELECT COUNT(*) AS n FROM flights WHERE delay > 30") == [
        {"n": len(late)}
    ]
    star = flights_db.query_rows("SELECT * FROM flights WHERE delay > 30")
    assert [list(row) for row in star[:1]] == [list(flights_rows[0])]
    assert len(star) == len(late)
    windowed = flights_db.query_rows(
        "SELECT carrier, ROW_NUMBER() OVER (PARTITION BY origin ORDER BY date, delay) AS r "
        "FROM flights WHERE delay > 30"
    )
    assert len(windowed) == len(late) and set(windowed[0]) == {"carrier", "r"}
    nested = flights_db.query_rows(
        "SELECT origin, n FROM (SELECT origin, COUNT(*) AS n FROM flights "
        "WHERE delay > 30 GROUP BY origin) AS sub ORDER BY origin"
    )
    counts: dict = {}
    for row in late:
        counts[row["origin"]] = counts.get(row["origin"], 0) + 1
    assert nested == [{"origin": k, "n": counts[k]} for k in sorted(counts)]
    with pytest.raises(ExecutionError, match="unknown column 'nope'"):
        flights_db.query_rows("SELECT nope FROM flights")
