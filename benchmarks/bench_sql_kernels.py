"""Micro-benchmarks of the SQL engine's vectorized hot paths.

Times the factorize/lexsort kernels directly against the retained naive
reference implementations, plus the end-to-end group-by / distinct /
order-by queries they power and the crossfilter's brush-filter query,
whose range WHERE exercises the predicate masks, and the plan path that
query takes on each new brush step: as raw text (the template cell) and
as the rewriter's prepared statement (the prepared cell).  The recorded BENCH json is the per-PR
record of the kernel speedup (vectorized vs reference) and of absolute
query latency at a fixed scale.

The string-key cell groups the same ``origin`` column twice — by its
dictionary codes (what a stored string column hands the executor) and by
re-factorizing its object array (what every query paid before columns
were dictionary-encoded, and what computed string keys still pay).

The two partitioned cells track both sides of the one grouping kernel on
a date-sorted, 16-partition table: a GROUP BY over every partition
(where per-partition grouping used to win on cache locality) and the
same GROUP BY under a 5 % date window, whose scan prunes to one or two
partitions.  See docs/STORAGE.md, "Why no pool exists".
"""

import itertools

import numpy as np
import pytest

from repro.bench.scale import scaled_size
from repro.datasets.generators import generate_dataset
from repro.rewrite.templates import QueryFragment, apply_transform
from repro.sql import Database
from repro.bench.reference import (
    group_rows_reference,
    group_rows_vectorized,
    sort_indices_reference,
    sort_indices_vectorized,
)
from repro.sql.tokenizer import PreparedSQL
from repro.storage.column import factorize_array
from repro.storage.table import group_segments

N_ROWS = scaled_size(50_000, floor=5_000)
PARTITIONED_ROWS = scaled_size(1_000_000)


@pytest.fixture(scope="module")
def flights_db():
    database = Database()
    database.register_rows("flights", generate_dataset("flights", N_ROWS, seed=0))
    return database


@pytest.fixture(scope="module")
def key_arrays(flights_db):
    table = flights_db.table("flights")
    return [table.column("carrier").values, table.column("delay").values]


def test_bench_groupby_query(benchmark, flights_db):
    result = benchmark(
        flights_db.execute,
        "SELECT carrier, origin, COUNT(*) AS n, AVG(delay) AS d, SUM(distance) AS s "
        "FROM flights GROUP BY carrier, origin",
    )
    assert result.num_rows > 0


def test_bench_distinct_query(benchmark, flights_db):
    result = benchmark(flights_db.execute, "SELECT DISTINCT carrier, origin FROM flights")
    assert result.num_rows > 0


def test_bench_orderby_query(benchmark, flights_db):
    result = benchmark(
        flights_db.execute, "SELECT * FROM flights ORDER BY delay DESC, carrier"
    )
    assert result.num_rows == N_ROWS


#: The crossfilter's histogram query: a 6-conjunct brush WHERE over three
#: numeric fields, then a CASE-binned GROUP BY, as the rewriter emits it.
BRUSH_FILTER_SQL = (
    "SELECT CASE WHEN distance >= 4600.0 THEN 4400.0 WHEN distance < 0.0 THEN 0.0 "
    "ELSE FLOOR((distance - 0.0) / 200.0) * 200.0 + 0.0 END AS bin0, COUNT(*) AS count "
    "FROM flights WHERE (((((distance >= 800.0) AND (distance <= 2200.0)) "
    "AND ((air_time >= 100.0) AND (air_time <= 300.0))) "
    "AND ((dep_delay >= 20.0) AND (dep_delay <= 150.0)))) GROUP BY bin0"
)


def test_bench_brush_filter_query(benchmark, flights_db):
    result = benchmark(flights_db.execute, BRUSH_FILTER_SQL)
    assert result.num_rows > 0


def test_bench_plan_template_hit(benchmark, flights_db):
    """``SQLBackend.plan`` on brush steps that differ only in a literal:
    each call misses the exact-text level and is answered by the template
    level (lex once, clone the statement, re-plan, re-optimise)."""
    steps = itertools.count()

    def next_step():
        bound = f"distance >= {800 + next(steps)}.5"
        return flights_db.plan(BRUSH_FILTER_SQL.replace("distance >= 800.0", bound))

    next_step()  # parse the shape once, outside the timed calls
    metrics = flights_db.metrics
    parsed, template_hits = metrics.queries_parsed, metrics.plan_template_hits
    benchmark(next_step)
    assert metrics.queries_parsed == parsed
    assert metrics.plan_template_hits > template_hits


def _prepared_brush_steps(count: int) -> list:
    """``count`` brush steps of the crossfilter histogram query as the
    rewriter emits it (:class:`~repro.sql.tokenizer.PreparedSQL`: filter
    over three brushes, CASE bin, COUNT), each with a new distance brush."""
    brushes = " && ".join(
        f"(datum.{field} >= {field}_lo && datum.{field} <= {field}_hi)"
        for field in ("distance", "air_time", "dep_delay")
    )
    steps = []
    for step in range(count):
        signals = {
            "distance_lo": 800.0 + step + 0.5, "distance_hi": 2200.0,
            "air_time_lo": 100.0, "air_time_hi": 300.0,
            "dep_delay_lo": 20.0, "dep_delay_hi": 150.0,
        }
        fragment = QueryFragment.for_table("flights")
        for definition, params in (
            ({"type": "filter"}, {"expr": brushes, "_signals": signals}),
            ({"type": "bin"}, {"field": "distance", "maxbins": 25, "extent": [50.0, 4500.0]}),
            ({"type": "aggregate"}, {"groupby": ["bin0"], "ops": ["count"], "as": ["count"]}),
        ):
            fragment = apply_transform(fragment, definition, params)
        steps.append(fragment.to_sql())
    return steps


def test_bench_plan_prepared_hit(benchmark, flights_db):
    """``SQLBackend.plan`` on the rewriter's brush steps: each call misses
    the exact-text level and is answered by the shape level — one lookup
    and a bind of the six brush values and the bin's numbers; nothing is
    lexed or parsed."""
    steps = _prepared_brush_steps(2_001)
    assert all(isinstance(sql, PreparedSQL) for sql in steps)
    flights_db.plan(steps[0])  # plan the shape once, outside the timed calls
    queries = iter(steps[1:])
    metrics = flights_db.metrics
    parsed, template_hits = metrics.queries_parsed, metrics.plan_template_hits
    benchmark.pedantic(lambda: flights_db.plan(next(queries)), rounds=len(steps) - 1)
    assert metrics.queries_parsed == parsed
    assert metrics.plan_template_hits > template_hits


PARTITIONED_GROUPBY_SQL = (
    "SELECT carrier, COUNT(*) AS n, AVG(delay) AS d, SUM(distance) AS s FROM flights"
)


@pytest.fixture(scope="module")
def partitioned_flights():
    """A date-sorted flights table in 16 partitions, and its 5 % date
    window's WHERE clause."""
    rows = generate_dataset("flights", PARTITIONED_ROWS, seed=0)
    rows.sort(key=lambda row: row["date"])
    low, span = rows[0]["date"], rows[-1]["date"] - rows[0]["date"]
    window = f"WHERE date >= {low + 0.30 * span:.0f} AND date < {low + 0.35 * span:.0f}"
    database = Database()
    database.register_rows("flights", rows)
    database.repartition("flights", -(-PARTITIONED_ROWS // 16))
    return database, window


def test_bench_partitioned_groupby_unpruned(benchmark, partitioned_flights):
    database, _window = partitioned_flights
    result = benchmark(database.execute, f"{PARTITIONED_GROUPBY_SQL} GROUP BY carrier")
    assert result.stats.partitions_scanned == 16
    assert result.stats.partitions_pruned == 0


def test_bench_partitioned_groupby_window(benchmark, partitioned_flights):
    database, window = partitioned_flights
    result = benchmark(database.execute, f"{PARTITIONED_GROUPBY_SQL} {window} GROUP BY carrier")
    assert result.num_rows > 0
    assert result.stats.partitions_scanned <= 2
    assert result.stats.partitions_pruned >= 14


def test_bench_groupby_kernel_vectorized(benchmark, key_arrays):
    groups = benchmark(group_rows_vectorized, key_arrays, N_ROWS)
    assert sum(len(g) for g in groups) == N_ROWS


def test_bench_groupby_kernel_reference(benchmark, key_arrays):
    groups = benchmark(group_rows_reference, key_arrays, N_ROWS)
    assert sum(len(g) for g in groups) == N_ROWS


def test_bench_orderby_kernel_vectorized(benchmark, key_arrays):
    order = benchmark(sort_indices_vectorized, key_arrays, [False, True], N_ROWS)
    assert len(order) == N_ROWS


def test_bench_orderby_kernel_reference(benchmark, key_arrays):
    order = benchmark(sort_indices_reference, key_arrays, [False, True], N_ROWS)
    assert len(order) == N_ROWS


@pytest.fixture(scope="module")
def origin_column(flights_db):
    column = flights_db.table("flights").column("origin")
    assert column.codes is not None
    return column


def _group_by_dictionary_codes(column):
    return group_segments([column.group_codes()], len(column))


def _group_by_object_array(values):
    return group_segments([factorize_array(values)[0]], len(values))


def test_bench_groupby_string_key_dictionary(benchmark, origin_column):
    _order, starts, _ends = benchmark(_group_by_dictionary_codes, origin_column)
    assert len(starts) == len(origin_column.dictionary)


def test_bench_groupby_string_key_object_array(benchmark, origin_column):
    _order, starts, _ends = benchmark(_group_by_object_array, origin_column.values)
    assert len(starts) == len(origin_column.dictionary)


def test_string_key_paths_agree_on_bench_data(flights_db, origin_column):
    """Same groups, same stable row order, same result rows either way."""
    fast = _group_by_dictionary_codes(origin_column)
    slow = _group_by_object_array(origin_column.values)
    for left, right in zip(fast, slow):
        assert np.array_equal(left, right)
    sql = "SELECT {key} AS origin, COUNT(*) AS n, AVG(delay) AS d FROM flights GROUP BY {key}"
    stored = flights_db.execute(sql.format(key="origin")).to_rows()
    computed = flights_db.execute(sql.format(key="UPPER(origin)")).to_rows()
    assert stored == computed


def test_vectorized_kernels_match_reference_on_bench_data(key_arrays):
    """Sanity gate: the benchmarked kernels agree on the benchmark inputs."""
    fast = group_rows_vectorized(key_arrays, N_ROWS)
    slow = group_rows_reference(key_arrays, N_ROWS)
    assert [g.tolist() for g in fast] == [g.tolist() for g in slow]
    assert np.array_equal(
        sort_indices_vectorized(key_arrays, [False, True], N_ROWS),
        sort_indices_reference(key_arrays, [False, True], N_ROWS),
    )
