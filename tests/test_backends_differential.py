"""Backend-differential tests: every backend must return identical results.

The shared query corpus below runs through the embedded engine
(:class:`~repro.sql.engine.Database`) and the :class:`SqliteBackend` and
asserts row-identical results:

* **values** — numeric results agree to float tolerance (the two engines
  accumulate in different orders), everything else exactly,
* **order** — compared positionally when the query has an ORDER BY
  (including NULL placement: last under ASC, first under DESC); as
  multisets otherwise (SQL leaves the order unspecified and the two
  engines genuinely differ, e.g. GROUP BY output order) — except the
  row-preserving entries named in ``STORAGE_ORDER``, which return rows
  in storage order on every backend, an index range search included,
* **NULL placement** — NULL/NaN round-trips as ``None`` everywhere.

Every backend reads the same text.  Sort keys state their NULL
placement (``ASC NULLS LAST``, ``DESC NULLS FIRST``) and the running
window comes from the production stack builder (:class:`QueryFragment`,
which writes ``ROWS UNBOUNDED PRECEDING``), so the corpus exercises
exactly the SQL the rewrite layer sends.

A hypothesis section re-runs core query shapes over randomized tables
with NULLs, duplicates and empty inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import SqliteBackend, backend_names, create_backend
from repro.datasets import generate_dataset
from repro.errors import PlanningError
from repro.rewrite.templates import QueryFragment, apply_transform
from repro.sql.ast_nodes import Literal
from repro.sql.optimizer import optimize_plan
from repro.sql.parser import parse_sql
from repro.sql.planner import build_logical_plan
from repro.sql.plancache import token_shape
from repro.sql.tokenizer import tokenize

from helpers import row_sort_key, values_equal


def _shape(sql: str) -> tuple[str, list[object]]:
    """The plan cache's shape key and slot values of raw ``sql``."""
    key, values, _slotted = token_shape(tokenize(sql))
    return key, values

settings.register_profile(
    "repro-diff", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=15
)
settings.load_profile("repro-diff")


# --------------------------------------------------------------------------- #
# Shared data
# --------------------------------------------------------------------------- #


#: Column order of the ``data`` table.
DATA_COLUMNS = ["g", "v", "w", "b", "k"]


def _mixed_rows(n: int = 120, seed: int = 11) -> list[dict[str, object]]:
    """Rows with NULLs in both a numeric and a string column.

    ``w`` is unique (a shuffled permutation scaled to floats) so ORDER BY
    ``w`` induces a total order — the engines do not promise a stable
    sort, so ordered corpus entries must be fully determined.  ``k``
    never decreases and holds no NULL, so the sqlite backend indexes it;
    each of its values is shared by three rows.
    """
    rng = np.random.default_rng(seed)
    w_values = rng.permutation(n) * 1.75
    rows: list[dict[str, object]] = []
    for i in range(n):
        v = None if rng.random() < 0.15 else float(np.round(rng.normal(50, 20), 3))
        g = None if rng.random() < 0.1 else str(rng.choice(["a", "b", "c", "d"]))
        rows.append(
            {"g": g, "v": v, "w": float(w_values[i]), "b": float(i % 2), "k": float(i // 3)}
        )
    return rows


def _flights_rows() -> list[dict[str, object]]:
    """300 flights in date order, as the scan benchmarks load them, so
    the sqlite backend indexes ``date``."""
    return sorted(generate_dataset("flights", 300, seed=5), key=lambda row: row["date"])


#: A date window over a fifth of :func:`_flights_rows`.
_DATE_LOW, _DATE_HIGH = (_flights_rows()[i]["date"] for i in (100, 160))


@pytest.fixture(scope="module")
def backends() -> dict[str, object]:
    """Both backends with the same two tables registered."""
    mixed = _mixed_rows()
    flights = _flights_rows()
    built = {}
    for name in backend_names():
        backend = create_backend(name)
        backend.register_rows("data", mixed, column_order=DATA_COLUMNS)
        backend.register_rows("flights", flights)
        built[name] = backend
    return built


# --------------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------------- #


def assert_identical_results(sql: str, backends: dict[str, object], ordered: bool) -> None:
    """Run ``sql`` on each backend and assert the results are identical."""
    results = {name: backend.execute(sql).to_rows() for name, backend in backends.items()}
    names = sorted(results)
    reference_name, others = names[0], names[1:]
    reference = results[reference_name]
    for other_name in others:
        other = results[other_name]
        label = f"{reference_name} vs {other_name}"
        assert len(reference) == len(other), (
            f"{label}: row counts differ ({len(reference)} vs {len(other)}) "
            f"for {sql!r}"
        )
        if reference:
            assert list(reference[0]) == list(other[0]), (
                f"{label}: column names differ for {sql!r}"
            )
        left, right = reference, other
        if not ordered:
            left = sorted(left, key=row_sort_key)
            right = sorted(right, key=row_sort_key)
        for index, (row_a, row_b) in enumerate(zip(left, right)):
            for column in row_a:
                assert values_equal(row_a[column], row_b[column]), (
                    f"{label}: row {index} column {column!r}: "
                    f"{row_a[column]!r} != {row_b[column]!r} "
                    f"for {sql!r}"
                )


def _stack_sql() -> str:
    """The stack transform's window query via the production builder."""
    fragment = apply_transform(
        QueryFragment.for_table("data"),
        {"type": "stack"},
        {"field": "w", "groupby": ["g"], "sort": {"field": "w"}, "as": ["y0", "y1"]},
    )
    return fragment.to_sql()


# --------------------------------------------------------------------------- #
# The shared corpus
# --------------------------------------------------------------------------- #

#: (identifier, SQL, results are position-compared).
CORPUS: list[tuple[str, str, bool]] = [
    ("scan", "SELECT * FROM data", False),
    ("filter_numeric", "SELECT g, v FROM data WHERE v > 40 AND v <= 80", False),
    ("filter_string", "SELECT g, w FROM data WHERE g = 'a' OR g = 'b'", False),
    ("filter_null", "SELECT w FROM data WHERE v IS NULL", False),
    ("filter_not_null", "SELECT w FROM data WHERE v IS NOT NULL AND g IS NOT NULL", False),
    ("filter_in_between", "SELECT w FROM data WHERE g IN ('a', 'c') AND v BETWEEN 30 AND 70", False),
    ("projection_arithmetic", "SELECT v + w AS total, v * 2 AS doubled, -v AS negated, w - v AS gap FROM data", False),
    ("case_when", "SELECT CASE WHEN v IS NULL THEN 'missing' WHEN v > 50 THEN 'high' "
        "ELSE 'low' END AS band, w FROM data", False),
    ("scalar_functions", "SELECT ABS(v - 50) AS a, FLOOR(w / 10) AS f, SQRT(w) AS s, "
        "COALESCE(v, -1) AS c FROM data", False),
    # w is a multiple of 1.75, so w / 3.5 and w / 7.0 land on exact ties:
    # ROUND must round them to even on every backend, as the client does.
    ("math_function_ties", "SELECT ROUND(w / 3.5) AS r, ROUND(-w / 3.5) AS r_neg, ROUND(w / 7.0, 1) AS r1, "
        "CEIL(-w / 3.5) AS c, LN(w + 1) AS l, EXP(w / 100) AS e, "
        "POWER(w / 3.5, 2) AS p FROM data", False),
    ("string_functions", "SELECT UPPER(g) AS u, LOWER(g) AS l, LENGTH(g) AS n, g || '_x' AS tagged FROM data",
     False),
    ("group_by_aggregates", "SELECT g, COUNT(*) AS n, COUNT(v) AS n_v, SUM(v) AS s, AVG(v) AS a, "
        "MIN(v) AS lo, MAX(v) AS hi FROM data GROUP BY g", False),
    ("group_by_two_keys", "SELECT g, b, COUNT(*) AS n, SUM(w) AS s FROM data GROUP BY g, b", False),
    # Aggregate-free operators in an aggregate query are group-shared
    # values, not arithmetic over aggregate results.
    ("group_by_concat", "SELECT g || 'z' AS k, COUNT(*) AS n FROM data GROUP BY g || 'z'", False),
    ("group_by_comparison", "SELECT g, v > 50 AS big, COUNT(*) AS n FROM data GROUP BY g, v > 50", False),
    ("having", "SELECT g, COUNT(*) AS n FROM data GROUP BY g HAVING COUNT(*) > 5", False),
    ("count_distinct", "SELECT COUNT(DISTINCT g) AS n FROM data", False),
    ("distinct", "SELECT DISTINCT g, b FROM data", False),
    ("statistics_aggregates", "SELECT MEDIAN(v) AS med, STDDEV(v) AS sd, VARIANCE(v) AS var FROM data", False),
    ("extent", "SELECT MIN(v) AS min_val, MAX(v) AS max_val FROM data", False),
    ("bin_shape", "SELECT CASE WHEN w >= 200 THEN 180 WHEN w < 0 THEN 0 "
        "ELSE FLOOR((w - 0) / 20.0) * 20.0 + 0 END AS bin0, COUNT(*) AS count "
        "FROM data GROUP BY bin0", False),
    ("timeunit_shape", "SELECT FLOOR(w / 60.0) * 60.0 AS unit0, FLOOR(w / 60.0) * 60.0 + 60.0 AS unit1 "
        "FROM data", False),
    ("subquery_over_aggregate", "SELECT g, n FROM (SELECT g, COUNT(*) AS n FROM data GROUP BY g) AS sub "
        "WHERE n > 3", False),
    ("empty_result", "SELECT * FROM data WHERE v > 1e9", False),
    ("aggregate_of_empty", "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a FROM data WHERE v > 1e9", False),
    # Ordered entries: position-compared, including NULL placement.
    ("order_asc_nulls", "SELECT v FROM data ORDER BY v ASC NULLS LAST", True),
    ("order_desc_nulls", "SELECT v FROM data ORDER BY v DESC NULLS FIRST", True),
    ("order_string_nulls", "SELECT g FROM data ORDER BY g ASC NULLS LAST", True),
    ("order_multi_key",
     "SELECT g, v, w FROM data "
     "ORDER BY g ASC NULLS LAST, v DESC NULLS FIRST, w ASC NULLS LAST", True),
    ("order_limit", "SELECT w, g FROM data ORDER BY w DESC NULLS FIRST", True),
    ("order_group_rollup",
     "SELECT g, COUNT(*) AS n FROM (SELECT * FROM data) AS sub GROUP BY g "
     "ORDER BY n DESC NULLS FIRST, g ASC NULLS LAST", True),
    ("flights_rollup",
     "SELECT carrier, COUNT(*) AS n, AVG(delay) AS avg_delay, SUM(distance) AS total "
     "FROM flights GROUP BY carrier ORDER BY n DESC NULLS FIRST, carrier ASC NULLS LAST",
     True),
    # Window query through the production stack builder (ROWS frame).
    ("stack_window", _stack_sql(), False),
    # g has tied keys and tied NULLs: NULL keys are RANK peers.
    ("rank_null_peers",
     "SELECT w, RANK() OVER (ORDER BY g ASC NULLS LAST) AS r, "
     "RANK() OVER (ORDER BY g DESC NULLS FIRST, v ASC NULLS LAST) AS r_desc, "
     "RANK() OVER (PARTITION BY b ORDER BY g ASC NULLS LAST) AS r_part FROM data", False),
    # LIKE is case-sensitive on every backend (sqlite folds case by default).
    ("like_case", "SELECT w, g LIKE 'A%' AS upper_a, UPPER(g) LIKE 'a%' AS mixed, "
        "g LIKE '_' AS one_char, UPPER(g) LIKE 'B' AS exact FROM data "
        "WHERE g NOT LIKE 'C%'", False),
    # A numeric NULL under LIKE is UNKNOWN, not the text 'nan'.
    ("like_numeric_null", "SELECT w FROM data WHERE v LIKE 'n%'", False),
    ("or_like_numeric_null", "SELECT w FROM data WHERE (v > 1) OR (v LIKE '%a%')", False),
    # A number used as a predicate: NULL is UNKNOWN, 0 FALSE, any other TRUE.
    # (``w`` holds one 0 and many other numbers, ``v`` holds NULLs.)
    ("value_as_predicate", "SELECT w FROM data WHERE w", False),
    ("not_value_as_predicate", "SELECT w FROM data WHERE NOT w", False),
    ("arithmetic_as_predicate", "SELECT w FROM data WHERE v + 1.5", False),
    # Range windows on the columns the sqlite backend indexes (data.k,
    # flights.date): answered by an index range search there.
    ("index_window", "SELECT g, v, w, k FROM data WHERE k >= 5 AND k < 20", False),
    ("index_window_grouped",
     "SELECT g, COUNT(*) AS n, SUM(w) AS s, AVG(v) AS a FROM data "
     "WHERE k BETWEEN 5 AND 20 GROUP BY g", False),
    # k ties in threes: ties keep storage order on both sides.
    ("index_order_ties", "SELECT k, w FROM data WHERE k >= 10 ORDER BY k ASC NULLS LAST", True),
    ("date_window_rollup",
     "SELECT carrier, COUNT(*) AS n, AVG(delay) AS avg_delay FROM flights "
     f"WHERE date >= {_DATE_LOW!r} AND date < {_DATE_HIGH!r} "
     "GROUP BY carrier ORDER BY carrier ASC NULLS LAST", True),
    ("date_window_rows",
     "SELECT date, dep_delay, carrier, distance FROM flights "
     f"WHERE date >= {_DATE_LOW!r} AND date < {_DATE_HIGH!r}", False),
]

#: Corpus entries without ORDER BY whose rows keep storage order on every
#: backend (no GROUP BY, DISTINCT or window reorders them), so they are
#: also compared position by position — an index range search included.
STORAGE_ORDER = (
    "scan", "filter_numeric", "filter_string", "filter_null", "filter_not_null",
    "filter_in_between", "projection_arithmetic", "case_when", "timeunit_shape",
    "like_case", "value_as_predicate", "index_window", "date_window_rows",
)


@pytest.mark.parametrize(("name", "sql", "is_ordered"), CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_query_identical_across_backends(backends, name, sql, is_ordered):
    assert_identical_results(sql, backends, ordered=is_ordered or name in STORAGE_ORDER)


def _literals(value: object) -> list[tuple[type, object]]:
    """``(type, value)`` of every literal under a plan, in a fixed order."""
    if isinstance(value, Literal):
        return [(type(value.value), value.value)]
    if isinstance(value, (list, tuple)):
        return [found for item in value for found in _literals(item)]
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return [found for field in fields for found in _literals(getattr(value, field.name))]
    return []


def assert_plan_is_the_parse(backend, sql: str) -> None:
    """``backend.plan(sql)`` equals the optimised plan parsed from ``sql``,
    node for node and literal type for literal type."""
    bound = backend.plan(sql)
    fresh = optimize_plan(build_logical_plan(parse_sql(sql)))
    assert bound == fresh, sql
    assert _literals(bound) == _literals(fresh), sql


@pytest.mark.parametrize(("name", "sql", "is_ordered"), CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_bound_plan_is_the_parse(backends, name, sql, is_ordered):
    """Every corpus query, on each backend, is planned by binding its
    shape's plan (one parse: the shape), and equals its text's plan."""
    for backend in backends.values():
        backend.clear_plan_cache()
        parsed = backend.metrics.snapshot()["queries_parsed"]
        assert_plan_is_the_parse(backend, sql)
        assert backend.metrics.snapshot()["queries_parsed"] == parsed + 1


_SPACES = st.sampled_from([" ", "   ", "\n", "\t", " \n\t "])


@settings(max_examples=4)
@pytest.mark.parametrize(("name", "sql", "is_ordered"), CORPUS, ids=[c[0] for c in CORPUS])
@given(data=st.data())
def test_corpus_whitespace_variant_shares_the_parse(backends, name, sql, is_ordered, data):
    """Re-spacing a query between tokens (never inside a string) keeps its
    template shape and its rows, and is never parsed again."""
    backend = backends["embedded"]
    tokens = tokenize(sql)
    pieces = [data.draw(st.one_of(st.just(""), _SPACES))]
    for token, following in zip(tokens, tokens[1:]):
        raw = sql[token.position:following.position]
        text = raw.rstrip()
        spaced = len(text) < len(raw)
        pieces += [text, data.draw(_SPACES if spaced else st.one_of(st.just(""), _SPACES))]
    variant = "".join(pieces)
    assert _shape(variant)[0] == _shape(sql)[0]
    expected = backend.execute(sql).to_rows()
    parsed = backend.metrics.snapshot()["queries_parsed"]
    assert backend.execute(variant).to_rows() == expected
    assert backend.metrics.snapshot()["queries_parsed"] == parsed
    assert_plan_is_the_parse(backend, variant)


def test_corpus_never_hashes_a_stored_string_column(backends, monkeypatch):
    """GROUP BY / DISTINCT / ORDER BY / PARTITION BY over a bare string
    column run on the column's dictionary codes: across the whole corpus
    ``factorize_array`` only ever sees numeric keys."""
    import repro.storage.column as column_module

    seen: list[np.dtype] = []
    real = column_module.factorize_array

    def recording(values):
        seen.append(values.dtype)
        return real(values)

    monkeypatch.setattr(column_module, "factorize_array", recording)
    embedded = backends["embedded"]
    assert embedded.table("data").column("g").codes is not None
    for _name, sql, _ordered_flag in CORPUS:
        embedded.execute(sql).to_rows()
    assert seen, "numeric keys (b, bin0, n) still factorize"
    assert all(dtype != object for dtype in seen)


#: Aggregates under a scalar function, COALESCE, CASE and a comparison:
#: outside the embedded engine's aggregate-item grammar (arithmetic over
#: aggregates), so it refuses them when planning; SQLite answers them.
NESTED_AGGREGATE_ITEMS = (
    "ROUND(AVG(v), 1)",
    "COALESCE(SUM(v), 0)",
    "CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END",
    "SUM(v) > 1",
)


@pytest.mark.parametrize("item", NESTED_AGGREGATE_ITEMS)
def test_aggregate_under_non_arithmetic_is_a_planning_error(backends, item):
    sql = f"SELECT g, {item} AS nested FROM data GROUP BY g"
    with pytest.raises(PlanningError, match=r"SELECT item .* AS nested"):
        backends["embedded"].execute(sql).to_rows()
    assert len(backends["sqlite"].execute(sql).to_rows()) == 5


def test_order_limit_respects_limit(backends):
    """LIMIT composes with ORDER BY on every backend."""
    for backend in backends.values():
        rows = backend.execute("SELECT w FROM data ORDER BY w DESC NULLS FIRST LIMIT 5").to_rows()
        values = [r["w"] for r in rows]
        assert len(values) == 5
        assert values == sorted(values, reverse=True)


# --------------------------------------------------------------------------- #
# Property-based differential testing
# --------------------------------------------------------------------------- #

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

row_strategy = st.fixed_dictionaries(
    {
        "v": st.one_of(st.none(), finite_floats),
        "w": finite_floats,
        "g": st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
    }
)

rows_strategy = st.lists(row_strategy, min_size=0, max_size=30)

#: Query shapes the property test replays on random tables.
PROPERTY_QUERIES = (
    "SELECT * FROM t WHERE v > 0",
    "SELECT g, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g",
    "SELECT COUNT(DISTINCT g) AS n, COUNT(v) AS nv FROM t",
    "SELECT MIN(v) AS min_val, MAX(v) AS max_val FROM t",
    "SELECT CASE WHEN v IS NULL THEN 0 ELSE 1 END AS has_v, COUNT(*) AS n "
    "FROM t GROUP BY has_v",
)


@given(rows=rows_strategy)
def test_random_tables_identical_across_backends(rows):
    backends = {}
    for name in backend_names():
        backend = create_backend(name)
        backend.register_rows("t", rows, column_order=["v", "w", "g"])
        backends[name] = backend
    for sql in PROPERTY_QUERIES:
        assert_identical_results(sql, backends, ordered=False)
    for backend in backends.values():
        backend.close()


@given(rows=st.lists(row_strategy, min_size=1, max_size=25), descending=st.booleans())
def test_random_order_by_null_placement(rows, descending):
    """ORDER BY v agrees positionally: NULL last ASC / first DESC."""
    backends = {}
    for name in backend_names():
        backend = create_backend(name)
        backend.register_rows("t", rows, column_order=["v", "w", "g"])
        backends[name] = backend
    placement = "DESC NULLS FIRST" if descending else "ASC NULLS LAST"
    assert_identical_results(f"SELECT v FROM t ORDER BY v {placement}", backends, ordered=True)
    for backend in backends.values():
        backend.close()


# --------------------------------------------------------------------------- #
# Backend protocol behaviour
# --------------------------------------------------------------------------- #


def test_create_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("duckdb")


@pytest.mark.parametrize("name", backend_names())
def test_create_backend_rejects_unknown_options(name):
    """``ivm`` is the only constructor option: the tuning values that
    used to be options are module constants now."""
    for option in ("no_such_option", "plan_cache_size", "ivm_config"):
        with pytest.raises(TypeError):
            create_backend(name, **{option: 1})


def test_backend_metrics_and_table_management():
    for name in backend_names():
        backend = create_backend(name)
        backend.register_rows("t", [{"x": 1.0}, {"x": 2.0}])
        assert backend.catalog.table_names() == ["t"]
        assert backend.table("t").num_rows == 2
        assert backend.table_statistics("t").num_rows == 2
        backend.execute("SELECT COUNT(*) AS n FROM t").to_rows()
        snapshot = backend.stats()
        assert snapshot["queries_executed"] == 1.0
        assert snapshot["rows_returned"] == 1.0
        backend.drop_table("t")
        assert backend.catalog.table_names() == []
        backend.close()


def test_sqlite_registration_survives_replace_and_requery():
    backend = SqliteBackend()
    backend.register_rows("t", [{"x": 1.0}])
    backend.register_rows("t", [{"x": 5.0}, {"x": 6.0}], replace=True)
    assert backend.execute("SELECT COUNT(*) AS n FROM t").to_rows() == [{"n": 2}]
    assert backend.table_statistics("t").num_rows == 2


# --------------------------------------------------------------------------- #
# The sqlite backend's physical design
# --------------------------------------------------------------------------- #


def _indexed_columns(backend: SqliteBackend, table: str) -> list[str]:
    """The columns sqlite holds an index on, read from its own catalog."""
    connection = backend.connection
    columns = []
    for _seq, index, *_rest in connection.execute(f'PRAGMA index_list("{table}")'):
        columns += [row[2] for row in connection.execute(f'PRAGMA index_info("{index}")')]
    return sorted(columns)


def _query_plan(backend: SqliteBackend, sql: str) -> str:
    return " | ".join(row[-1] for row in backend.connection.execute(f"EXPLAIN QUERY PLAN {sql}"))


def test_sqlite_indexes_exactly_the_sorted_null_free_numeric_columns(backends):
    """Only a column that never decreases and holds no NULL is indexed:
    ``date`` of the date-ordered flights, ``k`` of ``data``.  ``distance``
    (unsorted), ``v`` (NULLs), ``g`` and ``carrier`` (strings) are not."""
    sqlite = backends["sqlite"]
    assert _indexed_columns(sqlite, "flights") == ["date"]
    assert _indexed_columns(sqlite, "data") == ["k"]
    assert "USING INDEX" in _query_plan(
        sqlite,
        "SELECT carrier, COUNT(*) AS n, AVG(delay) AS avg_delay FROM flights "
        f"WHERE date >= {_DATE_LOW!r} AND date < {_DATE_HIGH!r} GROUP BY carrier "
        "ORDER BY carrier ASC NULLS LAST",
    )
    assert "USING INDEX" not in _query_plan(
        sqlite,
        "SELECT origin, COUNT(*) AS n FROM flights WHERE distance <= 2500.0 "
        "GROUP BY origin ORDER BY origin ASC NULLS LAST",
    )


def test_sqlite_skips_a_sorted_column_holding_a_null():
    backend = SqliteBackend()
    rows = [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": 2.0}, {"x": None, "y": 3.0}]
    backend.register_rows("t", rows)
    assert _indexed_columns(backend, "t") == ["y"]
    backend.close()


def test_sqlite_replace_with_unsorted_rows_drops_the_index():
    """Re-registering a table re-derives its design: once ``k`` is no
    longer sorted it has no index, and every backend still answers ``==``."""
    built = {name: create_backend(name) for name in backend_names()}
    for backend in built.values():
        backend.register_rows("data", _mixed_rows(), column_order=DATA_COLUMNS)
    assert _indexed_columns(built["sqlite"], "data") == ["k"]
    unsorted = _mixed_rows()[::-1]
    for backend in built.values():
        backend.register_rows("data", unsorted, column_order=DATA_COLUMNS, replace=True)
    assert _indexed_columns(built["sqlite"], "data") == []
    for sql in (
        "SELECT g, v, w, k FROM data WHERE k >= 5 AND k < 20",
        "SELECT k, w FROM data WHERE k >= 10 ORDER BY k ASC NULLS LAST",
        "SELECT * FROM data",
    ):
        assert built["sqlite"].execute(sql).to_rows() == built["embedded"].execute(sql).to_rows(), sql
    for backend in built.values():
        backend.close()
