"""Backend-differential tests: every backend must return identical results.

The shared query corpus below runs through the embedded engine
(:class:`~repro.sql.engine.Database`) and the :class:`SqliteBackend` and
asserts row-identical results:

* **values** — numeric results agree to float tolerance (the two engines
  accumulate in different orders), everything else exactly,
* **order** — compared positionally when the query has an ORDER BY
  (including NULL placement: last under ASC, first under DESC); as
  multisets otherwise (SQL leaves the order unspecified and the two
  engines genuinely differ, e.g. GROUP BY output order),
* **NULL placement** — NULL/NaN round-trips as ``None`` everywhere.

Queries with dialect differences (NULLS clauses, window frames) are
generated through the production SQL builders (:class:`QueryFragment`
with the target backend's capabilities) so the corpus exercises exactly
the SQL the rewrite layer would send to each backend.

A hypothesis section re-runs core query shapes over randomized tables
with NULLs, duplicates and empty inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import SqliteBackend, backend_names, create_backend
from repro.backends.base import BackendCapabilities
from repro.bench.scale import row_sort_key, values_equal
from repro.datasets import generate_dataset
from repro.rewrite.templates import QueryFragment, apply_transform

settings.register_profile(
    "repro-diff", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=15
)
settings.load_profile("repro-diff")


# --------------------------------------------------------------------------- #
# Shared data
# --------------------------------------------------------------------------- #


def _mixed_rows(n: int = 120, seed: int = 11) -> list[dict[str, object]]:
    """Rows with NULLs in both a numeric and a string column.

    ``w`` is unique (a shuffled permutation scaled to floats) so ORDER BY
    ``w`` induces a total order — the engines do not promise a stable
    sort, so ordered corpus entries must be fully determined.
    """
    rng = np.random.default_rng(seed)
    w_values = rng.permutation(n) * 1.75
    rows: list[dict[str, object]] = []
    for i in range(n):
        v = None if rng.random() < 0.15 else float(np.round(rng.normal(50, 20), 3))
        g = None if rng.random() < 0.1 else str(rng.choice(["a", "b", "c", "d"]))
        rows.append({"g": g, "v": v, "w": float(w_values[i]), "b": float(i % 2)})
    return rows


@pytest.fixture(scope="module")
def backends() -> dict[str, object]:
    """Both backends with the same two tables registered."""
    mixed = _mixed_rows()
    flights = generate_dataset("flights", 300, seed=5)
    built = {}
    for name in backend_names():
        backend = create_backend(name)
        backend.register_rows("data", mixed, column_order=["g", "v", "w", "b"])
        backend.register_rows("flights", flights)
        built[name] = backend
    return built


# --------------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------------- #


# The row-identity contract (float tolerance + canonical multiset key)
# lives in one place — repro.bench.scale — so the bench correctness gate
# and this suite can never drift apart.
_values_equal = values_equal
_row_key = row_sort_key


def assert_identical_results(
    sql_by_backend: dict[str, str],
    backends: dict[str, object],
    ordered: bool,
) -> None:
    """Run each backend's SQL and assert the results are identical."""
    results = {}
    for name, backend in backends.items():
        results[name] = backend.query_rows(sql_by_backend[name])
    names = sorted(results)
    reference_name, others = names[0], names[1:]
    reference = results[reference_name]
    for other_name in others:
        other = results[other_name]
        label = f"{reference_name} vs {other_name}"
        assert len(reference) == len(other), (
            f"{label}: row counts differ ({len(reference)} vs {len(other)}) "
            f"for {sql_by_backend[reference_name]!r}"
        )
        if reference:
            assert list(reference[0]) == list(other[0]), (
                f"{label}: column names differ for {sql_by_backend[reference_name]!r}"
            )
        left, right = reference, other
        if not ordered:
            left = sorted(left, key=_row_key)
            right = sorted(right, key=_row_key)
        for index, (row_a, row_b) in enumerate(zip(left, right)):
            for column in row_a:
                assert _values_equal(row_a[column], row_b[column]), (
                    f"{label}: row {index} column {column!r}: "
                    f"{row_a[column]!r} != {row_b[column]!r} "
                    f"for {sql_by_backend[reference_name]!r}"
                )


def _plain(sql: str):
    """A corpus query whose text is identical across dialects."""
    return lambda capabilities: sql


def _ordered(base: str, keys: list[tuple[str, bool]]):
    """A corpus query with dialect-aware NULL placement on its sort keys."""

    def build(capabilities: BackendCapabilities) -> str:
        rendered = ", ".join(
            f"{key} {'DESC' if descending else 'ASC'}"
            + capabilities.order_nulls_suffix(descending)
            for key, descending in keys
        )
        return f"{base} ORDER BY {rendered}"

    return build


def _stack(capabilities: BackendCapabilities) -> str:
    """The stack transform's window query via the production builder."""
    fragment = QueryFragment.for_table("data", dialect=capabilities)
    fragment = apply_transform(
        fragment,
        {"type": "stack"},
        {"field": "w", "groupby": ["g"], "sort": {"field": "w"}, "as": ["y0", "y1"]},
    )
    return fragment.to_sql()


# --------------------------------------------------------------------------- #
# The shared corpus
# --------------------------------------------------------------------------- #

#: (identifier, dialect-aware SQL builder, results are position-compared).
CORPUS: list[tuple[str, object, bool]] = [
    ("scan", _plain("SELECT * FROM data"), False),
    ("filter_numeric", _plain("SELECT g, v FROM data WHERE v > 40 AND v <= 80"), False),
    ("filter_string", _plain("SELECT g, w FROM data WHERE g = 'a' OR g = 'b'"), False),
    ("filter_null", _plain("SELECT w FROM data WHERE v IS NULL"), False),
    ("filter_not_null", _plain("SELECT w FROM data WHERE v IS NOT NULL AND g IS NOT NULL"), False),
    ("filter_in_between", _plain(
        "SELECT w FROM data WHERE g IN ('a', 'c') AND v BETWEEN 30 AND 70"), False),
    ("projection_arithmetic", _plain(
        "SELECT v + w AS total, v * 2 AS doubled, -v AS negated, w - v AS gap FROM data"), False),
    ("case_when", _plain(
        "SELECT CASE WHEN v IS NULL THEN 'missing' WHEN v > 50 THEN 'high' "
        "ELSE 'low' END AS band, w FROM data"), False),
    ("scalar_functions", _plain(
        "SELECT ABS(v - 50) AS a, FLOOR(w / 10) AS f, SQRT(w) AS s, "
        "COALESCE(v, -1) AS c FROM data"), False),
    # w is a multiple of 1.75, so w / 3.5 and w / 7.0 land on exact ties:
    # ROUND must round them to even on every backend, as the client does.
    ("math_function_ties", _plain(
        "SELECT ROUND(w / 3.5) AS r, ROUND(-w / 3.5) AS r_neg, ROUND(w / 7.0, 1) AS r1, "
        "CEIL(-w / 3.5) AS c, LN(w + 1) AS l, EXP(w / 100) AS e, "
        "POWER(w / 3.5, 2) AS p FROM data"), False),
    ("string_functions", _plain(
        "SELECT UPPER(g) AS u, LOWER(g) AS l, LENGTH(g) AS n, g || '_x' AS tagged FROM data"),
     False),
    ("group_by_aggregates", _plain(
        "SELECT g, COUNT(*) AS n, COUNT(v) AS n_v, SUM(v) AS s, AVG(v) AS a, "
        "MIN(v) AS lo, MAX(v) AS hi FROM data GROUP BY g"), False),
    ("group_by_two_keys", _plain(
        "SELECT g, b, COUNT(*) AS n, SUM(w) AS s FROM data GROUP BY g, b"), False),
    ("having", _plain(
        "SELECT g, COUNT(*) AS n FROM data GROUP BY g HAVING COUNT(*) > 5"), False),
    ("count_distinct", _plain("SELECT COUNT(DISTINCT g) AS n FROM data"), False),
    ("distinct", _plain("SELECT DISTINCT g, b FROM data"), False),
    ("statistics_aggregates", _plain(
        "SELECT MEDIAN(v) AS med, STDDEV(v) AS sd, VARIANCE(v) AS var FROM data"), False),
    ("extent", _plain("SELECT MIN(v) AS min_val, MAX(v) AS max_val FROM data"), False),
    ("bin_shape", _plain(
        "SELECT CASE WHEN w >= 200 THEN 180 WHEN w < 0 THEN 0 "
        "ELSE FLOOR((w - 0) / 20.0) * 20.0 + 0 END AS bin0, COUNT(*) AS count "
        "FROM data GROUP BY bin0"), False),
    ("timeunit_shape", _plain(
        "SELECT FLOOR(w / 60.0) * 60.0 AS unit0, FLOOR(w / 60.0) * 60.0 + 60.0 AS unit1 "
        "FROM data"), False),
    ("subquery_over_aggregate", _plain(
        "SELECT g, n FROM (SELECT g, COUNT(*) AS n FROM data GROUP BY g) AS sub "
        "WHERE n > 3"), False),
    ("empty_result", _plain("SELECT * FROM data WHERE v > 1e9"), False),
    ("aggregate_of_empty", _plain(
        "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a FROM data WHERE v > 1e9"), False),
    # Ordered entries: position-compared, including NULL placement.
    ("order_asc_nulls", _ordered("SELECT v FROM data", [("v", False)]), True),
    ("order_desc_nulls", _ordered("SELECT v FROM data", [("v", True)]), True),
    ("order_string_nulls", _ordered("SELECT g FROM data", [("g", False)]), True),
    ("order_multi_key", _ordered(
        "SELECT g, v, w FROM data", [("g", False), ("v", True), ("w", False)]), True),
    ("order_limit", _ordered("SELECT w, g FROM data", [("w", True)]), True),
    ("order_group_rollup", _ordered(
        "SELECT g, COUNT(*) AS n FROM (SELECT * FROM data) AS sub GROUP BY g",
        [("n", True), ("g", False)]), True),
    ("flights_rollup", _ordered(
        "SELECT carrier, COUNT(*) AS n, AVG(delay) AS avg_delay, SUM(distance) AS total "
        "FROM flights GROUP BY carrier", [("n", True), ("carrier", False)]), True),
    # Window query through the production stack builder (ROWS frame shim).
    ("stack_window", _stack, False),
]


@pytest.mark.parametrize(
    ("name", "builder", "is_ordered"), CORPUS, ids=[c[0] for c in CORPUS]
)
def test_corpus_query_identical_across_backends(backends, name, builder, is_ordered):
    sql_by_backend = {
        backend_name: builder(backend.capabilities)
        for backend_name, backend in backends.items()
    }
    assert_identical_results(sql_by_backend, backends, ordered=is_ordered)


def test_corpus_never_hashes_a_stored_string_column(backends, monkeypatch):
    """GROUP BY / DISTINCT / ORDER BY / PARTITION BY over a bare string
    column run on the column's dictionary codes: across the whole corpus
    ``factorize_array`` only ever sees numeric keys."""
    import repro.sql.executor as executor_module
    import repro.storage.column as column_module

    seen: list[np.dtype] = []
    real = column_module.factorize_array

    def recording(values):
        seen.append(values.dtype)
        return real(values)

    monkeypatch.setattr(column_module, "factorize_array", recording)
    monkeypatch.setattr(executor_module, "factorize_array", recording)
    embedded = backends["embedded"]
    assert embedded.table("data").column("g").codes is not None
    for _name, builder, _ordered_flag in CORPUS:
        embedded.query_rows(builder(embedded.capabilities))
    assert seen, "numeric keys (b, bin0, n) still factorize"
    assert all(dtype != object for dtype in seen)


def test_order_limit_respects_limit(backends):
    """LIMIT composes with dialect-aware ORDER BY on every backend."""
    for backend in backends.values():
        suffix = backend.capabilities.order_nulls_suffix(descending=True)
        rows = backend.query_rows(f"SELECT w FROM data ORDER BY w DESC{suffix} LIMIT 5")
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

#: Query shapes the property test replays on random tables (all are
#: dialect-identical or fully determined, so no builder is needed).
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
        assert_identical_results(dict.fromkeys(backends, sql), backends, ordered=False)
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
    direction = "DESC" if descending else "ASC"
    sql_by_backend = {
        name: (
            f"SELECT v FROM t ORDER BY v {direction}"
            + backend.capabilities.order_nulls_suffix(descending)
        )
        for name, backend in backends.items()
    }
    assert_identical_results(sql_by_backend, backends, ordered=True)
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
    with pytest.raises(TypeError):
        create_backend(name, no_such_option=1)


def test_capabilities_drive_dialect_clauses():
    embedded = create_backend("embedded").capabilities
    sqlite = create_backend("sqlite").capabilities
    assert embedded.order_nulls_suffix(descending=False) == ""
    assert sqlite.order_nulls_suffix(descending=False) == " NULLS LAST"
    assert sqlite.order_nulls_suffix(descending=True) == " NULLS FIRST"
    assert embedded.window_frame_clause() == ""
    assert sqlite.window_frame_clause() == " ROWS UNBOUNDED PRECEDING"
    assert embedded.supports_aggregate("median")
    assert sqlite.supports_aggregate("STDDEV")


def test_backend_metrics_and_table_management():
    for name in backend_names():
        backend = create_backend(name)
        backend.register_rows("t", [{"x": 1.0}, {"x": 2.0}])
        assert backend.table_names() == ["t"]
        assert backend.table("t").num_rows == 2
        assert backend.table_statistics("t").num_rows == 2
        backend.query_rows("SELECT COUNT(*) AS n FROM t")
        snapshot = backend.stats()
        assert snapshot["queries_executed"] == 1.0
        assert snapshot["rows_returned"] == 1.0
        backend.drop_table("t")
        assert backend.table_names() == []
        backend.close()


def test_sqlite_registration_survives_replace_and_requery():
    backend = SqliteBackend()
    backend.register_rows("t", [{"x": 1.0}])
    backend.register_rows("t", [{"x": 5.0}, {"x": 6.0}], replace=True)
    assert backend.query_rows("SELECT COUNT(*) AS n FROM t") == [{"n": 2}]
    assert backend.table_statistics("t").num_rows == 2
