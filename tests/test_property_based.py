"""Property-based tests (hypothesis) for core invariants.

The most important invariant of the whole system is *plan equivalence*:
whatever partitioning the optimizer picks, the rows handed to the renderer
must be the same.  These tests also cover the SQL-vs-dataflow equivalence
of individual operators, the expression translator, the bin computation,
the cache, and the enumerator's validity guarantees.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.enumerator import PlanEnumerator
from repro.bench.reference import (
    distinct_indices_reference,
    group_rows_reference,
    group_rows_vectorized,
    sort_indices_reference,
    sort_indices_vectorized,
)
from repro.storage.table import Table
from repro.dataflow.transforms.bin import compute_bins
from repro.expr import to_sql
from repro.expr.to_sql import compiles
from repro.net.cache import QueryCache
from repro.rewrite import SpecRewriter
from repro.net import MiddlewareServer
from repro.sql import Database
from repro.vega.spec import parse_spec_dict

from helpers import evaluate, table_from_columns

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30
)
settings.load_profile("repro")


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

row_strategy = st.fixed_dictionaries(
    {
        "v": st.one_of(st.none(), finite_floats),
        "w": finite_floats,
        "g": st.sampled_from(["a", "b", "c", "d"]),
    }
)

rows_strategy = st.lists(row_strategy, min_size=1, max_size=40)


# --------------------------------------------------------------------------- #
# SQL engine vs. client dataflow equivalence
# --------------------------------------------------------------------------- #


@settings(max_examples=25)
@given(rows=rows_strategy, threshold=st.floats(min_value=-100, max_value=100))
def test_filter_equivalence_sql_vs_expression(rows, threshold):
    """WHERE v > t must keep exactly the rows the Vega expression keeps."""
    db = Database()
    db.register_rows("t", rows, column_order=["v", "w", "g"])
    sql_rows = db.execute(f"SELECT * FROM t WHERE {to_sql('datum.v > cut', {'cut': threshold})}").to_rows()
    expr_rows = [r for r in rows if evaluate("datum.v > cut", r, {"cut": threshold}) is True]
    assert len(sql_rows) == len(expr_rows)


@settings(max_examples=25)
@given(rows=rows_strategy)
def test_groupby_count_equivalence(rows):
    """SQL GROUP BY count equals a hand-computed Python group count."""
    db = Database()
    db.register_rows("t", rows, column_order=["v", "w", "g"])
    result = db.execute("SELECT g, COUNT(*) AS n FROM t GROUP BY g").to_rows()
    expected: dict[str, int] = {}
    for row in rows:
        expected[row["g"]] = expected.get(row["g"], 0) + 1
    assert {r["g"]: r["n"] for r in result} == expected


@settings(max_examples=25)
@given(rows=rows_strategy)
def test_sum_ignores_nulls(rows):
    db = Database()
    db.register_rows("t", rows, column_order=["v", "w", "g"])
    result = db.execute("SELECT SUM(v) AS s, COUNT(v) AS n FROM t").to_rows()[0]
    values = [r["v"] for r in rows if r["v"] is not None]
    assert result["n"] == len(values)
    if values:
        assert result["s"] == pytest.approx(sum(values), rel=1e-6, abs=1e-6)
    else:
        assert result["s"] is None


# --------------------------------------------------------------------------- #
# Vectorized kernels vs naive reference (group-by / order-by / distinct)
# --------------------------------------------------------------------------- #

_string_values = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "", "zz"]))
_numeric_values = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.5]),
    finite_floats,
)


@st.composite
def _key_arrays(draw, max_rows=25, max_keys=3):
    """Aligned key arrays with NULLs, NaNs, empty and single-row tables."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    n_keys = draw(st.integers(min_value=1, max_value=max_keys))
    arrays = []
    for _ in range(n_keys):
        if draw(st.booleans()):
            values = draw(st.lists(_string_values, min_size=n, max_size=n))
            arrays.append(np.array(values, dtype=object))
        else:
            values = draw(st.lists(_numeric_values, min_size=n, max_size=n))
            arrays.append(
                np.array([np.nan if v is None else v for v in values], dtype=np.float64)
            )
    return n, arrays


@given(data=_key_arrays())
def test_groupby_kernel_matches_reference(data):
    """Factorize/lexsort grouping == naive dict-of-tuples grouping."""
    n, arrays = data
    vectorized = group_rows_vectorized(arrays, n)
    reference = group_rows_reference(arrays, n)
    assert len(vectorized) == len(reference)
    for fast, slow in zip(vectorized, reference):
        assert fast.tolist() == slow.tolist()


@given(data=_key_arrays(), flags=st.lists(st.booleans(), min_size=3, max_size=3))
def test_orderby_kernel_matches_reference(data, flags):
    """Code-based lexsort == repeated stable Python sorts, any ASC/DESC mix."""
    n, arrays = data
    descending = flags[: len(arrays)]
    fast = sort_indices_vectorized(arrays, descending, n)
    slow = sort_indices_reference(arrays, descending, n)
    assert fast.tolist() == slow.tolist()


@given(data=_key_arrays(max_keys=2))
def test_distinct_kernel_matches_reference(data):
    """Columnar DISTINCT == naive first-occurrence row scan."""
    n, arrays = data
    columns = {f"c{i}": list(arr) for i, arr in enumerate(arrays)}
    table = table_from_columns(columns)
    assert table.distinct_indices().tolist() == distinct_indices_reference(table).tolist()


@settings(max_examples=25)
@given(rows=rows_strategy)
def test_grouped_aggregates_match_naive_python(rows):
    """Batched segment aggregation equals per-group Python aggregation."""
    db = Database()
    db.register_rows("t", rows, column_order=["v", "w", "g"])
    result = db.execute(
        "SELECT g, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, "
        "MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS a FROM t GROUP BY g"
    ).to_rows()
    groups: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["g"]] = counts.get(row["g"], 0) + 1
        if row["v"] is not None:
            groups.setdefault(row["g"], []).append(row["v"])
    assert [r["g"] for r in result] == sorted(counts)
    for r in result:
        present = groups.get(r["g"], [])
        assert r["n"] == counts[r["g"]]
        assert r["nv"] == len(present)
        if present:
            assert r["s"] == pytest.approx(sum(present), rel=1e-9, abs=1e-9)
            assert r["lo"] == pytest.approx(min(present))
            assert r["hi"] == pytest.approx(max(present))
            assert r["a"] == pytest.approx(sum(present) / len(present), rel=1e-9, abs=1e-9)
        else:
            assert r["s"] is None and r["lo"] is None and r["hi"] is None and r["a"] is None


@settings(max_examples=25)
@given(rows=rows_strategy, descending=st.booleans())
def test_order_by_nulls_deterministic(rows, descending):
    """NULL order keys sort last under ASC and first under DESC."""
    db = Database()
    db.register_rows("t", rows, column_order=["v", "w", "g"])
    direction = "DESC" if descending else "ASC"
    result = db.execute(f"SELECT v FROM t ORDER BY v {direction}").to_rows()
    values = [r["v"] for r in result]
    n_null = sum(1 for v in values if v is None)
    nulls = values[:n_null] if descending else values[len(values) - n_null :]
    assert all(v is None for v in nulls)
    present = [v for v in values if v is not None]
    assert present == sorted(present, reverse=descending)


# --------------------------------------------------------------------------- #
# Expression translation
# --------------------------------------------------------------------------- #


@settings(max_examples=40)
@given(
    low=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    high=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    value=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
)
def test_range_predicate_translation_agrees_with_evaluator(low, high, value):
    expr = "datum.x >= lo && datum.x <= hi"
    signals = {"lo": low, "hi": high}
    client = evaluate(expr, {"x": value}, signals)
    db = Database()
    db.register_rows("t", [{"x": value}])
    server = len(db.execute(f"SELECT * FROM t WHERE {to_sql(expr, signals)}").to_rows()) == 1
    assert bool(client) == server


@given(st.sampled_from([
    "datum.a > 1 && datum.b < 2",
    "abs(datum.a) >= 5",
    "datum.a == null",
    "isValid(datum.a)",
    "datum.a > 0 ? 1 : 0",
]))
def test_translatable_expressions_report_translatable(expr):
    assert compiles(expr)


# --------------------------------------------------------------------------- #
# Binning
# --------------------------------------------------------------------------- #


@settings(max_examples=60)
@given(
    low=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
    span=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    maxbins=st.integers(min_value=1, max_value=200),
)
def test_compute_bins_invariants(low, span, maxbins):
    high = low + span
    start, stop, step = compute_bins((low, high), maxbins)
    assert step > 0
    assert start <= low + 1e-9
    assert stop >= high - 1e-9
    # The nice step never produces more than ~maxbins buckets (plus rounding).
    assert (stop - start) / step <= maxbins + 2
    # The chosen step comes from the 1/2/2.5/5/10 ladder.
    mantissa = step / (10 ** math.floor(math.log10(step)))
    assert any(math.isclose(mantissa, m, rel_tol=1e-9) for m in (1.0, 2.0, 2.5, 5.0, 10.0))


# --------------------------------------------------------------------------- #
# Cache
# --------------------------------------------------------------------------- #


@settings(max_examples=40)
@given(
    queries=st.lists(st.sampled_from([f"q{i}" for i in range(8)]), min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=6),
)
def test_cache_never_exceeds_capacity_and_counts_consistently(queries, capacity):
    cache = QueryCache(max_entries=capacity)
    for query in queries:
        if cache.get(query) is None:
            cache.put(query, result=Table.from_rows([]), payload_bytes=10)
        assert len(cache) <= capacity
    stats = cache.stats
    assert stats.hits + stats.misses == len(queries)
    assert stats.insertions <= stats.misses
    assert stats.evictions <= stats.insertions


# --------------------------------------------------------------------------- #
# Plan enumeration and plan equivalence
# --------------------------------------------------------------------------- #


def _histogram_spec(maxbins_value: int = 8) -> dict:
    return {
        "signals": [{"name": "maxbins", "value": maxbins_value}],
        "data": [
            {"name": "source", "table": "t"},
            {
                "name": "binned",
                "source": "source",
                "transform": [
                    {"type": "filter", "expr": "datum.w >= 0"},
                    {"type": "extent", "field": "w", "signal": "w_extent"},
                    {
                        "type": "bin",
                        "field": "w",
                        "maxbins": {"signal": "maxbins"},
                        "extent": {"signal": "w_extent"},
                    },
                    {"type": "aggregate", "groupby": ["bin0"], "ops": ["count"], "as": ["n"]},
                ],
            },
        ],
        "marks": [{"type": "rect", "from": {"data": "binned"}}],
    }


@settings(max_examples=15)
@given(rows=rows_strategy, maxbins=st.integers(min_value=2, max_value=30))
# Extent [0, 0.85] at 17 bins: step 0.05, stop 0.8500000000000001, and
# w = 0.85 computes a bin start of stop itself, which the client moves
# into the last bin; the server's bin SQL must do the same.
@example(rows=[{"v": 1.0, "w": w, "g": "a"} for w in (0, 0, 0, 0, 0.85)], maxbins=17)
def test_every_enumerated_plan_is_valid_and_equivalent(rows, maxbins):
    """All enumerated plans validate and produce identical renderer input."""
    spec = parse_spec_dict(_histogram_spec(maxbins))
    db = Database()
    db.register_rows("t", rows, column_order=["v", "w", "g"])
    middleware = MiddlewareServer(db)
    rewriter = SpecRewriter(spec, middleware)
    plans = PlanEnumerator(spec).enumerate()
    assert len(plans) == 5

    reference: set | None = None
    for plan in plans:
        built = rewriter.build(plan.as_dict())  # must not raise
        built.dataflow.run()
        binned = built.dataflow.dataset("binned")
        key = {
            (None if r["bin0"] is None else round(r["bin0"], 6), r["n"]) for r in binned
        }
        if reference is None:
            reference = key
        else:
            assert key == reference


@settings(max_examples=20)
@given(st.data())
def test_enumerator_child_splits_require_server_parent(data):
    """Random multi-entry pipelines never yield invalid parent/child splits."""
    n_children = data.draw(st.integers(min_value=1, max_value=3))
    spec_dict = {
        "data": [
            {"name": "source", "table": "t"},
            {
                "name": "filtered",
                "source": "source",
                "transform": [{"type": "filter", "expr": "datum.w > 0"}],
            },
        ],
        "marks": [],
    }
    for index in range(n_children):
        spec_dict["data"].append(
            {
                "name": f"agg{index}",
                "source": "filtered",
                "transform": [
                    {"type": "aggregate", "groupby": ["g"], "ops": ["count"], "as": ["n"]}
                ],
            }
        )
        spec_dict["marks"].append({"type": "rect", "from": {"data": f"agg{index}"}})
    spec = parse_spec_dict(spec_dict)
    plans = PlanEnumerator(spec).enumerate()
    for plan in plans:
        assignment = plan.as_dict()
        for index in range(n_children):
            if assignment[f"agg{index}"] > 0:
                assert assignment["filtered"] == 1
    # 1 (filtered client) + 2^children (filtered server, each child free).
    assert len(plans) == 1 + 2 ** n_children


# --------------------------------------------------------------------------- #
# Serialization estimates
# --------------------------------------------------------------------------- #


@settings(max_examples=30)
@given(n_rows=st.integers(min_value=0, max_value=500))
def test_arrow_payload_monotone_in_rows(n_rows):
    from repro.net.serialize import ArrowCodec

    rows = [{"a": float(i), "b": "x" * 5} for i in range(n_rows)]
    smaller = ArrowCodec().estimate_result(Table.from_rows(rows[: n_rows // 2]))
    larger = ArrowCodec().estimate_result(Table.from_rows(rows))
    assert larger.payload_bytes >= smaller.payload_bytes
    assert larger.encode_seconds >= 0 and larger.decode_seconds >= 0
