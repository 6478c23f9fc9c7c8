"""Tests for the client-side Vega transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import Dataflow, create_transform
from repro.dataflow.operator import EvaluationContext
from repro.dataflow.transforms.aggregate import AGGREGATE_OPS
from repro.dataflow.transforms.bin import compute_bins, nice_bin_step
from repro.errors import DataflowError, SpecError
from repro.sql import Database


def run_transform(definition, rows, signals=None):
    """Evaluate a single transform over ``rows`` inside a minimal dataflow."""
    dataflow = Dataflow()
    for name, value in (signals or {}).items():
        dataflow.declare_signal(name, value=value)
    source = dataflow.add_source(rows, name="src")
    operator = create_transform(definition)
    dataflow.add_operator(operator, source, name="op")
    dataflow.mark_dataset("out", operator)
    dataflow.run()
    return operator.last_result


ROWS = [
    {"category": "a", "value": 1.0, "ts": 100.0},
    {"category": "a", "value": 3.0, "ts": 200.0},
    {"category": "b", "value": 5.0, "ts": 300.0},
    {"category": "b", "value": 7.0, "ts": 400.0},
    {"category": "c", "value": None, "ts": 500.0},
]


# --------------------------------------------------------------------------- #
# Individual transforms
# --------------------------------------------------------------------------- #


def test_filter_transform_with_signal():
    result = run_transform(
        {"type": "filter", "expr": "datum.value >= cutoff"},
        ROWS,
        signals={"cutoff": 4},
    )
    assert [r["value"] for r in result.rows] == [5.0, 7.0]


def test_filter_requires_expression():
    with pytest.raises(DataflowError):
        create_transform({"type": "filter"})


def test_extent_transform_outputs_min_max():
    result = run_transform({"type": "extent", "field": "value"}, ROWS)
    assert result.value == [1.0, 7.0]
    assert len(result.rows) == len(ROWS)  # rows pass through


def test_extent_of_empty_input_defaults_to_zero():
    result = run_transform({"type": "extent", "field": "value"}, [])
    assert result.value == [0.0, 0.0]


def test_bin_transform_annotates_rows():
    result = run_transform(
        {"type": "bin", "field": "value", "maxbins": 4, "extent": [0, 8]}, ROWS
    )
    binned = result.rows[0]
    assert "bin0" in binned and "bin1" in binned
    assert binned["bin1"] - binned["bin0"] == pytest.approx(result.value["step"])
    # NULL values get NULL bins.
    assert result.rows[-1]["bin0"] is None


def test_bin_values_fall_inside_their_bins():
    result = run_transform(
        {"type": "bin", "field": "value", "maxbins": 10, "extent": [0, 10]}, ROWS
    )
    for row in result.rows:
        if row["value"] is None:
            continue
        assert row["bin0"] <= row["value"] <= row["bin1"]


def test_nice_bin_step_ladder():
    assert nice_bin_step(100, 10) == 10
    assert nice_bin_step(100, 4) == 25
    assert nice_bin_step(1, 20) == 0.05
    start, stop, step = compute_bins((0, 100), 10)
    assert start == 0 and stop == 100 and step == 10


def test_aggregate_transform_counts_and_means():
    result = run_transform(
        {
            "type": "aggregate",
            "groupby": ["category"],
            "ops": ["count", "mean"],
            "fields": [None, "value"],
            "as": ["n", "avg"],
        },
        ROWS,
    )
    by_category = {r["category"]: r for r in result.rows}
    assert by_category["a"]["n"] == 2 and by_category["a"]["avg"] == 2.0
    assert by_category["c"]["avg"] is None  # only NULL values in group c


def test_aggregate_global_group():
    result = run_transform({"type": "aggregate", "ops": ["count"]}, ROWS)
    assert result.rows == [{"count": 5.0}]


def test_aggregate_rejects_unknown_op():
    with pytest.raises(DataflowError):
        create_transform({"type": "aggregate", "ops": ["frobnicate"]})


def test_joinaggregate_rejects_unknown_op():
    with pytest.raises(DataflowError):
        create_transform({"type": "joinaggregate", "ops": ["bogus"], "fields": ["value"]})


#: Ops a string field takes; the others require numbers on both sides.
_STRING_OPS = ("count", "distinct", "min", "max")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["p", "q"]),
            st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
            st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_client_aggregate_equals_the_engine_bit_for_bit(rows):
    """Every client op over floats with NULLs, and the string ops over
    strings, equals embedded ``SELECT op(x) ... GROUP BY g`` exactly:
    the same values, NULLs and sign bits, whichever side reduces."""
    data = [{"g": g, "x": x, "s": s} for g, x, s in rows]
    db = Database()
    db.register_rows("t", data)
    for op, (function, distinct) in AGGREGATE_OPS.items():
        for field in ("x", "s") if op in _STRING_OPS else ("x",):
            client = run_transform(
                {"type": "aggregate", "groupby": ["g"], "ops": [op], "fields": [field], "as": ["y"]},
                data,
            ).rows
            argument = f"DISTINCT {field}" if distinct else field
            table = db.execute(f"SELECT g, {function}({argument}) AS y FROM t GROUP BY g").table
            server = dict(zip(table.column("g").values.tolist(), table.column("y").values))
            got = [row["y"] for row in client]
            want = np.array([server[row["g"]] for row in client], dtype=table.column("y").values.dtype)
            if want.dtype == object:
                assert got == want.tolist(), (op, field)
            else:
                got = np.array([np.nan if value is None else value for value in got])
                assert np.array_equal(got, want, equal_nan=True), (op, field)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (op, field)


def test_joinaggregate_keeps_all_rows():
    result = run_transform(
        {
            "type": "joinaggregate",
            "groupby": ["category"],
            "ops": ["sum"],
            "fields": ["value"],
            "as": ["group_total"],
        },
        ROWS,
    )
    assert len(result.rows) == 5
    assert result.rows[0]["group_total"] == 4.0


def test_collect_sort_ascending_nulls_last():
    result = run_transform(
        {"type": "collect", "sort": {"field": "value", "order": "ascending"}}, ROWS
    )
    values = [r["value"] for r in result.rows]
    assert values[:4] == [1.0, 3.0, 5.0, 7.0]
    assert values[4] is None


def test_collect_sort_descending_matches_sql_null_ordering():
    # Mirrors the SQL engine (PostgreSQL semantics): DESC places NULLs first,
    # so client- and server-side sorts of the same data agree.
    result = run_transform(
        {"type": "collect", "sort": {"field": "value", "order": "descending"}}, ROWS
    )
    values = [r["value"] for r in result.rows]
    assert values[0] is None
    assert values[1:] == [7.0, 5.0, 3.0, 1.0]


def test_project_selects_and_renames():
    result = run_transform(
        {"type": "project", "fields": ["category", "value"], "as": ["cat", "v"]}, ROWS
    )
    assert set(result.rows[0]) == {"cat", "v"}


def test_formula_adds_derived_field():
    result = run_transform(
        {"type": "formula", "expr": "datum.value * 10", "as": "scaled"}, ROWS
    )
    assert result.rows[0]["scaled"] == 10.0
    assert result.rows[-1]["scaled"] is None


def test_stack_running_offsets_per_group():
    result = run_transform(
        {"type": "stack", "field": "value", "groupby": ["category"], "sort": {"field": "value"}},
        ROWS,
    )
    group_a = [r for r in result.rows if r["category"] == "a"]
    assert [(r["y0"], r["y1"]) for r in group_a] == [(0.0, 1.0), (1.0, 4.0)]


def test_timeunit_truncates_to_unit():
    result = run_transform(
        {"type": "timeunit", "field": "ts", "units": "minutes"}, ROWS
    )
    assert result.rows[0]["unit0"] == 60.0
    assert result.rows[0]["unit1"] == 120.0


def test_timeunit_rejects_unknown_unit():
    dataflow = Dataflow()
    source = dataflow.add_source(ROWS)
    operator = create_transform({"type": "timeunit", "field": "ts", "units": "lightyears"})
    dataflow.add_operator(operator, source)
    with pytest.raises(DataflowError):
        dataflow.run()


def test_window_row_number_and_running_sum():
    result = run_transform(
        {
            "type": "window",
            "groupby": ["category"],
            "sort": {"field": "value"},
            "ops": ["row_number", "sum"],
            "fields": [None, "value"],
            "as": ["rank", "running"],
        },
        ROWS,
    )
    group_b = [r for r in result.rows if r["category"] == "b"]
    assert [r["rank"] for r in group_b] == [1.0, 2.0]
    assert [r["running"] for r in group_b] == [5.0, 12.0]


def test_create_transform_unknown_type():
    with pytest.raises(SpecError):
        create_transform({"type": "teleport"})
    with pytest.raises(SpecError):
        create_transform({"no_type": True})
