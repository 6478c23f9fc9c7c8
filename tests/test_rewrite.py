"""Tests for query rewriting: SQL templates, VDTs and the spec rewriter."""

import pytest

from repro.errors import OptimizationError, RewriteError
from repro.net import MiddlewareServer
from repro.rewrite import REWRITABLE_TRANSFORMS, SpecRewriter
from repro.rewrite.templates import QueryFragment, apply_transform
from repro.sql import Database
from repro.vega.spec import parse_spec_dict


def build_fragment(table, transforms, resolved_params):
    """Fold a chain of transforms over ``table``, as the rewriter does."""
    fragment = QueryFragment.for_table(table)
    for definition, params in zip(transforms, resolved_params):
        fragment = apply_transform(fragment, definition, params)
    return fragment


# --------------------------------------------------------------------------- #
# QueryFragment and per-transform builders
# --------------------------------------------------------------------------- #


def test_fragment_for_table_and_nesting():
    fragment = QueryFragment.for_table("flights")
    assert fragment.to_sql() == "SELECT * FROM flights"
    nested = fragment.nest()
    assert nested.to_sql() == "SELECT * FROM (SELECT * FROM flights) AS sub"


def test_filter_composes_into_where():
    fragment = QueryFragment.for_table("flights")
    fragment = apply_transform(
        fragment,
        {"type": "filter"},
        {"expr": "datum.delay > 10", "_signals": {}},
    )
    fragment = apply_transform(
        fragment,
        {"type": "filter"},
        {"expr": "datum.distance < 500", "_signals": {}},
    )
    sql = fragment.to_sql()
    assert sql.count("WHERE") == 1
    assert "delay > 10" in sql and "distance < 500" in sql


def test_filter_with_untranslatable_expression_raises():
    fragment = QueryFragment.for_table("flights")
    with pytest.raises(RewriteError):
        apply_transform(
            fragment, {"type": "filter"}, {"expr": "year(datum.date) == 1999", "_signals": {}}
        )


def test_extent_builder():
    fragment = QueryFragment.for_table("flights")
    fragment = apply_transform(fragment, {"type": "extent"}, {"field": "delay"})
    assert fragment.to_sql() == (
        "SELECT MIN(delay) AS min_val, MAX(delay) AS max_val FROM flights"
    )


def test_bin_and_aggregate_merge_into_one_block():
    """Example 4.1: the aggregate absorbs the bin query."""
    fragment = build_fragment(
        "flights",
        [{"type": "bin"}, {"type": "aggregate"}],
        [
            {"field": "delay", "maxbins": 10, "extent": [0.0, 100.0], "as": ["bin0", "bin1"]},
            {"groupby": ["bin0"], "ops": ["count"], "as": ["count"]},
        ],
    )
    sql = fragment.to_sql()
    assert sql.count("SELECT") == 1  # single block, no nesting
    assert "FLOOR" in sql and "GROUP BY bin0" in sql and "COUNT(*)" in sql


@pytest.mark.parametrize(("extent", "maxbins"), [((0.0, 0.85), 17), ((-10.0, 0.0), 10)])
def test_bin_sql_matches_client_bins_at_the_domain_end(extent, maxbins):
    """Float rounding floors some values just below ``stop`` onto it; the
    client moves those into the last bin, and so must the server."""
    import math

    from repro.dataflow.transforms.bin import bin_start, compute_bins, last_bin_threshold

    start, stop, step = compute_bins(extent, maxbins)
    edge = last_bin_threshold(start, stop, step)
    values = [start, math.nextafter(edge, -math.inf), edge, extent[1], stop, stop + step]
    db = Database(ivm=False)
    db.register_rows("t", [{"w": value} for value in values])
    fragment = apply_transform(
        QueryFragment.for_table("t"),
        {"type": "bin"},
        {"field": "w", "maxbins": maxbins, "extent": list(extent), "as": ["bin0", "bin1"]},
    )
    server = [row["bin0"] for row in db.execute(fragment.to_sql()).to_rows()]
    assert server == [bin_start(value, start, stop, step) for value in values]


def test_bin_requires_extent():
    fragment = QueryFragment.for_table("flights")
    with pytest.raises(RewriteError):
        apply_transform(fragment, {"type": "bin"}, {"field": "delay", "maxbins": 10})


def test_filter_after_aggregate_nests():
    fragment = build_fragment(
        "flights",
        [{"type": "aggregate"}, {"type": "filter"}],
        [
            {"groupby": ["carrier"], "ops": ["count"], "as": ["n"]},
            {"expr": "datum.n > 5", "_signals": {}},
        ],
    )
    sql = fragment.to_sql()
    assert sql.count("SELECT") == 2  # nested sub-query
    assert "WHERE" in sql


def test_collect_and_project_builders():
    fragment = build_fragment(
        "flights",
        [{"type": "project"}, {"type": "collect"}],
        [
            {"fields": ["carrier", "delay"], "as": ["carrier", "d"]},
            {"sort": {"field": "d", "order": "descending"}},
        ],
    )
    sql = fragment.to_sql()
    assert "delay AS d" in sql
    assert "ORDER BY d DESC" in sql


def test_stack_uses_window_function():
    fragment = build_fragment(
        "flights",
        [{"type": "stack"}],
        [{"field": "delay", "groupby": ["carrier"], "sort": {"field": "distance"}}],
    )
    assert fragment.to_sql() == (
        "SELECT *, COALESCE(SUM(COALESCE(delay, 0)) OVER (PARTITION BY carrier "
        "ORDER BY distance NULLS LAST ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
        "AS y0, SUM(COALESCE(delay, 0)) OVER (PARTITION BY carrier "
        "ORDER BY distance NULLS LAST ROWS UNBOUNDED PRECEDING) AS y1 FROM flights"
    )


def test_timeunit_builder():
    fragment = build_fragment(
        "flights",
        [{"type": "timeunit"}],
        [{"field": "date", "units": "day"}],
    )
    sql = fragment.to_sql()
    assert "FLOOR(date / 86400.0) * 86400.0 AS unit0" in sql


def test_unsupported_transform_rejected():
    assert "aggregate" in REWRITABLE_TRANSFORMS
    assert "joinaggregate" not in REWRITABLE_TRANSFORMS
    with pytest.raises(RewriteError):
        apply_transform(QueryFragment.for_table("t"), {"type": "joinaggregate"}, {})


def test_generated_sql_executes_on_engine(flights_db):
    fragment = build_fragment(
        "flights",
        [{"type": "filter"}, {"type": "bin"}, {"type": "aggregate"}],
        [
            {"expr": "datum.delay >= 0", "_signals": {}},
            {"field": "delay", "maxbins": 10, "extent": [0.0, 600.0], "as": ["bin0", "bin1"]},
            {"groupby": ["bin0", "bin1"], "ops": ["count"], "as": ["count"]},
        ],
    )
    result = flights_db.execute(fragment.to_sql())
    assert result.num_rows >= 1
    assert set(result.table.column_names()) == {"bin0", "bin1", "count"}


# --------------------------------------------------------------------------- #
# SpecRewriter
# --------------------------------------------------------------------------- #


@pytest.fixture()
def rewriter(histogram_spec, flights_db):
    spec = parse_spec_dict(histogram_spec)
    middleware = MiddlewareServer(flights_db)
    return SpecRewriter(spec, middleware), spec


def test_rewriter_all_client_plan_fetches_table(rewriter):
    spec_rewriter, _spec = rewriter
    built = spec_rewriter.build({"source": 0, "binned": 0})
    report = built.dataflow.run()
    assert len(built.vdts) == 1  # the raw-table fetch
    assert report.responses[built.vdts[0].id].sql == "SELECT * FROM flights"
    assert report.total_seconds > 0


def test_rewriter_all_server_plan_single_aggregate_query(rewriter):
    spec_rewriter, _spec = rewriter
    built = spec_rewriter.build({"source": 0, "binned": 4})
    responses = built.dataflow.run().responses.values()
    sqls = [response.sql for response in responses]
    assert any("MIN(delay)" in s for s in sqls)  # extent VDT
    assert any("GROUP BY" in s for s in sqls)  # bin+aggregate VDT
    # The fully offloaded plan never transfers the raw table.
    assert sum(response.payload_bytes for response in responses) < 10_000


def test_rewriter_equivalent_results_across_plans(rewriter, flights_rows):
    """Every partitioning must produce the same binned histogram."""
    spec_rewriter, _spec = rewriter
    reference = None
    for split in (0, 2, 4):
        built = spec_rewriter.build({"source": 0, "binned": split})
        built.dataflow.run()
        binned = {
            (round(r["bin0"], 6), r["count"]) for r in built.dataflow.dataset("binned")
        }
        if reference is None:
            reference = binned
        else:
            assert binned == reference, f"plan with split {split} diverged"


def test_rewriter_signal_update_reissues_sql(rewriter):
    spec_rewriter, _spec = rewriter
    built = spec_rewriter.build({"source": 0, "binned": 4})
    built.dataflow.run()
    bins_before = len(built.dataflow.dataset("binned"))
    built.dataflow.update_signals({"maxbins": 40})
    bins_after = len(built.dataflow.dataset("binned"))
    assert bins_after > bins_before


def test_rewriter_rejects_invalid_assignments(rewriter):
    spec_rewriter, _spec = rewriter
    with pytest.raises(OptimizationError):
        spec_rewriter.build({"source": 0, "binned": 9})
    with pytest.raises(OptimizationError):
        spec_rewriter.build({"source": 0, "binned": -1})


def test_rewriter_child_requires_server_parent(flights_db):
    spec = parse_spec_dict(
        {
            "data": [
                {"name": "source", "table": "flights"},
                {
                    "name": "filtered",
                    "source": "source",
                    "transform": [{"type": "filter", "expr": "datum.delay > 0"}],
                },
                {
                    "name": "agg",
                    "source": "filtered",
                    "transform": [
                        {"type": "aggregate", "groupby": ["carrier"], "ops": ["count"], "as": ["n"]}
                    ],
                },
            ],
            "marks": [{"type": "rect", "from": {"data": "agg"}}],
        }
    )
    rewriter = SpecRewriter(spec, MiddlewareServer(flights_db))
    # Parent kept on the client -> child cannot offload.
    with pytest.raises(OptimizationError):
        rewriter.build({"source": 0, "filtered": 0, "agg": 1})
    # Parent fully offloaded -> child may offload and nests the parent's SQL.
    built = rewriter.build({"source": 0, "filtered": 1, "agg": 1})
    sql = built.dataflow.run().responses[built.vdts[-1].id].sql
    assert "WHERE" in sql and "GROUP BY carrier" in sql


def test_client_row_consumers_dependency_checking(rewriter):
    spec_rewriter, _spec = rewriter
    needed = spec_rewriter.client_row_consumers({"source": 0, "binned": 4})
    # Only 'binned' is referenced by scales/marks; the raw source rows are not
    # needed on the client when everything is offloaded.
    assert "binned" in needed
    assert "source" not in needed


def test_pass_responses_show_cache_hits(rewriter):
    spec_rewriter, _spec = rewriter
    built = spec_rewriter.build({"source": 0, "binned": 4})
    built.dataflow.run()
    # Re-running the same signals re-issues identical SQL, served by cache.
    built.dataflow.update_signals({"maxbins": 10, "min_delay": 0})
    built.dataflow.update_signals({"maxbins": 20})
    report = built.dataflow.update_signals({"maxbins": 10})
    assert report.responses
    assert all(response.from_cache for response in report.responses.values())
