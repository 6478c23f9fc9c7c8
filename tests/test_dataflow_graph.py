"""Tests for the dataflow graph: topology, evaluation, partial re-evaluation."""

import pytest

from repro.dataflow import Dataflow, create_transform, graph
from repro.dataflow.operator import Operator, OperatorResult, ParamRef
from repro.dataflow.signals import SignalRegistry
from repro.errors import DataflowError


ROWS = [{"v": float(i)} for i in range(10)]


def build_chain():
    """source -> extent (named) -> bin -> aggregate, with a maxbins signal."""
    dataflow = Dataflow()
    dataflow.declare_signal("maxbins", value=5)
    source = dataflow.add_source(ROWS, name="src")
    extent = create_transform({"type": "extent", "field": "v"})
    dataflow.add_operator(extent, source, name="v_extent")
    bin_op = create_transform(
        {"type": "bin", "field": "v", "maxbins": {"signal": "maxbins"}, "extent": {"operator": "v_extent"}}
    )
    dataflow.add_operator(bin_op, extent)
    aggregate = create_transform(
        {"type": "aggregate", "groupby": ["bin0"], "ops": ["count"], "as": ["count"]}
    )
    dataflow.add_operator(aggregate, bin_op)
    dataflow.mark_dataset("binned", aggregate)
    return dataflow, source, extent, bin_op, aggregate


# --------------------------------------------------------------------------- #
# Signals
# --------------------------------------------------------------------------- #


def test_signal_registry_declare_and_update():
    registry = SignalRegistry()
    registry.declare("x", value=1)
    assert registry.get("x").value == 1
    assert registry.set("x", 2) is True
    assert registry.set("x", 2) is False
    assert registry.values() == {"x": 2}
    with pytest.raises(DataflowError):
        registry.get("missing")


# --------------------------------------------------------------------------- #
# Graph construction and evaluation
# --------------------------------------------------------------------------- #


def test_full_run_produces_dataset():
    dataflow, *_ = build_chain()
    report = dataflow.run()
    assert len(report.evaluated_operators) == 4
    assert report.total_seconds >= 0
    binned = dataflow.dataset("binned")
    assert sum(r["count"] for r in binned) == len(ROWS)


def test_topological_order_respects_dependencies():
    dataflow, source, extent, bin_op, aggregate = build_chain()
    order = [op.id for op in dataflow.topological_order()]
    assert order.index(source.id) < order.index(extent.id)
    assert order.index(extent.id) < order.index(bin_op.id)
    assert order.index(bin_op.id) < order.index(aggregate.id)


def test_partial_reevaluation_on_signal_update():
    dataflow, source, extent, bin_op, aggregate = build_chain()
    dataflow.run()
    report = dataflow.update_signals({"maxbins": 20})
    evaluated = set(report.evaluated_operators)
    # Only bin (depends on maxbins) and its dependents re-run.
    assert bin_op.id in evaluated
    assert aggregate.id in evaluated
    assert source.id not in evaluated
    assert extent.id not in evaluated
    assert len(dataflow.dataset("binned")) > 5


def test_unchanged_signal_triggers_nothing():
    dataflow, *_ = build_chain()
    dataflow.run()
    report = dataflow.update_signals({"maxbins": 5})
    assert report.evaluated_operators == []


def test_update_signals_batch():
    dataflow, *_ = build_chain()
    dataflow.declare_signal("unused", value=0)
    dataflow.run()
    report = dataflow.update_signals({"maxbins": 7, "unused": 1})
    assert len(report.evaluated_operators) == 2


def test_evaluation_order_is_computed_once_and_dropped_when_the_graph_changes(monkeypatch):
    dataflow, source, extent, bin_op, aggregate = build_chain()
    sorts, closures = [], []
    sort, closure = Dataflow._sort_topologically, graph.stale_closure
    monkeypatch.setattr(
        Dataflow, "_sort_topologically", lambda self: sorts.append(1) or sort(self)
    )
    monkeypatch.setattr(
        graph,
        "stale_closure",
        lambda nodes, changed: closures.append(set(changed)) or closure(nodes, changed),
    )
    full = dataflow.run()
    assert full.evaluated_operators == [source.id, extent.id, bin_op.id, aggregate.id]
    for bins in (7, 9, 11, 13):
        report = dataflow.update_signals({"maxbins": bins})
        assert report.evaluated_operators == [bin_op.id, aggregate.id]
        assert set(report.operator_seconds) == set(report.operator_cardinality) == {
            bin_op.id,
            aggregate.id,
        }
        assert report.operator_cardinality[aggregate.id] == len(dataflow.dataset("binned"))
    assert (len(sorts), closures) == (1, [{"maxbins"}])

    # A structural change drops both caches: the new operator is ordered
    # and made stale like any other.
    collect = create_transform({"type": "collect", "sort": {"field": "count"}})
    dataflow.add_operator(collect, aggregate)
    assert dataflow.run().evaluated_operators[-1] == collect.id
    report = dataflow.update_signals({"maxbins": 6})
    assert report.evaluated_operators == [bin_op.id, aggregate.id, collect.id]
    assert (len(sorts), closures) == (2, [{"maxbins"}, {"maxbins"}])
    dataflow.declare_signal("late", value=0)
    dataflow.update_signals({"maxbins": 8})
    assert len(sorts) == 3


def test_operators_see_values_finished_earlier_in_the_same_pass():
    """One ``results`` mapping serves a whole pass and is updated as
    operators finish: a bin re-run by a signal change reads the extent
    recomputed a moment earlier, not the previous pass's."""
    dataflow = Dataflow()
    dataflow.declare_signal("lo", value=0)
    source = dataflow.add_source(ROWS, name="src")
    keep = create_transform({"type": "filter", "expr": "datum.v >= lo"})
    dataflow.add_operator(keep, source)
    extent = create_transform({"type": "extent", "field": "v"})
    dataflow.add_operator(extent, keep, name="v_extent")
    bin_op = create_transform(
        {"type": "bin", "field": "v", "maxbins": 5, "extent": {"operator": "v_extent"}}
    )
    dataflow.add_operator(bin_op, extent)
    dataflow.run()
    assert min(row["bin0"] for row in bin_op.last_result.rows) == 0.0
    report = dataflow.update_signals({"lo": 6})
    assert report.evaluated_operators == [keep.id, extent.id, bin_op.id]
    assert extent.last_result.value == [6.0, 9.0]
    assert min(row["bin0"] for row in bin_op.last_result.rows) >= 6.0


def test_dataset_before_run_raises():
    dataflow, *_ = build_chain()
    with pytest.raises(DataflowError):
        dataflow.dataset("binned")
    with pytest.raises(DataflowError):
        dataflow.dataset("unknown")


def test_duplicate_operator_and_name_rejected():
    dataflow = Dataflow()
    source = dataflow.add_source(ROWS, name="src")
    with pytest.raises(DataflowError):
        dataflow.add_operator(source)
    other = Dataflow()
    foreign = other.add_source(ROWS)
    extent = create_transform({"type": "extent", "field": "v"})
    with pytest.raises(DataflowError):
        dataflow.add_operator(extent, foreign)
    extent2 = create_transform({"type": "extent", "field": "v"})
    dataflow.add_operator(extent2, source, name="src2")
    extent3 = create_transform({"type": "extent", "field": "v"})
    with pytest.raises(DataflowError):
        dataflow.add_operator(extent3, source, name="src2")


def test_unknown_operator_reference_detected():
    dataflow = Dataflow()
    source = dataflow.add_source(ROWS)
    bin_op = create_transform(
        {"type": "bin", "field": "v", "extent": {"operator": "missing_extent"}}
    )
    dataflow.add_operator(bin_op, source)
    with pytest.raises(DataflowError):
        dataflow.run()


def test_param_ref_validation():
    with pytest.raises(DataflowError):
        ParamRef(kind="bogus", name="x")


def test_upstream_lookup():
    dataflow, source, extent, bin_op, aggregate = build_chain()
    assert dataflow.upstream_of(extent) is source
    assert dataflow.upstream_of(source) is None


def test_custom_operator_subclass_runs():
    class DoubleOperator(Operator):
        def evaluate(self, source, params, context):
            return OperatorResult(rows=[{**r, "v": r["v"] * 2} for r in source])

    dataflow = Dataflow()
    src = dataflow.add_source(ROWS)
    double = DoubleOperator(name="double")
    dataflow.add_operator(double, src)
    dataflow.mark_dataset("doubled", double)
    dataflow.run()
    assert dataflow.dataset("doubled")[1]["v"] == 2.0
