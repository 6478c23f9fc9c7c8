"""Tests for the Vega specification layer and plain Vega on the client.

Plain Vega is the all-client plan (#0) that :class:`VegaNativeSystem`
runs: the rewriter compiles every data entry into client operators.
"""

import pytest

from repro.baselines import VegaNativeSystem
from repro.errors import SpecError
from repro.sql import Database
from repro.vega import parse_spec_dict


# --------------------------------------------------------------------------- #
# Spec parsing and validation
# --------------------------------------------------------------------------- #


def test_parse_spec_basic_structure(histogram_spec):
    spec = parse_spec_dict(histogram_spec)
    assert spec.data_names() == ["source", "binned"]
    assert spec.signal_names() == ["maxbins", "min_delay"]
    assert spec.total_transforms() == 4
    assert spec.referenced_datasets() == {"binned"}


def test_spec_operator_vs_interaction_signals(histogram_spec):
    spec = parse_spec_dict(histogram_spec)
    assert spec.operator_signal_names() == {"delay_extent"}
    assert spec.interaction_signal_names() == {"maxbins", "min_delay"}


def test_spec_data_entry_lookup(histogram_spec):
    spec = parse_spec_dict(histogram_spec)
    entry = spec.data_entry("binned")
    assert entry.source == "source"
    assert not entry.is_root()
    assert entry.output_signals() == ["delay_extent"]
    with pytest.raises(SpecError):
        spec.data_entry("missing")


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        parse_spec_dict({"data": [{"name": "a", "source": "missing"}]})
    with pytest.raises(SpecError):
        parse_spec_dict({"data": [{"name": "a"}]})  # no table/values/source
    with pytest.raises(SpecError):
        parse_spec_dict({"data": [{"name": "a", "values": []}, {"name": "a", "values": []}]})
    with pytest.raises(SpecError):
        parse_spec_dict(
            {"data": [{"name": "a", "values": []}],
             "marks": [{"type": "rect", "from": {"data": "nope"}}]}
        )
    with pytest.raises(SpecError):
        parse_spec_dict(
            {"data": [{"name": "a", "values": [], "transform": ["bad"]}]}
        )
    with pytest.raises(SpecError):
        parse_spec_dict("not a dict")


# --------------------------------------------------------------------------- #
# Plain Vega: compilation and partial re-evaluation
# --------------------------------------------------------------------------- #


def _binned_count(system: VegaNativeSystem) -> int:
    return sum(row["count"] for row in system.dataset("binned"))


def _delays_at_least(rows: list[dict], threshold: float) -> int:
    return sum(1 for row in rows if row["delay"] is not None and row["delay"] >= threshold)


def test_plain_vega_plan_builds_expected_operators(histogram_spec, flights_db):
    dataflow = VegaNativeSystem(histogram_spec, flights_db).rewritten.dataflow
    # 1 table fetch + 4 transforms
    assert dataflow.num_operators() == 5
    assert set(dataflow.dataset_names()) == {"source", "binned"}
    assert "delay_extent" in dataflow.operator_names()


def test_native_system_runs_inline_values_entry():
    spec = {
        "data": [
            {"name": "inline", "values": [{"x": 1}, {"x": 5}],
             "transform": [{"type": "extent", "field": "x", "signal": "ext"}]},
        ],
    }
    system = VegaNativeSystem(spec, Database())
    result = system.initialize()
    assert result.evaluated_operators == 2
    assert result.breakdown.server_seconds == 0.0
    assert system.rewritten.dataflow.named_operator("ext").last_result.value == [1.0, 5.0]
    assert system.dataset("inline") == [{"x": 1}, {"x": 5}]


def test_runtime_initialize_and_dataset(histogram_spec, flights_db, flights_rows):
    system = VegaNativeSystem(histogram_spec, flights_db)
    result = system.initialize()
    assert result.evaluated_operators == 5
    assert result.breakdown.client_seconds > 0
    assert _binned_count(system) == _delays_at_least(flights_rows, 0)


def test_runtime_interaction_partial_reevaluation(histogram_spec, flights_db, flights_rows):
    system = VegaNativeSystem(histogram_spec, flights_db)
    system.initialize()
    before = len(system.dataset("binned"))
    update = system.interact({"maxbins": 40})
    assert update.evaluated_operators == 2  # bin + aggregate only
    assert len(system.dataset("binned")) > before
    assert _binned_count(system) == _delays_at_least(flights_rows, 0)
    assert system.rewritten.dataflow.signals.value("maxbins") == 40
    assert [r.evaluated_operators for r in system.history] == [5, 2]


def test_runtime_filter_interaction(histogram_spec, flights_db, flights_rows):
    system = VegaNativeSystem(histogram_spec, flights_db)
    system.initialize()
    update = system.interact({"min_delay": 200})
    # Filter, extent, bin and aggregate all depend (directly or transitively).
    assert update.evaluated_operators == 4
    assert _binned_count(system) == _delays_at_least(flights_rows, 200)


def test_runtime_dataset_cardinalities(histogram_spec, flights_db, flights_rows):
    system = VegaNativeSystem(histogram_spec, flights_db)
    system.initialize()
    assert len(system.dataset("source")) == len(flights_rows)
    assert len(system.dataset("binned")) >= 1
