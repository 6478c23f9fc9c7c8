"""Tests for the benchmark suite: templates, workloads, harness, experiments."""

import numpy as np
import pytest

from repro.bench import BenchmarkHarness, WorkloadGenerator, all_templates, get_template
from repro.bench.experiments import table1
from repro.bench.reporting import format_mapping, format_table
from repro.bench.templates.base import DashboardTemplate
from repro.core.comparators import build_pair_dataset
from repro.core.enumerator import PlanEnumerator
from repro.core.system import VegaPlusSystem
from repro.datasets.generators import get_schema
from repro.datasets.schema import FieldType
from repro.errors import BenchmarkError
from repro.vega.spec import parse_spec_dict


# --------------------------------------------------------------------------- #
# Templates
# --------------------------------------------------------------------------- #


def test_all_seven_templates_present():
    templates = all_templates()
    assert len(templates) == 7
    names = {t.name for t in templates}
    assert names == {
        "trellis_stacked_bar",
        "line_chart",
        "interactive_histogram",
        "zoomable_heatmap",
        "crossfilter",
        "heatmap_bar",
        "overview_detail",
    }
    with pytest.raises(BenchmarkError):
        get_template("missing")


@pytest.mark.parametrize("template_name", [t.name for t in all_templates()])
@pytest.mark.parametrize("dataset", ["flights", "movies"])
def test_every_template_binds_and_validates(template_name, dataset):
    """Templates are dataset-independent: any pairing must produce a valid spec."""
    template = get_template(template_name)
    schema = get_schema(dataset)
    bound = template.bind(dataset, schema, rng=np.random.default_rng(0))
    spec = parse_spec_dict(bound.spec)
    assert spec.total_transforms() >= 2
    assert spec.referenced_datasets()
    plans = PlanEnumerator(spec).enumerate()
    assert len(plans) >= 2


@pytest.mark.parametrize("template_name", [t.name for t in all_templates()])
def test_every_template_executes_end_to_end(template_name):
    """Every template renders and (if interactive) survives an interaction."""
    harness = BenchmarkHarness(seed=0)
    configuration = harness.configure(template_name, "flights", 800, interactions_per_session=2)
    system = VegaPlusSystem(configuration.spec, configuration.database)
    system.optimize()
    system.initialize()
    for interaction in configuration.sessions[0][:2]:
        system.interact(interaction)
    for dataset_name in system.spec.referenced_datasets():
        assert isinstance(system.dataset(dataset_name), list)


def test_template_interactions_sample_plausible_values():
    template = get_template("interactive_histogram")
    schema = get_schema("flights")
    bound = template.bind("flights", schema, rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for _ in range(20):
        interaction = template.sample_interaction(rng, schema, bound.fields)
        if "maxbins" in interaction:
            assert 5 <= interaction["maxbins"] <= 100
        else:
            assert interaction["bin_field"] in schema.quantitative_fields()


def test_template_field_binding_respects_roles():
    template = get_template("heatmap_bar")
    schema = get_schema("movies")
    bound = template.bind("movies", schema, rng=np.random.default_rng(0))
    assert bound.fields["x_value"] in schema.quantitative_fields()
    assert schema.field(bound.fields["y_category"]).ftype is FieldType.CATEGORICAL
    assert schema.field(bound.fields["bar_category"]).ftype is FieldType.CATEGORICAL


def test_template_explicit_field_binding():
    template = get_template("interactive_histogram")
    schema = get_schema("flights")
    bound = template.bind("flights", schema, fields={"value": "distance"})
    assert bound.fields["value"] == "distance"
    assert "distance" in str(bound.spec)


def test_template_missing_field_type_raises():
    class ImpossibleTemplate(DashboardTemplate):
        name = "impossible"

        def required_roles(self):
            from repro.bench.templates.base import FieldRole
            from repro.datasets.schema import FieldType

            return [FieldRole(f"role{i}", FieldType.TEMPORAL) for i in range(10)]

        def build_spec(self, dataset, fields):
            return {"data": [{"name": "source", "table": dataset}]}

    schema = get_schema("flights")
    # flights has one temporal field; roles re-use it rather than fail, so the
    # bind succeeds — but a schema with no temporal fields must raise.
    ImpossibleTemplate().bind("flights", schema)
    from repro.datasets.schema import DatasetSchema

    with pytest.raises(BenchmarkError):
        ImpossibleTemplate().bind("empty", DatasetSchema(name="empty", fields=[]))


# --------------------------------------------------------------------------- #
# Workload generation
# --------------------------------------------------------------------------- #


def test_workload_generator_sessions_shape():
    generator = WorkloadGenerator(seed=0)
    workload = generator.generate_workload(
        "crossfilter", "flights", n_sessions=3, interactions_per_session=5
    )
    assert [len(session) for session in workload.sessions] == [5, 5, 5]
    # Crossfilter interactions are brush updates on one of three views.
    first = workload.sessions[0][0]
    assert any(key.startswith("brush_") for key in first)


def test_workload_static_template_has_empty_sessions():
    generator = WorkloadGenerator(seed=0)
    workload = generator.generate_workload("line_chart", "weather", n_sessions=2)
    assert workload.sessions == [[], []]


def test_workload_is_deterministic_per_seed():
    first = WorkloadGenerator(seed=5).generate_workload("interactive_histogram", "taxi", 2, 4)
    second = WorkloadGenerator(seed=5).generate_workload("interactive_histogram", "taxi", 2, 4)
    assert first.sessions == second.sessions
    third = WorkloadGenerator(seed=6).generate_workload("interactive_histogram", "taxi", 2, 4)
    assert first.sessions != third.sessions


def test_workload_invalid_parameters():
    with pytest.raises(BenchmarkError):
        WorkloadGenerator().generate_workload("line_chart", "weather", n_sessions=0)


# --------------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------------- #


def test_harness_measures_plans_and_builds_pairs():
    harness = BenchmarkHarness(seed=0)
    configuration = harness.configure(
        "interactive_histogram", "flights", 1_000, interactions_per_session=3
    )
    measurements = harness.measure_plans(configuration, max_sessions=1)
    assert len(measurements) == 4
    for measurement in measurements:
        session = measurement.sessions[0]
        assert len(session.episode_seconds) == 4  # init + 3 interactions
        assert len(session.episode_vectors) == 4
        assert session.total_seconds > 0
        assert set(session.breakdown) == {"client", "server", "network", "serialization"}
        assert "queries_executed" in session.engine_counters
        assert "plan_cache_hits" in session.engine_counters
        assert "groups_formed" in session.engine_counters

    # At least one candidate plan offloads grouping to the SQL backend.
    assert any(
        s.engine_counters["groups_formed"] > 0 for m in measurements for s in m.sessions
    )

    pairs = build_pair_dataset(*harness.initial_render_vectors(measurements))
    assert len(pairs) == 6  # C(4, 2)
    interaction_pairs = harness.interaction_dataset(measurements)
    assert len(interaction_pairs) == 24  # 4 episodes x C(4, 2)
    episodes = harness.episode_vector_matrix(measurements)
    assert len(episodes) == 4 and len(episodes[0]) == 4


def test_harness_plan_sampling_keeps_extremes():
    harness = BenchmarkHarness(seed=0)
    configuration = harness.configure("crossfilter", "flights", 500, interactions_per_session=1)
    sampled = harness.enumerate_plans(configuration, max_plans=8)
    assert len(sampled) == 8
    full = PlanEnumerator(configuration.spec).enumerate()
    assert sampled[0].plan_id == full[0].plan_id
    assert sampled[-1].plan_id == full[-1].plan_id
    with pytest.raises(BenchmarkError):
        harness.enumerate_plans(configuration, max_plans=1)


def test_harness_database_memoised_per_size():
    harness = BenchmarkHarness(seed=0)
    first = harness.database_for("flights", 700)
    second = harness.database_for("flights", 700)
    assert first is second
    assert first.table("flights").num_rows == 700


# --------------------------------------------------------------------------- #
# Experiments and reporting
# --------------------------------------------------------------------------- #


def test_table1_structure_and_shape():
    result = table1()
    assert len(result.rows_by_template) == 7
    by_name = {r.template: r for r in result.rows_by_template}
    # The crossfilter dashboard has by far the largest enumeration space,
    # and the single-view templates have the smallest (paper Table 1 shape).
    assert by_name["crossfilter"].n_plans == max(r.n_plans for r in result.rows_by_template)
    assert by_name["line_chart"].n_plans == min(r.n_plans for r in result.rows_by_template)
    assert by_name["interactive_histogram"].n_plans == 4
    assert all(r.n_pairs > 0 for r in result.rows_by_template)
    assert "crossfilter" in str(result)


def test_reporting_formatters():
    table = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]], title="demo")
    assert "demo" in table and "a" in table and "0.0010" in table
    mapping = format_mapping({"k": 1.0}, title="map")
    assert "k: 1" in mapping
