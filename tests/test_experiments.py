"""Smoke tests for the experiment runners (tiny configurations).

Full-scale runs live under ``benchmarks/``; these tests only verify that
every table/figure runner produces structurally correct output and that
the headline qualitative findings hold on miniature inputs.
"""

import numpy as np
import pytest

from repro.bench.experiments import (
    DEFAULT_MODEL_TEMPLATES,
    MeasurementSet,
    collect_measurements,
    figure6,
    figure7,
    figure8,
    figure9,
    fit_models,
    table2,
    table3,
    table4,
    table5,
)
from repro.bench.harness import BenchmarkHarness, PlanMeasurement, SessionMeasurement
from repro.core.comparators import train_comparator
from repro.core.encoder import PlanVector
from repro.core.plan import ExecutionPlan
from helpers import scaled_by_hand

SIZES = (800, 1600)
TEMPLATES = ("interactive_histogram", "heatmap_bar")


@pytest.fixture(scope="module")
def harness() -> BenchmarkHarness:
    return BenchmarkHarness(seed=0)


@pytest.fixture(scope="module")
def measurements(harness) -> MeasurementSet:
    return collect_measurements(
        harness, TEMPLATES, SIZES, interactions_per_session=3, max_plans=8
    )


def test_table2_accuracy_shape_and_random_baseline(harness, measurements):
    result = table2(sizes=SIZES, measurement_set=measurements, harness=harness)
    assert set(result.by_model) == {"RankSVM", "Random Forest", "heuristic", "random"}
    assert result.sizes() == list(SIZES)
    for by_size in result.by_model.values():
        for accuracy in by_size.values():
            assert 0.0 <= accuracy <= 1.0
    # The random model must hover around 0.5; learned models must beat it.
    for size in SIZES:
        assert 0.2 <= result.by_model["random"][size] <= 0.8
        assert result.by_model["Random Forest"][size] >= result.by_model["random"][size]
    assert "Table 2" in str(result)


def test_table3_selected_latency_bounded_by_optimal(harness, measurements):
    result = table3(sizes=SIZES, measurement_set=measurements, harness=harness)
    assert "optimal" in result.by_model
    for model, by_size in result.by_model.items():
        for size, seconds in by_size.items():
            assert seconds >= result.by_model["optimal"][size] - 1e-9
    assert "Table 3" in str(result)


def test_table4_interactive_accuracy(harness, measurements):
    result = table4(sizes=SIZES, measurement_set=measurements, harness=harness)
    assert set(result.by_model) == {"RankSVM", "Random Forest", "heuristic", "random"}
    for size in SIZES:
        assert result.by_model["RankSVM"][size] >= 0.4


def test_table5_consolidation(harness):
    result = table5(
        sizes=(800,), template_name="overview_detail", interactions_per_session=3, harness=harness
    )
    assert "optimal" in result.by_model
    for model in ("RankSVM", "Random Forest", "heuristic"):
        assert result.by_model[model][800] >= result.by_model["optimal"][800] - 1e-9
    assert "Table 5" in str(result)


def test_figure6_points(harness, measurements):
    result = figure6(sizes=SIZES, templates=TEMPLATES, measurement_set=measurements, harness=harness)
    assert result.points
    templates_seen = {t for t, _, _, _ in result.points}
    assert templates_seen == set(TEMPLATES)
    by_template = result.by_template()
    assert all(len(points) >= 2 for points in by_template.values())


def test_figure7_error_distribution(harness, measurements):
    result = figure7(
        size=SIZES[-1], templates=TEMPLATES, harness=harness, measurement_set=measurements
    )
    assert set(result.histograms) == {"RankSVM", "Random Forest", "heuristic", "random"}
    for counts in result.histograms.values():
        assert len(counts) == 10
    for mean_error in result.mean_scaled_error.values():
        assert 0.0 <= mean_error <= 1.0


def test_figure8_vegaplus_vs_vega(harness):
    result = figure8(
        size=8000,
        templates=("interactive_histogram",),
        interactions_per_session=3,
        harness=harness,
    )
    systems = {r["system"] for r in result.rows_data}
    assert systems == {"Vega", "VegaPlus"}
    # At this size the paper's shape holds: VegaPlus wins the session,
    # driven by a much cheaper initial rendering.
    assert result.speedup("interactive_histogram") > 1.0
    vega_row = next(r for r in result.rows_data if r["system"] == "Vega")
    plus_row = next(r for r in result.rows_data if r["system"] == "VegaPlus")
    assert plus_row["initial_seconds"] < vega_row["initial_seconds"]


def test_figure9_scaling_series(harness):
    result = figure9(
        sizes=(800,),
        large_sizes=(2000,),
        template_name="interactive_histogram",
        interactions_per_session=2,
        harness=harness,
    )
    systems = {r["system"] for r in result.rows_data}
    assert systems == {"Vega", "VegaFusion", "VegaPlus"}
    # Vega is dropped at the "large" size, mirroring the paper.
    assert all(r["size"] == 800 for r in result.rows_data if r["system"] == "Vega")
    vegaplus_series = result.series("VegaPlus", "initial_seconds")
    assert len(vegaplus_series) == 2
    assert DEFAULT_MODEL_TEMPLATES  # sanity: default config exposed


# --------------------------------------------------------------------------- #
# Learned-model picks read log-scaled features, not raw row counts
# --------------------------------------------------------------------------- #


def hand_built_measurements(n_plans=10, n_episodes=3, seed=1):
    """Plans whose latency is the log of a VDT cardinality spanning five
    orders of magnitude plus a fixed cost per client filter.  Fed raw row
    counts, a model fitted on log-scaled features lets the cardinality
    drown the filter count.  The seed is one where every raw pick below
    differs from the scaled one; the test asserts that it does."""
    rng = np.random.default_rng(seed)
    measurements = []
    for plan_id in range(n_plans):
        session = SessionMeasurement(plan=ExecutionPlan.from_mapping({"a": plan_id}, plan_id))
        for episode in range(n_episodes):
            vdt = 10.0 ** rng.uniform(1, 6)
            filters = float(rng.integers(0, 4))
            session.episode_vectors.append(
                PlanVector(
                    plan_id=plan_id,
                    counts={"vdt": 1.0, "filter": filters},
                    cardinalities={"vdt": vdt},
                    episode=episode,
                )
            )
            latency = 0.01 * np.log1p(vdt) + 0.05 * filters + rng.normal(0, 0.002)
            session.episode_seconds.append(float(latency))
        measurements.append(PlanMeasurement(plan=session.plan, sessions=[session]))
    return measurements


def session_scores(comparator, episodes, features):
    """Consolidated scores with every vector mapped by ``features`` first."""
    model = comparator.model
    total = np.zeros(len(episodes[0]))
    for vectors in episodes:
        rows = np.array([features(vector) for vector in vectors])
        if hasattr(model, "cost"):
            total -= model.cost(rows)
            continue
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                total[i if model.predict_pair(rows[i], rows[j]) == 1 else j] += 1
    return total


def pick(comparator, episodes, features):
    return int(np.argmax(session_scores(comparator, episodes, features)))


def raw(vector):
    return vector.to_array()


def test_tables_3_and_5_and_figure7_pick_on_scaled_features():
    measurements = hand_built_measurements()
    measurement_set = MeasurementSet(per_template_size={("hand_built", 100): measurements})
    vectors, latencies = BenchmarkHarness.initial_render_vectors(measurements)
    models = fit_models([measurements], use_interactions=False)

    selected = table3(sizes=(100,), measurement_set=measurement_set).by_model
    errors = figure7(size=100, measurement_set=measurement_set).mean_scaled_error
    for label in ("RankSVM", "Random Forest"):
        comparator = models[label][0]
        scaled = pick(comparator, [vectors], scaled_by_hand)
        assert scaled != pick(comparator, [vectors], raw)
        assert selected[label][100] == latencies[scaled]
        mistakes = [
            (max(a, b) - min(a, b)) / max(a, b)
            for i, a in enumerate(latencies)
            for j, b in enumerate(latencies[i + 1 :], start=i + 1)
            if comparator.model.predict_pair(scaled_by_hand(vectors[i]), scaled_by_hand(vectors[j]))
            != int(a < b)
        ]
        assert errors[label] == (float(np.mean(mistakes)) if mistakes else 0.0)

    class HandBuiltHarness(BenchmarkHarness):
        def configure(self, *args, **kwargs):
            return None

        def measure_plans(self, *args, **kwargs):
            return measurements

    consolidated = table5(sizes=(100,), harness=HandBuiltHarness()).by_model
    episodes = BenchmarkHarness.episode_vector_matrix(measurements)
    pairs = BenchmarkHarness.interaction_dataset(measurements)
    for kind, label in (("ranksvm", "RankSVM"), ("random_forest", "Random Forest")):
        comparator = train_comparator(kind, pairs).comparator
        scaled = pick(comparator, episodes, scaled_by_hand)
        assert scaled != pick(comparator, episodes, raw)
        assert consolidated[label][100] == measurements[scaled].sessions[0].total_seconds
