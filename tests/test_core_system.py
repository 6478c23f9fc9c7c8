"""End-to-end tests of VegaPlusSystem, the optimizer facade and baselines."""

import gc
import weakref

import pytest

from repro.baselines import VegaFusionSystem, VegaNativeSystem
from repro.core import HeuristicComparator, VegaPlusOptimizer, VegaPlusSystem
from repro.core.enumerator import PlanEnumerator
from repro.errors import OptimizationError
from repro.net import MiddlewareServer, NetworkModel
from repro.storage.statistics import CardinalityFeedback


INTERACTIONS = [{"maxbins": 30}, {"min_delay": 100}, {"maxbins": 15}]


# --------------------------------------------------------------------------- #
# Optimizer facade
# --------------------------------------------------------------------------- #


def test_optimizer_enumerates_and_chooses_offloaded_plan(histogram_spec, flights_db):
    middleware = MiddlewareServer(flights_db)
    optimizer = VegaPlusOptimizer(histogram_spec, middleware, HeuristicComparator())
    plans = optimizer.enumerate_plans()
    assert len(plans) == 5
    result = optimizer.choose_plan(anticipated_interactions=INTERACTIONS)
    assert result.n_candidates == 5
    assert result.decision is not None
    # For 500 rows with a lean histogram pipeline, offloading everything is
    # the expected heuristic choice (tiny result vs full table transfer).
    assert result.plan.split_for("binned") >= 3


def test_optimizer_encode_candidates_episode_structure(histogram_spec, flights_db):
    middleware = MiddlewareServer(flights_db)
    optimizer = VegaPlusOptimizer(histogram_spec, middleware)
    plans = optimizer.enumerate_plans()
    episodes = optimizer.encode_candidates(plans, [{"maxbins": 30}])
    assert len(episodes) == 2  # initial render + one interaction
    assert len(episodes[0]) == len(plans)
    with pytest.raises(OptimizationError):
        optimizer.encode_candidates([])


# --------------------------------------------------------------------------- #
# VegaPlusSystem
# --------------------------------------------------------------------------- #


def test_system_requires_plan_before_execution(histogram_spec, flights_db):
    system = VegaPlusSystem(histogram_spec, flights_db)
    with pytest.raises(OptimizationError):
        system.initialize()


def test_system_end_to_end_session(histogram_spec, flights_db, flights_rows):
    system = VegaPlusSystem(histogram_spec, flights_db)
    system.optimize(anticipated_interactions=INTERACTIONS)
    results = system.run_session(INTERACTIONS)
    assert len(results) == 4
    assert results[0].kind == "initial"
    assert all(r.kind == "interaction" for r in results[1:])
    assert system.session_seconds() == pytest.approx(
        sum(r.total_seconds for r in results)
    )
    binned = system.dataset("binned")
    # After the last interaction (maxbins=15, min_delay=100) the histogram
    # only covers delays >= 100.
    expected = sum(1 for r in flights_rows if r["delay"] is not None and r["delay"] >= 100)
    assert sum(r["count"] for r in binned) == expected
    assert "plan#" in system.describe_plan()


def test_system_breakdown_components(histogram_spec, flights_db):
    system = VegaPlusSystem(histogram_spec, flights_db)
    system.use_plan(PlanEnumerator(system.spec).all_server_plan())
    result = system.initialize()
    breakdown = result.breakdown
    assert breakdown.total_seconds == pytest.approx(
        breakdown.client_seconds
        + breakdown.server_seconds
        + breakdown.network_seconds
        + breakdown.serialization_seconds
    )
    assert breakdown.server_seconds > 0
    assert breakdown.network_seconds > 0


def test_system_results_equivalent_across_plans(histogram_spec, flights_db):
    """The chosen partitioning must not change what the user sees."""
    reference = None
    for split in (0, 2, 4):
        system = VegaPlusSystem(histogram_spec, flights_db)
        system.use_plan(
            next(
                p
                for p in PlanEnumerator(system.spec).enumerate()
                if p.split_for("binned") == split
            )
        )
        system.initialize()
        system.interact({"maxbins": 25})
        binned = {
            (round(r["bin0"], 6), r["count"]) for r in system.dataset("binned")
        }
        if reference is None:
            reference = binned
        else:
            assert binned == reference


def test_system_retains_no_earlier_responses(histogram_spec, flights_db):
    """A pass's results keep no ``QueryResponse`` (nor its result) alive:
    its breakdown sums them, and the next pass drops them."""
    system = VegaPlusSystem(histogram_spec, flights_db, enable_cache=False)
    system.use_plan(PlanEnumerator(system.spec).all_server_plan())
    served = []
    execute = system.middleware.execute

    def recording(sql):
        response = execute(sql)
        served.append(weakref.ref(response))
        return response

    system.middleware.execute = recording
    first = system.initialize()
    initial = list(served)
    system.interact({"maxbins": 30})
    system.interact({"maxbins": 20})
    gc.collect()
    assert initial and len(served) > len(initial)
    assert all(ref() is None for ref in initial)
    assert first.breakdown.server_seconds > 0
    assert first.breakdown.bytes_transferred > 0


def test_system_cache_statistics_exposed(histogram_spec, flights_db):
    system = VegaPlusSystem(histogram_spec, flights_db)
    system.optimize()
    system.initialize()
    system.interact({"maxbins": 30})
    system.interact({"maxbins": 20})
    system.interact({"maxbins": 30})
    middleware = system.middleware
    assert middleware.stats.queries_executed >= 1
    assert middleware.client_cache.stats.hit_rate >= 0.0
    assert middleware.client_cache.stats.hits > 0  # maxbins 30 repeats


def test_system_counters_reach_every_subsystem(histogram_spec, flights_db):
    feedback = CardinalityFeedback()
    system = VegaPlusSystem(histogram_spec, flights_db, feedback=feedback)
    before = flights_db.stats()["queries_executed"]
    system.optimize()
    system.initialize()
    assert flights_db.stats()["queries_executed"] > before
    assert "hit_rate" in system.middleware.server_cache.stats.snapshot()
    assert len(system.history) == 1
    assert system.session_seconds() > 0
    assert feedback.stats.observations > 0


# --------------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------------- #


def test_native_vega_is_all_client(histogram_spec, flights_db):
    system = VegaNativeSystem(histogram_spec, flights_db)
    assert system.plan is not None and system.plan.total_server_transforms() == 0
    assert system.optimize() is None
    results = system.run_session(INTERACTIONS[:1])
    assert len(results) == 2
    # The all-client plan pays the raw-table transfer on initial render.
    assert results[0].breakdown.network_seconds > results[1].breakdown.network_seconds


def test_vegafusion_is_all_server(histogram_spec, flights_db):
    system = VegaFusionSystem(histogram_spec, flights_db)
    all_server = PlanEnumerator(system.spec).all_server_plan()
    assert system.plan is not None and system.plan.assignment == all_server.assignment
    assert system.optimize() is None
    results = system.run_session(INTERACTIONS[:1])
    assert len(results) == 2


def test_vegaplus_not_slower_than_native_on_larger_data(histogram_spec):
    from repro.datasets import generate_dataset
    from repro.sql import Database

    rows = generate_dataset("flights", 20_000, seed=11)
    db = Database()
    db.register_rows("flights", rows)
    network = NetworkModel.lan()

    plus = VegaPlusSystem(histogram_spec, db, network=network)
    plus.optimize(anticipated_interactions=INTERACTIONS)
    plus.run_session(INTERACTIONS)

    native = VegaNativeSystem(histogram_spec, db, network=network)
    native.run_session(INTERACTIONS)

    assert plus.session_seconds() < native.session_seconds()
