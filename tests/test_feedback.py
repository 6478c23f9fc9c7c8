"""Tests for cardinality feedback: the store, its shape keys, and the one
decision it changes."""

import threading

import pytest

from repro.bench.harness import BenchmarkHarness
from repro.core import VegaPlusSystem, vdt_shape_key
from repro.storage.statistics import (
    FEEDBACK_ALPHA,
    FEEDBACK_CONFIDENCE,
    CardinalityFeedback,
)


# --------------------------------------------------------------------------- #
# CardinalityFeedback
# --------------------------------------------------------------------------- #


def test_cardinality_feedback_ewma_and_blend():
    feedback = CardinalityFeedback()
    assert feedback.correct("k", 10.0) == 10.0  # unobserved: estimate unchanged
    feedback.observe("k", 100.0)
    feedback.observe("k", 200.0)
    ewma = FEEDBACK_ALPHA * 200.0 + (1.0 - FEEDBACK_ALPHA) * 100.0
    assert feedback._shapes["k"].ewma_rows == pytest.approx(ewma)
    weight = 2 / (2 + FEEDBACK_CONFIDENCE)
    assert feedback.correct("k", 10.0) == pytest.approx((1 - weight) * 10.0 + weight * ewma)
    # A heavily observed shape is trusted almost entirely.
    for _ in range(50):
        feedback.observe("hot", 300.0)
    assert feedback.correct("hot", 1.0) == pytest.approx(300.0, rel=0.05)
    assert feedback.stats.shapes_tracked == 2
    assert feedback.stats.observations == 52


def test_cardinality_feedback_thread_safety():
    feedback = CardinalityFeedback()
    n_threads, per_thread = 8, 200

    def worker(index):
        for i in range(per_thread):
            feedback.observe(f"shape-{index % 4}", float(i))
            feedback.correct(f"shape-{index % 4}", 1.0)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert feedback.stats.observations == n_threads * per_thread
    assert feedback.stats.shapes_tracked == 4


# --------------------------------------------------------------------------- #
# Shape keys
# --------------------------------------------------------------------------- #


def test_vdt_shape_key_structural():
    transforms = [
        {"type": "filter", "expr": "datum.value >= 990"},
        {"type": "aggregate", "groupby": ["category"], "ops": ["count"], "as": ["n"]},
    ]
    drifted = [
        {"type": "filter", "expr": "datum.value >= 62.5"},
        {"type": "aggregate", "groupby": ["category"], "ops": ["count"], "as": ["n"]},
    ]
    assert vdt_shape_key("events", transforms) == vdt_shape_key("events", drifted)
    assert vdt_shape_key("events", transforms) != vdt_shape_key("other", transforms)
    other_group = [dict(transforms[0]), {**transforms[1], "groupby": ["region"]}]
    assert vdt_shape_key("events", transforms) != vdt_shape_key("events", other_group)


# --------------------------------------------------------------------------- #
# The decision feedback changes
# --------------------------------------------------------------------------- #


def test_warmed_feedback_moves_the_overview_detail_pick():
    """One executed session's VDT row counts make a fresh system pick a
    different overview+detail plan than the same system without them."""
    harness = BenchmarkHarness(seed=0)
    config = harness.configure(
        "overview_detail", "flights", 5_000, n_sessions=1, interactions_per_session=5
    )
    session = config.sessions[0]
    cold = VegaPlusSystem(config.spec, config.database).optimize(session).plan

    feedback = CardinalityFeedback()
    warming = VegaPlusSystem(config.spec, config.database, feedback=feedback)
    assert warming.optimize(session).plan == cold  # an empty store changes nothing
    warming.run_session(session)
    assert feedback.stats.shapes_tracked > 0

    warmed = VegaPlusSystem(config.spec, config.database, feedback=feedback)
    warmed_plan = warmed.optimize(session).plan
    assert (cold.plan_id, warmed_plan.plan_id) == (28, 19)
