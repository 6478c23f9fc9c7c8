"""Tests for plan policies, incremental consolidation and the closed loop."""

import numpy as np
import pytest

from repro.backends import create_backend
from repro.bench.adaptive import (
    adaptive_dashboard_spec,
    build_interaction_script,
    make_event_rows,
)
from repro.core import (
    AdaptivePolicy,
    HeuristicComparator,
    IncrementalConsolidator,
    PlanVector,
    RankSVMComparator,
    StaticPolicy,
    VegaPlusSystem,
    consolidate_session,
)
from repro.core.encoder import FEATURE_OPERATOR_TYPES, feature_names, normalize_cardinalities
from repro.errors import OptimizationError
from repro.ml import RankSVM
from repro.net.channel import NetworkModel
from repro.server.feedback import FeedbackCollector
from helpers import reference_vector


# --------------------------------------------------------------------------- #
# IncrementalConsolidator
# --------------------------------------------------------------------------- #


def _vectors(cards):
    return [
        PlanVector(plan_id=i, counts={"vdt": 1.0}, cardinalities={"vdt": c})
        for i, c in enumerate(cards)
    ]


def _cost_comparator():
    """A fitted RankSVM whose cost is exactly the vdt cardinality."""
    model = RankSVM()
    weights = np.zeros(2 * len(FEATURE_OPERATOR_TYPES))
    weights[len(FEATURE_OPERATOR_TYPES) + FEATURE_OPERATOR_TYPES.index("vdt")] = 1.0
    model.weights_ = weights
    return RankSVMComparator(model)


def test_incremental_matches_one_shot_cost_kind():
    comparator = _cost_comparator()
    episodes = [_vectors([5.0, 1.0, 3.0]), _vectors([2.0, 4.0, 1.0])]
    one_shot = consolidate_session(comparator, episodes)
    incremental = IncrementalConsolidator(comparator, 3)
    for episode in episodes:
        decision = incremental.add_episode(episode)
    assert decision.best_plan_index == one_shot.best_plan_index
    assert decision.score_kind == one_shot.score_kind == "cost"
    assert np.allclose(decision.per_plan_score, one_shot.per_plan_score)


def test_incremental_matches_one_shot_wins_kind():
    comparator = HeuristicComparator()
    episodes = [_vectors([50.0, 1.0, 30.0]), _vectors([40.0, 2.0, 20.0])]
    one_shot = consolidate_session(comparator, episodes, episode_weights=[1.0, 2.0])
    incremental = IncrementalConsolidator(comparator, 3)
    incremental.add_episode(episodes[0], weight=1.0)
    incremental.add_episode(episodes[1], weight=2.0)
    decision = incremental.decision()
    assert decision.best_plan_index == one_shot.best_plan_index
    assert decision.score_kind == one_shot.score_kind == "wins"
    assert np.allclose(decision.per_plan_score, one_shot.per_plan_score)


def test_incremental_decision_revisable_as_episodes_arrive():
    comparator = _cost_comparator()
    incremental = IncrementalConsolidator(comparator, 2)
    first = incremental.add_episode(_vectors([1.0, 10.0]))
    assert first.best_plan_index == 0
    # Overwhelming later evidence flips the running decision.
    flipped = incremental.add_episode(_vectors([100.0, 1.0]))
    assert flipped.best_plan_index == 1


def test_incremental_consolidator_guards():
    comparator = HeuristicComparator()
    with pytest.raises(OptimizationError):
        IncrementalConsolidator(comparator, 0)
    incremental = IncrementalConsolidator(comparator, 2)
    with pytest.raises(OptimizationError):
        incremental.decision()
    with pytest.raises(OptimizationError):
        incremental.add_episode(_vectors([1.0, 2.0, 3.0]))


# --------------------------------------------------------------------------- #
# Policies on a live system
# --------------------------------------------------------------------------- #

#: Slow link so plan choice dominates latency (see bench/adaptive.py).
_NETWORK = NetworkModel(rtt_seconds=0.004, bandwidth_bytes_per_second=400_000.0)


def _latency_shaped_comparator():
    """Hand-built linear cost shaped like the bench latency landscape:
    transfers (vdt cardinality) are expensive, client operators carry a
    noticeable per-operator cost, client cardinalities a mild one."""
    model = RankSVM()
    weights = np.zeros(2 * len(FEATURE_OPERATOR_TYPES))
    names = feature_names()
    shaped = {
        "count_vdt": 0.3,
        "cardinality_vdt": 2.0,
        "count_filter": 0.3,
        "count_aggregate": 0.4,
        "count_collect": 0.1,
        "cardinality_filter": 0.3,
        "cardinality_aggregate": 0.3,
    }
    for name, value in shaped.items():
        weights[names.index(name)] = value
    model.weights_ = weights
    return RankSVMComparator(model)


@pytest.fixture()
def adaptive_backend():
    backend = create_backend("embedded", keep_query_log=False)
    backend.register_rows("events", make_event_rows(2_000, 600, seed=3))
    yield backend
    backend.close()


def _make_system(backend, policy):
    return VegaPlusSystem(
        adaptive_dashboard_spec("events"),
        backend,
        comparator=_latency_shaped_comparator(),
        network=_NETWORK,
        enable_cache=False,
        policy=policy,
    )


SELECTIVE = [{"threshold": 990 + i} for i in range(4)]
UNSELECTIVE = [{"threshold": 60 + 3 * i} for i in range(6)]


def test_static_policy_never_replans(adaptive_backend):
    system = _make_system(adaptive_backend, StaticPolicy())
    system.optimize(anticipated_interactions=SELECTIVE)
    initial_plan = system.plan
    system.initialize()
    for interaction in SELECTIVE + UNSELECTIVE:
        system.interact(interaction)
    assert system.plan == initial_plan
    assert system.replans == 0
    counters = system.policy.counters()
    assert counters["policy"] == "static"
    assert counters["episodes_observed"] == len(SELECTIVE) + len(UNSELECTIVE)


def test_adaptive_policy_replans_on_drift_and_preserves_results(adaptive_backend):
    # Caches are off in this fixture, so there are no free episodes to
    # guard against and the floor stays at zero.
    policy = AdaptivePolicy(
        regret_threshold=0.5,
        patience=1,
        cooldown=0,
        replan_window=3,
        horizon=10,
    )
    system = _make_system(adaptive_backend, policy)
    system.optimize(anticipated_interactions=SELECTIVE)
    initial_plan = system.plan
    # The shaped cost model offloads while transfers are cheap.
    assert not initial_plan.is_all_client()
    system.initialize()
    for interaction in SELECTIVE:
        system.interact(interaction)
    assert system.replans == 0  # stationary prefix: nothing to correct

    for interaction in UNSELECTIVE:
        system.interact(interaction)
    assert policy.replan_events, "drift never triggered a replan"
    assert system.replans >= 1
    assert system.plan != initial_plan
    kinds = [result.kind for result in system.history]
    assert "replan" in kinds

    # Adapting must not change results: a static run of the same session
    # ends on identical rows (order-insensitive, float-tolerant).
    baseline = _make_system(adaptive_backend, StaticPolicy())
    baseline.optimize(anticipated_interactions=SELECTIVE)
    baseline.initialize()
    for interaction in SELECTIVE + UNSELECTIVE:
        baseline.interact(interaction)

    def canonical(rows):
        out = []
        for row in rows:
            out.append(tuple(
                (k, round(v, 6) if isinstance(v, float) else v)
                for k, v in sorted(row.items())
            ))
        return sorted(out)

    assert canonical(system.dataset("summary")) == canonical(baseline.dataset("summary"))


def _replan_by_building_every_plan(policy, optimizer):
    """The replan decision computed the long way: one build per candidate,
    per-vector ``cost`` calls, no plan space and no batch scoring."""
    recent = list(policy._recent_interactions)
    episodes = [[] for _ in range(1 + len(recent))]
    for plan in policy._plans:
        built = optimizer.build(plan)
        built.dataflow.set_signal_values(dict(policy._signal_state))
        episodes[0].append(reference_vector(optimizer.encoder, built, plan.plan_id))
        for episode, interaction in enumerate(recent, start=1):
            episodes[episode].append(
                reference_vector(optimizer.encoder, built, plan.plan_id, episode, interaction)
            )
    weight = policy.horizon / max(len(recent), 1)
    scores = np.zeros(len(policy._plans))
    for episode in episodes[1:]:
        normalized = normalize_cardinalities(episode)
        scores += weight * np.array([optimizer.comparator.cost(v) for v in normalized])
    return policy._plans[int(np.argmin(scores))].plan_id


def test_replan_decisions_match_per_plan_builds_on_selectivity_shift(
    adaptive_backend, monkeypatch
):
    """fig11's ``selectivity_shift`` script, with live cardinality feedback:
    every replan lands on the plan the one-build-per-candidate path picks."""
    policy = AdaptivePolicy(
        regret_threshold=0.5, patience=1, cooldown=0, replan_window=4, horizon=12, max_replans=3
    )
    system = VegaPlusSystem(
        adaptive_dashboard_spec("events"),
        adaptive_backend,
        comparator=_latency_shaped_comparator(),
        network=_NETWORK,
        enable_cache=False,
        policy=policy,
        feedback=FeedbackCollector(),
    )
    script = build_interaction_script("selectivity_shift", 24, drift_at=8, user_index=0)
    expected = []
    replan = AdaptivePolicy._replan

    def checked_replan(self, observed, predicted):
        expected.append(_replan_by_building_every_plan(self, system.optimizer))
        return replan(self, observed, predicted)

    monkeypatch.setattr(AdaptivePolicy, "_replan", checked_replan)
    system.optimize(anticipated_interactions=script[:4])
    system.initialize()
    for interaction in script:
        system.interact(interaction)

    assert len(system.feedback.cardinality) > 0
    assert policy.replan_events and policy.replans >= 1
    assert [event.to_plan_id for event in policy.replan_events] == expected
    episodes = [event.episode for event in policy.replan_events]
    assert episodes == sorted(episodes) and episodes[0] > 8
    for before, after in zip(policy.replan_events, policy.replan_events[1:]):
        assert after.from_plan_id == before.to_plan_id


def test_switch_cost_charges_every_candidate_but_the_incumbent(adaptive_backend):
    policy = AdaptivePolicy(
        regret_threshold=0.5, patience=1, cooldown=0, replan_window=3, switch_cost_weight=1e6
    )
    system = _make_system(adaptive_backend, policy)
    system.optimize(anticipated_interactions=SELECTIVE)
    system.initialize()
    for interaction in SELECTIVE + UNSELECTIVE:
        system.interact(interaction)
    # Drift is noticed, but a prohibitive re-render cost keeps the plan.
    assert policy.replan_events
    assert not any(event.switched for event in policy.replan_events)
    assert system.replans == 0


def test_adaptive_policy_observe_requires_begin():
    policy = AdaptivePolicy()
    with pytest.raises(OptimizationError):
        policy.observe(PlanVector(plan_id=0), 0.1)


def test_adaptive_policy_parameter_guards():
    with pytest.raises(OptimizationError):
        AdaptivePolicy(regret_threshold=0.0)
    with pytest.raises(OptimizationError):
        AdaptivePolicy(patience=0)
    with pytest.raises(OptimizationError):
        AdaptivePolicy(calibration_alpha=0.0)
    with pytest.raises(OptimizationError):
        AdaptivePolicy(replan_window=0)


def test_max_replans_caps_switching(adaptive_backend):
    policy = AdaptivePolicy(
        regret_threshold=0.2,
        patience=1,
        cooldown=0,
        min_divergence_seconds=0.0,
        max_replans=0,
    )
    system = _make_system(adaptive_backend, policy)
    system.optimize(anticipated_interactions=SELECTIVE)
    system.initialize()
    for interaction in SELECTIVE + UNSELECTIVE:
        system.interact(interaction)
    assert system.replans == 0
    assert policy.replan_events == []


def test_use_plan_bypasses_policy(adaptive_backend):
    """Forced plans (baseline runs) must execute exactly as requested."""
    policy = AdaptivePolicy(regret_threshold=0.2, patience=1, cooldown=0)
    system = _make_system(adaptive_backend, policy)
    plans = system.optimizer.enumerate_plans()
    forced = plans[-1]
    system.use_plan(forced)
    system.initialize()
    for interaction in UNSELECTIVE:
        system.interact(interaction)
    assert system.plan == forced
    assert system.replans == 0


def test_system_stats_merges_subsystems(adaptive_backend):
    system = _make_system(adaptive_backend, StaticPolicy())
    system.optimize()
    system.initialize()
    stats = system.stats()
    assert stats["policy"]["policy"] == "static"
    assert "queries_executed" in stats["engine"]
    assert "server_hit_rate" in stats["cache"]
    assert stats["episodes"] == 1
    assert stats["replans"] == 0
    assert stats["session_seconds"] > 0
