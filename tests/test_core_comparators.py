"""Tests for the pairwise comparators, training and consolidation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import comparators as comparators_module
from repro.core.comparators import (
    HeuristicComparator,
    PlanComparator,
    RandomComparator,
    RandomForestComparator,
    RankSVMComparator,
    build_pair_dataset,
    pairwise_outcomes,
    train_comparator,
)
from repro.core.consolidation import consolidate_session, downweight_initial_render
from repro.core.encoder import FEATURE_OPERATOR_TYPES, PlanVector
from repro.errors import OptimizationError
from repro.ml import RandomForestClassifier, RankSVM
from helpers import scaled_by_hand


def make_vectors(cardinalities):
    """Plan vectors whose total cardinality is given (one vdt each)."""
    return [
        PlanVector(plan_id=i, counts={"vdt": 1.0}, cardinalities={"vdt": float(c)})
        for i, c in enumerate(cardinalities)
    ]


# --------------------------------------------------------------------------- #
# Pair dataset construction
# --------------------------------------------------------------------------- #


def test_build_pair_dataset_labels_and_gaps():
    vectors = make_vectors([10, 1000])
    dataset = build_pair_dataset(vectors, [0.1, 2.0])
    assert len(dataset) == 1
    assert dataset.labels[0] == 1  # first plan is faster
    # The pair's feature gap is between learned features: log-scaled rows.
    assert dataset.differences[0].tolist() == (
        scaled_by_hand(vectors[0]) - scaled_by_hand(vectors[1])
    ).tolist()


def test_build_pair_dataset_requires_two_plans():
    with pytest.raises(OptimizationError):
        build_pair_dataset(make_vectors([1]), [0.1])
    with pytest.raises(OptimizationError):
        build_pair_dataset(make_vectors([1, 2]), [0.1])


# --------------------------------------------------------------------------- #
# Heuristic comparator rules
# --------------------------------------------------------------------------- #


def test_heuristic_prefers_smaller_cardinality():
    comparator = HeuristicComparator(alpha=1.5)
    small, large = make_vectors([10, 10_000])
    assert comparator.compare(small, large) == 1
    assert comparator.compare(large, small) == 0
    assert comparator.select_best([large, small]) == 1


def test_heuristic_tie_break_by_client_aggregates():
    comparator = HeuristicComparator()
    with_aggregate = PlanVector(
        plan_id=0, counts={"vdt": 1, "aggregate": 1}, cardinalities={"vdt": 100.0}
    )
    without_aggregate = PlanVector(
        plan_id=1, counts={"vdt": 1, "filter": 1}, cardinalities={"vdt": 100.0}
    )
    assert comparator.compare(with_aggregate, without_aggregate) == 1


def test_heuristic_tie_break_by_fewer_client_operators():
    comparator = HeuristicComparator()
    lean = PlanVector(plan_id=0, counts={"vdt": 1, "filter": 1}, cardinalities={"vdt": 10.0})
    busy = PlanVector(
        plan_id=1, counts={"vdt": 1, "filter": 3}, cardinalities={"vdt": 10.0}
    )
    assert comparator.compare(lean, busy) == 1


def test_heuristic_tie_break_by_offloading_and_stability():
    comparator = HeuristicComparator()
    more_vdts = PlanVector(plan_id=0, counts={"vdt": 2}, cardinalities={"vdt": 10.0})
    fewer_vdts = PlanVector(plan_id=1, counts={"vdt": 1}, cardinalities={"vdt": 10.0})
    assert comparator.compare(more_vdts, fewer_vdts) == 1
    identical = PlanVector(plan_id=2, counts={"vdt": 1}, cardinalities={"vdt": 10.0})
    assert comparator.compare(fewer_vdts, identical) == 1  # stable tie-break


def test_heuristic_invalid_alpha():
    with pytest.raises(OptimizationError):
        HeuristicComparator(alpha=0.5)


# --------------------------------------------------------------------------- #
# Random comparator
# --------------------------------------------------------------------------- #


def test_random_comparator_is_seeded_and_roughly_uniform():
    comparator = RandomComparator(seed=3)
    first, second = make_vectors([1, 2])
    outcomes = [comparator.compare(first, second) for _ in range(200)]
    assert 0.3 < np.mean(outcomes) < 0.7
    again = RandomComparator(seed=3)
    assert [again.compare(first, second) for _ in range(200)] == outcomes
    with pytest.raises(OptimizationError):
        comparator.select_best([])


# --------------------------------------------------------------------------- #
# Learned comparators
# --------------------------------------------------------------------------- #


def synthetic_training_set(n_plans: int = 12, seed: int = 0):
    """Plans whose latency grows with their total cardinality."""
    rng = np.random.default_rng(seed)
    cardinalities = rng.uniform(1, 10_000, size=n_plans)
    vectors = make_vectors(cardinalities)
    latencies = [0.001 * c + rng.normal(0, 0.05) for c in cardinalities]
    return vectors, latencies


def test_ranksvm_comparator_learns_cardinality_rule():
    vectors, latencies = synthetic_training_set()
    dataset = build_pair_dataset(vectors, latencies)
    comparator = RankSVMComparator().fit(dataset)
    best = comparator.select_best(vectors)
    assert latencies[best] <= sorted(latencies)[2]  # among the fastest plans
    assert comparator.cost(vectors[best]) is not None
    assert comparator.feature_weights().shape[0] == len(vectors[0].to_array())


def test_random_forest_comparator_learns_and_votes():
    vectors, latencies = synthetic_training_set()
    dataset = build_pair_dataset(vectors, latencies)
    comparator = RandomForestComparator().fit(dataset)
    best = comparator.select_best(vectors)
    assert latencies[best] <= sorted(latencies)[3]
    assert comparator.cost(vectors[0]) is None  # rank-only model


def test_train_comparator_reports_accuracy():
    vectors, latencies = synthetic_training_set(n_plans=16)
    dataset = build_pair_dataset(vectors, latencies)
    for kind in ("ranksvm", "random_forest"):
        report = train_comparator(kind, dataset, seed=0)
        assert 0.0 <= report.test_accuracy <= 1.0
        assert report.n_pairs == len(dataset)
    svm = train_comparator("ranksvm", dataset, seed=0)
    outcomes = list(pairwise_outcomes(RandomComparator(seed=0), vectors, latencies))
    random_accuracy = np.mean([predicted == truth for predicted, truth, _, _ in outcomes])
    assert svm.test_accuracy > random_accuracy
    # Training-free comparators are built directly, not trained.
    for kind in ("heuristic", "random", "neural"):
        with pytest.raises(OptimizationError):
            train_comparator(kind, dataset)


def test_pairwise_outcomes_walk_every_pair_in_order():
    vectors = make_vectors([300, 10, 20])
    latencies = [0.3, 0.1, 0.2]
    outcomes = list(pairwise_outcomes(HeuristicComparator(), vectors, latencies))
    assert outcomes == [(0, 0, 0.3, 0.1), (0, 0, 0.3, 0.2), (1, 1, 0.1, 0.2)]


@pytest.mark.parametrize("kind", ["ranksvm", "random_forest"])
def test_learned_comparators_scale_raw_vectors_themselves(kind):
    vectors, latencies = synthetic_training_set()
    comparator = train_comparator(kind, build_pair_dataset(vectors, latencies)).comparator
    later, _ = synthetic_training_set(seed=1)
    model = comparator.model
    n = len(vectors)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def literal_wins(episode):
        rows = [scaled_by_hand(vector) for vector in episode]
        wins = np.zeros(n)
        for i, j in pairs:
            wins[i if model.predict_pair(rows[i], rows[j]) == 1 else j] += 1
        return wins

    rows = [scaled_by_hand(vector) for vector in vectors]
    assert [comparator.compare(vectors[i], vectors[j]) for i, j in pairs] == [
        model.predict_pair(rows[i], rows[j]) for i, j in pairs
    ]
    wins = literal_wins(vectors)
    assert comparator.wins(vectors).tolist() == wins.tolist()
    if kind == "ranksvm":
        costs = model.cost(np.array(rows))
        later_costs = model.cost(np.array([scaled_by_hand(vector) for vector in later]))
        assert comparator.costs(vectors).tolist() == costs.tolist()
        assert [comparator.cost(vector) for vector in vectors] == costs.tolist()
        assert comparator.select_best(vectors) == int(np.argmin(costs))
        session = costs + later_costs
    else:
        assert comparator.costs(vectors) is None
        assert comparator.select_best(vectors) == int(np.argmax(wins))
        session = wins + literal_wins(later)
    decision = consolidate_session(comparator, [vectors, later])
    assert decision.per_plan_score == session.tolist()


# --------------------------------------------------------------------------- #
# Batch tournament / costs vs the pairwise definition
# --------------------------------------------------------------------------- #

_CLIENT_TYPES = ("filter", "aggregate", "joinaggregate", "collect")


@st.composite
def plan_vector_lists(draw):
    """Vector lists shaped like a plan space: few distinct vectors, many
    duplicates, totals inside each other's alpha band (a ~ b ~ c yet a
    beats c, so the tournament is not a sort), and all-equal sets."""
    n_distinct = draw(st.integers(1, 6))
    base = draw(st.sampled_from([0.0, 1.0, 40.0, 5_000.0]))
    distinct = []
    for _ in range(n_distinct):
        # Steps of 0.3-0.45x chain several totals inside alpha = 1.5.
        total = base * draw(st.sampled_from([1.0, 1.3, 1.45, 1.8, 2.4, 10.0]))
        counts = {"vdt": float(draw(st.integers(0, 3)))}
        for op_type in draw(st.lists(st.sampled_from(_CLIENT_TYPES), max_size=3)):
            counts[op_type] = counts.get(op_type, 0.0) + 1.0
        split = draw(st.floats(0.0, 1.0))
        distinct.append((counts, {"vdt": total * split, "aggregate": total * (1.0 - split)}))
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1, max_size=24))
    return [
        PlanVector(plan_id=i, counts=dict(distinct[p][0]), cardinalities=dict(distinct[p][1]))
        for i, p in enumerate(picks)
    ]


def _fitted_models():
    rng = np.random.default_rng(11)
    differences = rng.normal(size=(200, 26))
    labels = (differences @ rng.normal(size=26) < 0).astype(int)
    forest = RandomForestClassifier(n_estimators=7, max_depth=5, seed=0)
    return (
        RandomForestComparator(forest.fit(differences, labels)),
        RankSVMComparator(RankSVM(seed=0, epochs=10).fit(differences, labels)),
    )


_FOREST, _SVM = _fitted_models()


_differential = settings(max_examples=40, deadline=None)


@given(plan_vector_lists())
@_differential
def test_heuristic_wins_equal_the_pairwise_loop(vectors):
    comparator = HeuristicComparator()
    assert comparator.wins(vectors).tolist() == PlanComparator.wins(comparator, vectors).tolist()


@given(plan_vector_lists())
@_differential
def test_random_forest_wins_equal_the_pairwise_loop(vectors):
    assert _FOREST.wins(vectors).tolist() == PlanComparator.wins(_FOREST, vectors).tolist()
    assert _FOREST.select_best(vectors) == int(np.argmax(PlanComparator.wins(_FOREST, vectors)))


def test_heuristic_alpha_band_is_not_transitive_and_ties_go_to_the_first():
    a, b, c = make_vectors([100, 140, 190])
    comparator = HeuristicComparator(alpha=1.5)
    # a ~ b and b ~ c fall through to the stable tie-break, yet a beats c.
    assert [comparator.compare(a, b), comparator.compare(b, a)] == [1, 1]
    assert [comparator.compare(b, c), comparator.compare(c, b)] == [1, 1]
    assert [comparator.compare(a, c), comparator.compare(c, a)] == [1, 0]
    for order in ([a, b, c], [c, b, a], [b, c, a, b, a, c]):
        assert comparator.wins(order).tolist() == PlanComparator.wins(comparator, order).tolist()
    assert comparator.wins([c, b, a]).tolist() == [1.0, 1.0, 1.0]


def test_round_robin_blocks_do_not_change_the_result(monkeypatch):
    rng = np.random.default_rng(2)
    vectors = make_vectors(rng.choice([10.0, 13.0, 18.0, 400.0, 9_000.0], size=60))
    comparator = HeuristicComparator()
    whole = comparator.wins(vectors)
    monkeypatch.setattr(comparators_module, "_PAIR_BLOCK", 16)  # 3-plan blocks
    assert comparator.wins(vectors).tolist() == whole.tolist()
    assert whole.tolist() == PlanComparator.wins(comparator, vectors).tolist()


@given(plan_vector_lists())
@_differential
def test_ranksvm_batch_costs_match_per_vector_cost(vectors):
    single = np.array([_SVM.cost(v) for v in vectors])
    batch = _SVM.costs(vectors)
    # Equal vectors tie exactly wherever they sit in the batch, so ties
    # resolve to the same plan whichever way the costs were computed.
    assert batch.tolist() == single.tolist()
    assert _SVM.select_best(vectors) == int(np.argmin(single))


def test_best_plan_indices_are_plain_ints():
    vectors = make_vectors([500, 10, 10_000])
    for comparator in (HeuristicComparator(), _SVM, _FOREST):
        assert type(comparator.select_best(vectors)) is int
        decision = consolidate_session(comparator, [vectors])
        assert type(decision.best_plan_index) is int
    assert HeuristicComparator().select_best(vectors) == 1


def test_random_comparator_keeps_its_draw_sequence_through_consolidation():
    vectors = make_vectors([1, 2, 3, 4])
    decision = consolidate_session(RandomComparator(seed=5), [vectors])
    rng = np.random.default_rng(5)
    wins = [0.0] * 4
    for i in range(4):
        for j in range(i + 1, 4):
            wins[i if int(rng.integers(0, 2)) == 1 else j] += 1
    assert decision.per_plan_score == wins


def test_consolidation_costs_each_vector_once_per_episode():
    calls = []

    class CountingCost(PlanComparator):
        def cost(self, vector):
            calls.append(vector.plan_id)
            return vector.total_cardinality

    vectors = make_vectors([5, 1, 3])
    assert consolidate_session(CountingCost(), [vectors]).best_plan_index == 1
    assert calls == [0, 1, 2]
    calls.clear()
    consolidate_session(CountingCost(), [vectors, vectors])
    assert calls == [0, 1, 2, 0, 1, 2]


# --------------------------------------------------------------------------- #
# Consolidation across interactions
# --------------------------------------------------------------------------- #


def test_consolidation_with_cost_model_sums_costs():
    vectors, latencies = synthetic_training_set(n_plans=6)
    dataset = build_pair_dataset(vectors, latencies)
    comparator = RankSVMComparator().fit(dataset)
    episodes = [vectors, vectors, vectors]
    decision = consolidate_session(comparator, episodes)
    assert decision.score_kind == "cost"
    assert decision.best_plan_index == comparator.select_best(vectors)
    assert len(decision.per_plan_score) == 6


def test_consolidation_with_wins_counts():
    comparator = HeuristicComparator()
    episode_one = make_vectors([10, 10_000, 500])
    episode_two = make_vectors([20, 9_000, 800])
    decision = consolidate_session(comparator, [episode_one, episode_two])
    assert decision.score_kind == "wins"
    assert decision.best_plan_index == 0


def test_consolidation_weights_shift_decision():
    comparator = HeuristicComparator()
    # Plan 0 wins episode 0 by a lot; plan 1 wins episode 1.
    episode_zero = make_vectors([10, 10_000])
    episode_one = make_vectors([10_000, 10])
    uniform = consolidate_session(comparator, [episode_zero, episode_one, episode_one])
    assert uniform.best_plan_index == 1
    weighted = consolidate_session(
        comparator, [episode_zero, episode_one, episode_one], episode_weights=[10.0, 1.0, 1.0]
    )
    assert weighted.best_plan_index == 0


def test_consolidation_validation_errors():
    comparator = HeuristicComparator()
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [])
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [[]])
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [make_vectors([1, 2]), make_vectors([1])])
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [make_vectors([1, 2])], episode_weights=[1.0, 2.0])


def _vdt_cost_comparator():
    """A fitted RankSVM whose cost is the vdt cardinality on the learned log scale."""
    model = RankSVM()
    weights = np.zeros(2 * len(FEATURE_OPERATOR_TYPES))
    weights[len(FEATURE_OPERATOR_TYPES) + FEATURE_OPERATOR_TYPES.index("vdt")] = 1.0
    model.weights_ = weights
    return RankSVMComparator(model)


def test_incremental_matches_one_shot_cost_kind():
    """One call scores what summing each episode's costs as it arrives does."""
    comparator = _vdt_cost_comparator()
    episodes = [make_vectors([5.0, 1.0, 3.0]), make_vectors([2.0, 4.0, 1.0])]
    one_shot = consolidate_session(comparator, episodes)
    running = np.zeros(3)
    for episode in episodes:
        running += comparator.costs(episode)
    assert one_shot.score_kind == "cost"
    assert one_shot.per_plan_score == running.tolist()
    assert one_shot.best_plan_index == int(np.argmin(running))


def test_incremental_matches_one_shot_wins_kind():
    comparator = HeuristicComparator()
    episodes = [make_vectors([50.0, 1.0, 30.0]), make_vectors([40.0, 2.0, 20.0])]
    one_shot = consolidate_session(comparator, episodes, episode_weights=[1.0, 2.0])
    running = 1.0 * comparator.wins(episodes[0]) + 2.0 * comparator.wins(episodes[1])
    assert one_shot.score_kind == "wins"
    assert one_shot.per_plan_score == running.tolist()
    assert one_shot.best_plan_index == int(np.argmax(running))


def test_incremental_decision_revisable_as_episodes_arrive():
    comparator = _vdt_cost_comparator()
    first = make_vectors([1.0, 10.0])
    assert consolidate_session(comparator, [first]).best_plan_index == 0
    # Overwhelming later evidence flips the decision.
    later = make_vectors([100.0, 1.0])
    assert consolidate_session(comparator, [first, later]).best_plan_index == 1


def test_downweight_initial_render_weights():
    weights = downweight_initial_render(4, factor=0.25)
    assert weights == [0.25, 1.0, 1.0, 1.0]
    with pytest.raises(OptimizationError):
        downweight_initial_render(0)
