"""Table 3: initial-render latency of each model's selected plan vs optimal.

Expected shape (paper): the learned models and the heuristic land on plans
close to the optimum; the random model picks plans that are orders of
magnitude slower as the data grows.

A second cell times the one decision cardinality feedback changes: the
overview+detail pick of a fresh optimizer before and after one executed
session has recorded its VDTs' true row counts.
"""

import statistics

from repro.bench.experiments import table3
from repro.core import VegaPlusSystem
from repro.storage.statistics import CardinalityFeedback


def test_table3_selected_plan_latency(benchmark, harness, measurement_set, bench_sizes):
    result = benchmark.pedantic(
        table3,
        kwargs={"sizes": bench_sizes, "measurement_set": measurement_set, "harness": harness},
        rounds=1,
        iterations=1,
    )
    print("\n" + str(result))
    largest = bench_sizes[-1]
    optimal = result.by_model["optimal"][largest]
    for model in ("RankSVM", "Random Forest", "heuristic"):
        assert result.by_model[model][largest] >= optimal - 1e-9
        # Learned/heuristic picks stay within a small factor of optimal.
        assert result.by_model[model][largest] <= optimal * 20
    # The random model is markedly worse than the informed models.
    best_informed = min(result.by_model[m][largest] for m in ("RankSVM", "Random Forest", "heuristic"))
    assert result.by_model["random"][largest] >= best_informed


#: Alternating timed repetitions per plan in the feedback cell.  Single
#: runs spread by up to ~45 % on a loaded 2-core machine, but alternating
#: the plans exposes both to the same load: over six cells of nine repeats
#: the warmed median was 9-12 % below the cold one, so the 5 % slack in the
#: assertion leaves that whole margin for noise before it trips.
FEEDBACK_REPEATS = 9


def _cold_and_warmed_picks(harness, n_rows):
    """The overview+detail pick without feedback, and after one executed
    session has warmed a :class:`CardinalityFeedback` store, each timed
    over the same session with alternating ``measure_plan`` repeats."""
    config = harness.configure(
        "overview_detail", "flights", n_rows, n_sessions=1, interactions_per_session=5
    )
    session = config.sessions[0]

    def system(feedback=None):
        # Pick under the network and codec the picks are timed with.
        return VegaPlusSystem(
            config.spec,
            config.database,
            network=harness.network,
            codec=harness.codec,
            enable_cache=harness.enable_cache,
            feedback=feedback,
        )

    cold = system().optimize(session).plan
    feedback = CardinalityFeedback()
    warming = system(feedback)
    warming.use_plan(cold)
    warming.run_session(session)
    warmed = system(feedback).optimize(session).plan
    plans = [cold] if warmed == cold else [cold, warmed]
    seconds = {plan.plan_id: [] for plan in plans}
    for _ in range(FEEDBACK_REPEATS):
        for plan in plans:
            seconds[plan.plan_id].append(
                harness.measure_plan(config, plan, session).total_seconds
            )
    return {
        "cold_plan": cold.plan_id,
        "warmed_plan": warmed.plan_id,
        "cold_seconds": statistics.median(seconds[cold.plan_id]),
        "warmed_seconds": statistics.median(seconds[warmed.plan_id]),
    }


def test_table3_feedback_warmed_pick(benchmark, harness, backend_name):
    """Cardinality feedback's cell: the pick it moves must not be slower."""
    result = benchmark.pedantic(
        _cold_and_warmed_picks, args=(harness, 5_000), rounds=1, iterations=1
    )
    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info.update(result)
    print(
        f"\noverview_detail @5k: cold #{result['cold_plan']} "
        f"{result['cold_seconds']:.4f}s, warmed #{result['warmed_plan']} "
        f"{result['warmed_seconds']:.4f}s"
    )
    assert result["warmed_seconds"] <= result["cold_seconds"] * 1.05
