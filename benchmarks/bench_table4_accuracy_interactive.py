"""Table 4: pairwise model accuracy over interaction episodes.

Expected shape (paper): the learned models gain accuracy relative to the
static case (more training pairs), while the heuristic model — whose rules
are tailored to static dataflows — degrades on interaction episodes.
"""

from repro.bench.experiments import table4


def test_table4_pairwise_accuracy_interactions(
    benchmark, harness, measurement_set, bench_sizes
):
    result = benchmark.pedantic(
        table4,
        kwargs={"sizes": bench_sizes, "measurement_set": measurement_set, "harness": harness},
        rounds=1,
        iterations=1,
    )
    print("\n" + str(result))
    largest = bench_sizes[-1]
    assert 0.3 <= result.by_model["random"][largest] <= 0.7
    assert result.by_model["Random Forest"][largest] > result.by_model["random"][largest]
    assert result.by_model["RankSVM"][largest] > result.by_model["random"][largest]
