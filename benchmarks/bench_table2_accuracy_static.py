"""Table 2: pairwise model accuracy on initial-rendering plan pairs.

Expected shape (paper): Random Forest >= RankSVM > heuristic > random≈0.5.
"""

from repro.bench.experiments import table2


def test_table2_pairwise_accuracy_initial_rendering(
    benchmark, harness, measurement_set, bench_sizes
):
    result = benchmark.pedantic(
        table2,
        kwargs={"sizes": bench_sizes, "measurement_set": measurement_set, "harness": harness},
        rounds=1,
        iterations=1,
    )
    print("\n" + str(result))
    for size in bench_sizes:
        assert 0.3 <= result.by_model["random"][size] <= 0.7
        assert result.by_model["Random Forest"][size] > result.by_model["random"][size]
        assert result.by_model["RankSVM"][size] > result.by_model["random"][size]
