"""Table 5: per-session latency of consolidated plan choices.

Uses the "Overview+Detail Chart With Bar Chart" template — the paper's
hardest case because it mixes interaction types and has a large plan space.
Expected shape: the RankSVM / Random Forest consolidated choices land near
the optimal session latency; the heuristic model's choice is markedly
slower because its win-counting favours frequent-but-cheap interactions.
"""

from repro.bench.experiments import table5


def test_table5_consolidated_session_latency(benchmark, harness):
    sizes = (2_000, 5_000)
    result = benchmark.pedantic(
        table5,
        kwargs={
            "sizes": sizes,
            "template_name": "overview_detail",
            "interactions_per_session": 5,
            "harness": harness,
        },
        rounds=1,
        iterations=1,
    )
    print("\n" + str(result))
    for size in sizes:
        optimal = result.by_model["optimal"][size]
        assert result.by_model["RankSVM"][size] >= optimal - 1e-9
        assert result.by_model["Random Forest"][size] >= optimal - 1e-9
        # Learned models stay within a reasonable factor of the optimum.
        assert result.by_model["Random Forest"][size] <= optimal * 25
