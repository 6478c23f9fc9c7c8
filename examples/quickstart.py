"""Quickstart: optimize and run an interactive histogram with VegaPlus.

This is the paper's running example (Figure 1): a histogram over the
flights dataset whose bin count is driven by a slider and whose binned
field is driven by a drop-down menu.  The script:

1. generates a synthetic flights table and registers it with the embedded
   SQL engine (the stand-in for DuckDB/PostgreSQL),
2. builds the histogram dashboard from the benchmark template,
3. lets the VegaPlus optimizer pick a client/server execution plan,
4. runs an initial rendering plus a few interactions and prints the
   latency breakdown of every step.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import Database, VegaPlusSystem
from repro.bench.templates import interactive_histogram
from repro.datasets import generate_dataset
from repro.datasets.generators import get_schema

N_ROWS = 100_000


def main() -> None:
    print(f"Generating {N_ROWS:,} synthetic flight records...")
    rows = generate_dataset("flights", N_ROWS, seed=42)
    database = Database()
    database.register_rows("flights", rows)

    template = interactive_histogram()
    bound = template.bind("flights", get_schema("flights"), fields={"value": "delay"})
    print(f"Dashboard: {template.name} binned on {bound.fields['value']!r}")

    system = VegaPlusSystem(bound.spec, database)
    anticipated = [{"maxbins": 40}, {"maxbins": 80}, {"bin_field": "distance"}]
    optimization = system.optimize(anticipated_interactions=anticipated)
    print(f"Optimizer considered {optimization.n_candidates} plans "
          f"and chose: {system.describe_plan()}")

    results = system.run_session(anticipated)
    for result in results:
        breakdown = result.breakdown
        print(
            f"  {result.kind:<11} {result.total_seconds * 1000:8.1f} ms "
            f"(client {breakdown.client_seconds * 1000:6.1f} | "
            f"server {breakdown.server_seconds * 1000:6.1f} | "
            f"network {breakdown.network_seconds * 1000:6.1f} | "
            f"codec {breakdown.serialization_seconds * 1000:6.1f})"
        )

    histogram = system.dataset("binned")
    print(f"\nFinal histogram has {len(histogram)} bars; first three:")
    for row in histogram[:3]:
        print(f"  {row}")
    print(f"\nTotal session latency: {system.session_seconds() * 1000:.1f} ms")
    middleware = system.middleware
    print(
        f"Cache hit rates: client {middleware.client_cache.stats.hit_rate:.2f}, "
        f"server {middleware.server_cache.stats.hit_rate:.2f}; "
        f"backend executions: {middleware.stats.queries_executed:.0f}"
    )


if __name__ == "__main__":
    main()
