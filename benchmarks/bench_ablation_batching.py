"""Ablation: batching adjacent transforms into one nested SQL query.

Section 4 motivates rewriting a chain of transforms into a single nested
query ("batching") to avoid transferring intermediate results.  This
ablation compares the histogram pipeline executed as

* one batched bin+aggregate query (what VegaPlus emits), vs.
* a simulated unbatched strategy that materialises the binned rows on the
  client before aggregating there (split after ``bin``).

Expected: batching transfers orders of magnitude fewer bytes and is faster.
"""

from repro.bench.harness import BenchmarkHarness
from repro.core.enumerator import PlanEnumerator
from repro.core.system import VegaPlusSystem

SIZE = 20_000


def _run(system: VegaPlusSystem) -> tuple[float, int]:
    result = system.initialize()
    return result.total_seconds, result.breakdown.bytes_transferred


def test_batched_rewrite_vs_unbatched(benchmark, harness: BenchmarkHarness):
    configuration = harness.configure(
        "interactive_histogram", "flights", SIZE, interactions_per_session=0
    )
    plans = PlanEnumerator(configuration.spec).enumerate()
    batched_plan = max(plans, key=lambda p: p.total_server_transforms())
    # Split right after `bin`: bin output (full cardinality) crosses the wire.
    unbatched_plan = next(
        p for p in plans if p.split_for("binned") == 2
    )

    def run_batched():
        system = VegaPlusSystem(configuration.spec, configuration.database,
                                network=harness.network, enable_cache=False)
        system.use_plan(batched_plan)
        return _run(system)

    batched_seconds, batched_bytes = benchmark.pedantic(run_batched, rounds=1, iterations=1)

    system = VegaPlusSystem(configuration.spec, configuration.database,
                            network=harness.network, enable_cache=False)
    system.use_plan(unbatched_plan)
    unbatched_seconds, unbatched_bytes = _run(system)

    print(f"\nbatched:   {batched_seconds * 1000:8.1f} ms, {batched_bytes:>12,} bytes")
    print(f"unbatched: {unbatched_seconds * 1000:8.1f} ms, {unbatched_bytes:>12,} bytes")
    assert batched_bytes * 10 < unbatched_bytes
    assert batched_seconds < unbatched_seconds
