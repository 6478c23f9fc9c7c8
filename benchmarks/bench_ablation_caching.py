"""Ablation: the two-level query result cache (Section 5.5).

Runs an interaction session that revisits earlier slider positions — the
"repetition in user interaction behaviors" the cache is designed for —
with the cache enabled and disabled.

Expected: with the cache on, repeated interactions are served from the
client/middleware caches, so the session is faster and executes fewer
queries on the DBMS.
"""

from repro.core.enumerator import PlanEnumerator
from repro.core.system import VegaPlusSystem

SIZE = 20_000

#: A session that revisits the same two slider positions repeatedly.
SESSION = [
    {"maxbins": 30},
    {"maxbins": 60},
    {"maxbins": 30},
    {"maxbins": 60},
    {"maxbins": 30},
    {"maxbins": 60},
]


def _run_session(configuration, harness, enable_cache: bool):
    system = VegaPlusSystem(
        configuration.spec,
        configuration.database,
        network=harness.network,
        enable_cache=enable_cache,
    )
    system.use_plan(PlanEnumerator(configuration.spec).all_server_plan())
    system.run_session(SESSION)
    return system.session_seconds(), system.middleware.stats.queries_executed


def test_cache_on_vs_off(benchmark, harness):
    configuration = harness.configure(
        "interactive_histogram", "flights", SIZE, interactions_per_session=0
    )

    cached_seconds, cached_queries = benchmark.pedantic(
        _run_session, args=(configuration, harness, True), rounds=1, iterations=1
    )
    uncached_seconds, uncached_queries = _run_session(configuration, harness, False)

    print(f"\ncache on:  {cached_seconds * 1000:8.1f} ms, {cached_queries:.0f} DBMS queries")
    print(f"cache off: {uncached_seconds * 1000:8.1f} ms, {uncached_queries:.0f} DBMS queries")
    assert cached_queries < uncached_queries
    assert cached_seconds <= uncached_seconds * 1.1
