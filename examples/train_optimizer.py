"""Train the learned plan comparators and inspect what they learn.

Reproduces the workflow of Section 5.3 on a small scale:

1. enumerate and execute every candidate plan of two dashboard templates to
   collect labelled training data (plan vectors + measured latencies),
2. train the RankSVM and Random Forest pairwise comparators,
3. report their held-out pairwise accuracy against the heuristic and
   random baselines, judged on every measured pair of the same
   interaction episodes (the shape of Table 4),
4. inspect the RankSVM weights / forest importances — the signal the paper
   distils into the heuristic model's rules,
5. use the trained comparator inside a VegaPlusSystem.

Run with::

    python examples/train_optimizer.py
"""

from __future__ import annotations

import numpy as np

from repro import VegaPlusSystem
from repro.bench.experiments import fit_models
from repro.bench.harness import BenchmarkHarness
from repro.core.encoder import feature_names


def main() -> None:
    harness = BenchmarkHarness(seed=0)
    print("Collecting training data (executing every candidate plan)...")
    all_measurements = []
    for template_name in ("interactive_histogram", "heatmap_bar"):
        configuration = harness.configure(
            template_name, "flights", 20_000, interactions_per_session=4
        )
        measurements = harness.measure_plans(configuration, max_plans=12)
        all_measurements.append((template_name, configuration, measurements))
        print(f"  {template_name}: {len(measurements)} plans executed")

    models = fit_models([m for _, _, m in all_measurements], use_interactions=True, seed=0)
    print("\nPairwise accuracy over the interaction episodes:")
    for label, (_comparator, accuracy) in models.items():
        print(f"  {label:<14} {accuracy:.3f}")

    # What did the models learn?  (This is where the heuristic rules come from.)
    names = feature_names()
    weights = models["RankSVM"][0].feature_weights()
    top = np.argsort(-np.abs(weights))[:5]
    print("\nMost influential RankSVM features (|weight|):")
    for index in top:
        print(f"  {names[index]:<28} {weights[index]:+.3f}")
    importances = models["Random Forest"][0].feature_importances()
    top = np.argsort(-importances)[:5]
    print("Most important Random Forest features:")
    for index in top:
        print(f"  {names[index]:<28} {importances[index]:.3f}")

    # Use the trained comparator end to end.
    template_name, configuration, _ = all_measurements[0]
    system = VegaPlusSystem(
        configuration.spec, configuration.database,
        comparator=models["Random Forest"][0],
    )
    session = configuration.sessions[0]
    system.optimize(anticipated_interactions=session)
    results = system.run_session(session)
    print(f"\n{template_name} with the trained Random Forest comparator:")
    print(f"  chosen plan:    {system.describe_plan()}")
    print(f"  session latency {sum(r.total_seconds for r in results) * 1000:.1f} ms "
          f"over {len(results)} episodes")


if __name__ == "__main__":
    main()
