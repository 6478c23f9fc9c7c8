"""Experiment runners: one function per table/figure of the paper.

Every runner returns a structured result object with a ``rows()`` method
(for the text tables printed by the benchmark scripts) and enough raw data
for further analysis.  Default workload sizes are scaled down from the
paper's 50 k – 10 M rows so the full suite runs on a laptop in minutes; the
``sizes`` argument restores larger scales when more time is available.
``docs/EXPERIMENTS.md`` records the paper-reported values next to the
values this module reproduces, one row per table/figure.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import VegaFusionSystem, VegaNativeSystem
from repro.bench.harness import BenchmarkHarness, PlanMeasurement
from repro.bench.reporting import format_table
from repro.bench.templates import all_templates, template_names
from repro.bench.workload import WorkloadGenerator
from repro.core.comparators import (
    HeuristicComparator,
    PlanComparator,
    RandomComparator,
    build_pair_dataset,
    pairwise_outcomes,
    stack_pair_datasets,
    train_comparator,
)
from repro.core.consolidation import consolidate_session
from repro.core.encoder import PlanVector
from repro.core.enumerator import PlanEnumerator
from repro.vega.spec import parse_spec_dict

#: Data sizes used by default (scaled down from the paper's 50k..1M rows).
DEFAULT_SIZES: tuple[int, ...] = (2_000, 5_000, 10_000, 20_000)

#: Default dataset; the paper randomly picks one per run, we fix flights
#: for determinism and use other datasets in the unit tests.
DEFAULT_DATASET = "flights"

#: Templates used in the model-accuracy experiments by default (a subset
#: keeps the default run fast; pass ``templates=template_names()`` for all).
DEFAULT_MODEL_TEMPLATES: tuple[str, ...] = (
    "interactive_histogram",
    "heatmap_bar",
    "overview_detail",
)

# --------------------------------------------------------------------------- #
# Table 1 — template characteristics and enumeration space
# --------------------------------------------------------------------------- #


@dataclass
class Table1Row:
    """One row of Table 1."""

    template: str
    n_operators: int
    n_plans: int
    n_pairs: int


@dataclass
class Table1Result:
    """Characteristics of every template's plan enumeration space."""

    rows_by_template: list[Table1Row] = field(default_factory=list)

    def rows(self) -> list[list[object]]:
        return [
            [r.template, r.n_operators, r.n_plans, r.n_pairs]
            for r in self.rows_by_template
        ]

    def __str__(self) -> str:
        return format_table(
            ["template", "# operators", "# plans", "# pairs"],
            self.rows(),
            title="Table 1: template characteristics and enumeration space",
        )


def table1(
    dataset: str = DEFAULT_DATASET,
    n_sessions: int = 10,
    interactions_per_session: int = 20,
    n_sizes: int = 4,
    seed: int = 0,
) -> Table1Result:
    """Reproduce Table 1: operators, plans and training pairs per template."""
    generator = WorkloadGenerator(seed=seed)
    result = Table1Result()
    for template in all_templates():
        instance = generator.instantiate(template, dataset)
        spec = parse_spec_dict(instance.spec)
        enumerator = PlanEnumerator(spec)
        n_plans = len(enumerator.enumerate())
        pair_count = math.comb(n_plans, 2) if n_plans >= 2 else 0
        if template.interactive:
            pairs = n_sessions * interactions_per_session * pair_count * n_sizes
        else:
            pairs = n_sessions * pair_count * n_sizes
        result.rows_by_template.append(
            Table1Row(
                template=template.name,
                n_operators=spec.total_transforms(),
                n_plans=n_plans,
                n_pairs=pairs,
            )
        )
    return result


# --------------------------------------------------------------------------- #
# Shared measurement collection for Tables 2/3/4/5 and Figures 6/7
# --------------------------------------------------------------------------- #


@dataclass
class MeasurementSet:
    """Measurements of all candidate plans per (template, size)."""

    per_template_size: dict[tuple[str, int], list[PlanMeasurement]] = field(
        default_factory=dict
    )


def collect_measurements(
    harness: BenchmarkHarness,
    templates: Sequence[str],
    sizes: Sequence[int],
    dataset: str = DEFAULT_DATASET,
    interactions_per_session: int = 5,
    max_plans: int | None = 24,
) -> MeasurementSet:
    """Execute every candidate plan of every template at every size."""
    measurement_set = MeasurementSet()
    for template_name in templates:
        for size in sizes:
            configuration = harness.configure(
                template_name,
                dataset,
                size,
                n_sessions=1,
                interactions_per_session=interactions_per_session,
            )
            measurements = harness.measure_plans(
                configuration, max_plans=max_plans, max_sessions=1
            )
            measurement_set.per_template_size[(template_name, size)] = measurements
    return measurement_set


def _fit_models_for_size(
    measurement_set: MeasurementSet, size: int, use_interactions: bool, seed: int = 0
) -> dict[str, tuple[PlanComparator, float]]:
    """:func:`fit_models` on one size's measurements."""
    groups = list(_grouped_by_template(measurement_set, size).values())
    return fit_models(groups, use_interactions, seed)


def fit_models(
    groups: Sequence[Sequence[PlanMeasurement]],
    use_interactions: bool,
    seed: int = 0,
) -> dict[str, tuple[PlanComparator, float]]:
    """The four comparators of Tables 2–5 and their pairwise accuracy.

    ``groups`` holds one list of plan measurements per template; a
    template with fewer than two plans has no pairs and is skipped.  The
    learned models (RankSVM, Random Forest) train on the pairs of every
    group's labelled episodes (the initial render alone, or every
    interaction episode too) and report their held-out accuracy; the
    heuristic and random comparators are judged on every measured pair of
    the same episodes.  Returns ``comparator name -> (comparator,
    accuracy)``.
    """
    episodes = [
        episode
        for measurements in groups
        if len(measurements) >= 2
        for episode in _episodes(measurements, use_interactions)
    ]
    if not episodes:
        raise ValueError("no measurements to fit models on")
    dataset = stack_pair_datasets([build_pair_dataset(*episode) for episode in episodes])
    out: dict[str, tuple[PlanComparator, float]] = {}
    for kind in ("ranksvm", "random_forest"):
        report = train_comparator(kind, dataset, seed=seed)
        out[report.comparator.name] = (report.comparator, report.test_accuracy)
    for comparator in (HeuristicComparator(), RandomComparator(seed=seed)):
        outcomes = [
            predicted == truth
            for vectors, latencies in episodes
            for predicted, truth, _, _ in pairwise_outcomes(comparator, vectors, latencies)
        ]
        out[comparator.name] = (comparator, float(np.mean(outcomes)))
    return out


def _episodes(
    measurements: Sequence[PlanMeasurement], use_interactions: bool
) -> list[tuple[list[PlanVector], list[float]]]:
    """The labelled episodes one template's measurements contribute."""
    if use_interactions:
        return BenchmarkHarness.interaction_episodes(measurements)
    return [BenchmarkHarness.initial_render_vectors(measurements)]


def _grouped_by_template(
    measurement_set: MeasurementSet, size: int
) -> dict[str, list[PlanMeasurement]]:
    grouped: dict[str, list[PlanMeasurement]] = {}
    for (template_name, measurement_size), measurements in measurement_set.per_template_size.items():
        if measurement_size == size:
            grouped[template_name] = measurements
    return grouped


# --------------------------------------------------------------------------- #
# Tables 2-5 share one result shape: model → size → value
# --------------------------------------------------------------------------- #


@dataclass
class BySizeResult:
    """One value per model and data size (Tables 2-5): a pairwise
    accuracy, or the seconds of the plan the model selects."""

    title: str
    #: Digits :meth:`rows` rounds each value to.
    digits: int = 4
    by_model: dict[str, dict[int, float]] = field(default_factory=dict)

    def sizes(self) -> list[int]:
        return sorted({s for by_size in self.by_model.values() for s in by_size})

    def rows(self) -> list[list[object]]:
        sizes = self.sizes()
        return [
            [model] + [round(by_size.get(size, float("nan")), self.digits) for size in sizes]
            for model, by_size in self.by_model.items()
        ]

    def __str__(self) -> str:
        return format_table(
            ["model"] + [str(s) for s in self.sizes()], self.rows(), title=self.title
        )


# --------------------------------------------------------------------------- #
# Table 2 — pairwise accuracy on initial rendering
# --------------------------------------------------------------------------- #


def table2(
    sizes: Sequence[int] = DEFAULT_SIZES,
    templates: Sequence[str] = DEFAULT_MODEL_TEMPLATES,
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    measurement_set: MeasurementSet | None = None,
    harness: BenchmarkHarness | None = None,
) -> BySizeResult:
    """Reproduce Table 2: pairwise accuracy on initial-rendering pairs."""
    harness = harness or BenchmarkHarness(seed=seed)
    if measurement_set is None:
        measurement_set = collect_measurements(harness, templates, sizes, dataset)
    result = BySizeResult("Table 2: pairwise accuracy (initial rendering)", digits=3)
    for size in sizes:
        models = _fit_models_for_size(measurement_set, size, use_interactions=False, seed=seed)
        for label, (_comparator, accuracy) in models.items():
            result.by_model.setdefault(label, {})[size] = accuracy
    return result


# --------------------------------------------------------------------------- #
# Table 3 — latency of the plan each model selects (initial rendering)
# --------------------------------------------------------------------------- #


def table3(
    sizes: Sequence[int] = DEFAULT_SIZES,
    templates: Sequence[str] = DEFAULT_MODEL_TEMPLATES,
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    measurement_set: MeasurementSet | None = None,
    harness: BenchmarkHarness | None = None,
) -> BySizeResult:
    """Reproduce Table 3: initial-render latency of each model's chosen plan."""
    harness = harness or BenchmarkHarness(seed=seed)
    if measurement_set is None:
        measurement_set = collect_measurements(harness, templates, sizes, dataset)
    result = BySizeResult("Table 3: initial-render latency of selected plans (s)")
    for size in sizes:
        models = _fit_models_for_size(measurement_set, size, use_interactions=False, seed=seed)
        totals: dict[str, float] = {label: 0.0 for label in models}
        optimal_total = 0.0
        for measurements in _grouped_by_template(measurement_set, size).values():
            vectors, latencies = harness.initial_render_vectors(measurements)
            if len(vectors) < 2:
                continue
            optimal_total += min(latencies)
            for label, (comparator, _accuracy) in models.items():
                totals[label] += latencies[comparator.select_best(vectors)]
        for label, value in totals.items():
            result.by_model.setdefault(label, {})[size] = value
        result.by_model.setdefault("optimal", {})[size] = optimal_total
    return result


# --------------------------------------------------------------------------- #
# Table 4 — pairwise accuracy with interaction episodes
# --------------------------------------------------------------------------- #


def table4(
    sizes: Sequence[int] = DEFAULT_SIZES,
    templates: Sequence[str] = DEFAULT_MODEL_TEMPLATES,
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    measurement_set: MeasurementSet | None = None,
    harness: BenchmarkHarness | None = None,
) -> BySizeResult:
    """Reproduce Table 4: pairwise accuracy over interaction episodes."""
    harness = harness or BenchmarkHarness(seed=seed)
    if measurement_set is None:
        measurement_set = collect_measurements(harness, templates, sizes, dataset)
    result = BySizeResult("Table 4: pairwise accuracy (interaction episodes)", digits=3)
    for size in sizes:
        models = _fit_models_for_size(measurement_set, size, use_interactions=True, seed=seed)
        for label, (_comparator, accuracy) in models.items():
            result.by_model.setdefault(label, {})[size] = accuracy
    return result


# --------------------------------------------------------------------------- #
# Table 5 — session latency of consolidated plan choices (overview+detail)
# --------------------------------------------------------------------------- #


def table5(
    sizes: Sequence[int] = DEFAULT_SIZES,
    template_name: str = "overview_detail",
    dataset: str = DEFAULT_DATASET,
    interactions_per_session: int = 5,
    seed: int = 0,
    harness: BenchmarkHarness | None = None,
) -> BySizeResult:
    """Reproduce Table 5: session latency of each model's consolidated plan."""
    harness = harness or BenchmarkHarness(seed=seed)
    result = BySizeResult(f"Table 5: per-session latency for template {template_name!r} (s)")
    for size in sizes:
        configuration = harness.configure(
            template_name,
            dataset,
            size,
            n_sessions=1,
            interactions_per_session=interactions_per_session,
        )
        measurements = harness.measure_plans(configuration, max_plans=24, max_sessions=1)
        episodes = harness.episode_vector_matrix(measurements)
        session_latency = [m.sessions[0].total_seconds for m in measurements]
        pair_data = harness.interaction_dataset(measurements)
        comparators: list[PlanComparator] = [
            train_comparator(kind, pair_data, seed=seed).comparator
            for kind in ("ranksvm", "random_forest")
        ]
        for comparator in [*comparators, HeuristicComparator()]:
            decision = consolidate_session(comparator, episodes)
            result.by_model.setdefault(comparator.name, {})[size] = session_latency[
                decision.best_plan_index
            ]
        result.by_model.setdefault("optimal", {})[size] = min(session_latency)
    return result


# --------------------------------------------------------------------------- #
# Figure 6 — distribution of plan execution times (initial rendering)
# --------------------------------------------------------------------------- #


@dataclass
class Figure6Result:
    """Scatter points: (template, size, plan id, initial-render seconds)."""

    points: list[tuple[str, int, int, float]] = field(default_factory=list)

    def rows(self) -> list[list[object]]:
        return [[t, s, p, round(v, 4)] for t, s, p, v in self.points]

    def by_template(self) -> dict[str, list[tuple[int, float]]]:
        """Template → [(size, seconds)] pairs."""
        grouped: dict[str, list[tuple[int, float]]] = {}
        for template, size, _plan, seconds in self.points:
            grouped.setdefault(template, []).append((size, seconds))
        return grouped

    def __str__(self) -> str:
        return format_table(
            ["template", "size", "plan", "initial render (s)"],
            self.rows(),
            title="Figure 6: distribution of candidate-plan execution times",
        )


def figure6(
    sizes: Sequence[int] = DEFAULT_SIZES,
    templates: Sequence[str] | None = None,
    dataset: str = DEFAULT_DATASET,
    seed: int = 0,
    max_plans: int | None = 16,
    harness: BenchmarkHarness | None = None,
    measurement_set: MeasurementSet | None = None,
) -> Figure6Result:
    """Reproduce Figure 6: per-template scatter of plan execution times."""
    harness = harness or BenchmarkHarness(seed=seed)
    templates = list(templates or template_names())
    if measurement_set is None:
        measurement_set = collect_measurements(
            harness, templates, sizes, dataset, interactions_per_session=0, max_plans=max_plans
        )
    result = Figure6Result()
    for (template_name, size), measurements in measurement_set.per_template_size.items():
        for measurement in measurements:
            result.points.append(
                (
                    template_name,
                    size,
                    measurement.plan.plan_id,
                    measurement.mean_initial_seconds(),
                )
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 7 — distribution of scaled errors per model
# --------------------------------------------------------------------------- #


@dataclass
class Figure7Result:
    """Histogram of scaled errors for each model's mispredicted pairs."""

    bins: list[float] = field(default_factory=list)
    histograms: dict[str, list[int]] = field(default_factory=dict)
    mean_scaled_error: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        rows = []
        for model, counts in self.histograms.items():
            rows.append([model] + counts + [round(self.mean_scaled_error[model], 4)])
        return rows

    def __str__(self) -> str:
        headers = ["model"] + [f"<{b:.1f}" for b in self.bins[1:]] + ["mean error"]
        return format_table(
            headers, self.rows(), title="Figure 7: distribution of scaled errors"
        )


def figure7(
    size: int = DEFAULT_SIZES[-1],
    templates: Sequence[str] = DEFAULT_MODEL_TEMPLATES,
    dataset: str = DEFAULT_DATASET,
    n_bins: int = 10,
    seed: int = 0,
    harness: BenchmarkHarness | None = None,
    measurement_set: MeasurementSet | None = None,
) -> Figure7Result:
    """Reproduce Figure 7: scaled error distribution of wrong predictions."""
    harness = harness or BenchmarkHarness(seed=seed)
    if measurement_set is None:
        measurement_set = collect_measurements(harness, templates, [size], dataset)
    models = _fit_models_for_size(measurement_set, size, use_interactions=False, seed=seed)
    edges = list(np.linspace(0.0, 1.0, n_bins + 1))
    result = Figure7Result(bins=edges)
    for label, (comparator, _accuracy) in models.items():
        errors: list[float] = []
        for measurements in _grouped_by_template(measurement_set, size).values():
            vectors, latencies = harness.initial_render_vectors(measurements)
            for predicted, truth, first, second in pairwise_outcomes(
                comparator, vectors, latencies
            ):
                worse, better = max(first, second), min(first, second)
                if predicted != truth and worse > 0:
                    errors.append((worse - better) / worse)
        histogram, _ = np.histogram(errors, bins=edges)
        result.histograms[label] = [int(c) for c in histogram]
        result.mean_scaled_error[label] = float(np.mean(errors)) if errors else 0.0
    return result


# --------------------------------------------------------------------------- #
# Figure 8 — Vega vs VegaPlus per-session latency
# --------------------------------------------------------------------------- #


@dataclass
class Figure8Result:
    """Per-template session latency split into init and interactions."""

    rows_data: list[dict[str, object]] = field(default_factory=list)

    def rows(self) -> list[list[object]]:
        return [
            [
                r["template"],
                r["system"],
                round(r["initial_seconds"], 4),
                round(r["interaction_seconds"], 4),
                round(r["total_seconds"], 4),
            ]
            for r in self.rows_data
        ]

    def speedup(self, template: str) -> float:
        """VegaPlus speed-up over Vega for one template (total session time)."""
        vega = next(
            r for r in self.rows_data if r["template"] == template and r["system"] == "Vega"
        )
        plus = next(
            r for r in self.rows_data if r["template"] == template and r["system"] == "VegaPlus"
        )
        if plus["total_seconds"] == 0:
            return float("inf")
        return vega["total_seconds"] / plus["total_seconds"]

    def __str__(self) -> str:
        return format_table(
            ["template", "system", "init (s)", "interactions (s)", "total (s)"],
            self.rows(),
            title="Figure 8: average session latency, Vega vs VegaPlus",
        )


def figure8(
    size: int = DEFAULT_SIZES[-1],
    templates: Sequence[str] | None = None,
    dataset: str = DEFAULT_DATASET,
    interactions_per_session: int = 5,
    seed: int = 0,
    harness: BenchmarkHarness | None = None,
) -> Figure8Result:
    """Reproduce Figure 8: session latency of Vega vs VegaPlus (RankSVM)."""
    harness = harness or BenchmarkHarness(seed=seed)
    interactive = [t.name for t in all_templates() if t.interactive]
    templates = list(templates or interactive)
    result = Figure8Result()
    for template_name in templates:
        configuration = harness.configure(
            template_name,
            dataset,
            size,
            n_sessions=1,
            interactions_per_session=interactions_per_session,
        )
        session = configuration.sessions[0]

        # Train a RankSVM comparator on this template's measured plans.
        measurements = harness.measure_plans(configuration, max_plans=16, max_sessions=1)
        pair_data = harness.interaction_dataset(measurements)
        comparator = train_comparator("ranksvm", pair_data, seed=seed).comparator

        plus_system = _fresh_system(configuration, harness, comparator)
        plus_system.optimize(anticipated_interactions=session)
        configuration.database.clear_plan_cache()
        plus_results = plus_system.run_session(session)

        vega_system = VegaNativeSystem(
            configuration.spec, configuration.database, network=harness.network
        )
        configuration.database.clear_plan_cache()
        vega_results = vega_system.run_session(session)

        for label, results in (("VegaPlus", plus_results), ("Vega", vega_results)):
            result.rows_data.append(
                {
                    "template": template_name,
                    "system": label,
                    "initial_seconds": results[0].total_seconds,
                    "interaction_seconds": sum(r.total_seconds for r in results[1:]),
                    "total_seconds": sum(r.total_seconds for r in results),
                }
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 9 — Vega vs VegaFusion vs VegaPlus across data sizes
# --------------------------------------------------------------------------- #


@dataclass
class Figure9Result:
    """Init and update latency per system per data size."""

    rows_data: list[dict[str, object]] = field(default_factory=list)

    def rows(self) -> list[list[object]]:
        return [
            [
                r["system"],
                r["size"],
                round(r["initial_seconds"], 4),
                round(r["update_seconds"], 4),
            ]
            for r in self.rows_data
        ]

    def series(self, system: str, kind: str = "initial_seconds") -> list[tuple[int, float]]:
        """(size, seconds) series for one system."""
        return [
            (int(r["size"]), float(r[kind]))
            for r in self.rows_data
            if r["system"] == system
        ]

    def __str__(self) -> str:
        return format_table(
            ["system", "size", "init (s)", "mean update (s)"],
            self.rows(),
            title="Figure 9: initial rendering and interactive updates vs data size",
        )


def figure9(
    sizes: Sequence[int] = DEFAULT_SIZES,
    large_sizes: Sequence[int] = (),
    template_name: str = "crossfilter",
    dataset: str = DEFAULT_DATASET,
    interactions_per_session: int = 5,
    seed: int = 0,
    harness: BenchmarkHarness | None = None,
) -> Figure9Result:
    """Reproduce Figure 9: Vega vs VegaFusion vs VegaPlus across sizes.

    ``large_sizes`` extends the sweep for VegaFusion and VegaPlus only,
    mirroring the paper's decision to drop Vega at 10 M rows because it
    cannot handle that scale.
    """
    harness = harness or BenchmarkHarness(seed=seed)
    result = Figure9Result()
    all_sizes = list(sizes) + [s for s in large_sizes if s not in sizes]
    for size in all_sizes:
        configuration = harness.configure(
            template_name,
            dataset,
            size,
            n_sessions=1,
            interactions_per_session=interactions_per_session,
        )
        session = configuration.sessions[0]
        include_vega = size in sizes

        systems: dict[str, object] = {}
        comparator = HeuristicComparator()
        plus_system = _fresh_system(configuration, harness, comparator)
        plus_system.optimize(anticipated_interactions=session)
        systems["VegaPlus"] = plus_system
        systems["VegaFusion"] = VegaFusionSystem(
            configuration.spec, configuration.database, network=harness.network
        )
        if include_vega:
            systems["Vega"] = VegaNativeSystem(
                configuration.spec, configuration.database, network=harness.network
            )

        for label, system in systems.items():
            configuration.database.clear_plan_cache()
            results = system.run_session(session)
            updates = [r.total_seconds for r in results[1:]]
            result.rows_data.append(
                {
                    "system": label,
                    "size": size,
                    "initial_seconds": results[0].total_seconds,
                    "update_seconds": float(np.mean(updates)) if updates else 0.0,
                }
            )
    return result


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _fresh_system(configuration, harness: BenchmarkHarness, comparator: PlanComparator):
    from repro.core.system import VegaPlusSystem

    return VegaPlusSystem(
        configuration.spec,
        configuration.database,
        comparator=comparator,
        network=harness.network,
        codec=harness.codec,
        enable_cache=harness.enable_cache,
    )
