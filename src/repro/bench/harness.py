"""Benchmark harness: execute candidate plans and collect measurements.

For every candidate plan of a (template, dataset, size) configuration the
harness builds the plan's dataflow, runs the initial rendering and an
interaction session, and records:

* end-to-end latency per episode (initial render = episode 0),
* the latency breakdown (client / server / network / serialisation),
* the *measured* plan vector per episode (operator counts + output
  cardinalities of the operators that episode evaluated),

which is exactly the labelled data the paper's comparator models are
trained and evaluated on.

The harness also stamps every benchmark run with provenance
(:func:`run_metadata`): git SHA, machine fingerprint, python version,
``REPRO_BENCH_SCALE`` and the worker configuration — the run-level row
the results database (:mod:`repro.bench.resultsdb`) keys trajectories
on.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.backends import SQLBackend, create_backend
from repro.bench.workload import WorkloadGenerator
from repro.core.comparators import PairDataset, build_pair_dataset
from repro.core.encoder import PlanEncoder, PlanVector
from repro.core.enumerator import PlanEnumerator
from repro.core.plan import ExecutionPlan
from repro.core.system import VegaPlusSystem
from repro.datasets.generators import generate_dataset
from repro.errors import BenchmarkError
from repro.net.channel import NetworkModel
from repro.net.serialize import ArrowCodec, Codec
from repro.vega.spec import VegaSpec, parse_spec_dict


def run_metadata(backend: str | None = None) -> dict[str, object]:
    """Provenance of the current benchmark run, for the results DB.

    Everything :meth:`repro.bench.resultsdb.ResultsDB.ingest` wants on
    the ``runs`` row: git SHA, machine fingerprint, python version, the
    active ``REPRO_BENCH_SCALE``, and the backend that distinguishes
    otherwise identical runs.
    """
    from repro.bench.resultsdb import (
        current_git_sha,
        local_machine_info,
        machine_fingerprint,
    )
    from repro.bench.scale import bench_scale

    machine_info = local_machine_info()
    metadata: dict[str, object] = {
        "git_sha": current_git_sha(),
        "machine": machine_fingerprint(machine_info),
        "python": machine_info["python_version"],
        "bench_scale": bench_scale(),
    }
    if backend is not None:
        metadata["backend"] = backend
    return metadata


@dataclass
class SessionMeasurement:
    """Latencies and vectors of one plan over one session."""

    plan: ExecutionPlan
    episode_seconds: list[float] = field(default_factory=list)
    episode_vectors: list[PlanVector] = field(default_factory=list)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Server-side engine counter deltas for this session (queries executed,
    #: plan-cache hits/misses, rows grouped/sorted/deduplicated, ...).
    engine_counters: dict[str, float] = field(default_factory=dict)

    @property
    def initial_seconds(self) -> float:
        """Latency of the initial rendering episode."""
        return self.episode_seconds[0] if self.episode_seconds else 0.0

    @property
    def total_seconds(self) -> float:
        """Total latency across the session."""
        return float(sum(self.episode_seconds))

    @property
    def interaction_seconds(self) -> float:
        """Latency of the interaction episodes only."""
        return float(sum(self.episode_seconds[1:]))


@dataclass
class PlanMeasurement:
    """All measurements of one plan across the configured sessions."""

    plan: ExecutionPlan
    sessions: list[SessionMeasurement] = field(default_factory=list)

    def engine_totals(self) -> dict[str, float]:
        """Summed server-side engine counters across this plan's sessions."""
        totals: dict[str, float] = {}
        for session in self.sessions:
            for key, value in session.engine_counters.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def mean_initial_seconds(self) -> float:
        """Average initial-render latency across sessions."""
        if not self.sessions:
            return 0.0
        return float(np.mean([s.initial_seconds for s in self.sessions]))

    def mean_total_seconds(self) -> float:
        """Average total session latency."""
        if not self.sessions:
            return 0.0
        return float(np.mean([s.total_seconds for s in self.sessions]))

    def mean_interaction_seconds(self) -> float:
        """Average interaction-only latency."""
        if not self.sessions:
            return 0.0
        return float(np.mean([s.interaction_seconds for s in self.sessions]))


@dataclass
class BenchmarkConfiguration:
    """One (template, dataset, size) benchmark configuration."""

    template_name: str
    dataset: str
    n_rows: int
    spec: VegaSpec
    database: SQLBackend
    sessions: list[list[dict[str, object]]]


class BenchmarkHarness:
    """Runs the paper's benchmark protocol over templates and data sizes.

    Parameters
    ----------
    seed:
        Base seed for data generation, field binding and interactions.
    backend:
        Name of the server-side SQL backend every measured system runs
        against (``"embedded"`` or ``"sqlite"``; see
        :func:`repro.backends.backend_names`).
    network, codec:
        Passed to every :class:`VegaPlusSystem` built by the harness.
    enable_cache:
        Whether the two-level result cache is active during measurements.
    """

    def __init__(
        self,
        seed: int = 0,
        backend: str = "embedded",
        network: NetworkModel | None = None,
        codec: Codec | None = None,
        enable_cache: bool = True,
    ) -> None:
        self.seed = seed
        self.backend_name = backend
        self.network = network or NetworkModel.lan()
        self.codec = codec or ArrowCodec()
        self.enable_cache = enable_cache
        self._database_cache: dict[tuple[str, int], SQLBackend] = {}

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def database_for(self, dataset: str, n_rows: int) -> SQLBackend:
        """A backend with the dataset registered (memoised per size)."""
        key = (dataset, n_rows)
        if key not in self._database_cache:
            database = create_backend(self.backend_name)
            database.register_rows(dataset, generate_dataset(dataset, n_rows, seed=self.seed))
            self._database_cache[key] = database
        return self._database_cache[key]

    def configure(
        self,
        template_name: str,
        dataset: str,
        n_rows: int,
        n_sessions: int = 2,
        interactions_per_session: int = 5,
        fields: dict[str, str] | None = None,
    ) -> BenchmarkConfiguration:
        """Bind a template, generate sessions and prepare the database."""
        generator = WorkloadGenerator(seed=self.seed)
        workload = generator.generate_workload(
            template_name,
            dataset,
            n_sessions=n_sessions,
            interactions_per_session=interactions_per_session,
            fields=fields,
        )
        return BenchmarkConfiguration(
            template_name=template_name,
            dataset=dataset,
            n_rows=n_rows,
            spec=parse_spec_dict(workload.bound.spec),
            database=self.database_for(dataset, n_rows),
            sessions=workload.sessions,
        )

    # ------------------------------------------------------------------ #
    # Plan measurement
    # ------------------------------------------------------------------ #
    def enumerate_plans(
        self, configuration: BenchmarkConfiguration, max_plans: int | None = None
    ) -> list[ExecutionPlan]:
        """Candidate plans, optionally sub-sampled to bound execution time.

        When ``max_plans`` is smaller than the enumeration, a deterministic
        sample is taken that always keeps the all-client and all-server
        plans (the extremes anchor the latency distribution).
        """
        enumerator = PlanEnumerator(configuration.spec)
        plans = enumerator.enumerate()
        if max_plans is None or len(plans) <= max_plans:
            return plans
        if max_plans < 2:
            raise BenchmarkError("max_plans must be at least 2")
        rng = np.random.default_rng(self.seed)
        keep = {0, len(plans) - 1}
        while len(keep) < max_plans:
            keep.add(int(rng.integers(0, len(plans))))
        return [plans[i] for i in sorted(keep)]

    def measure_plan(
        self,
        configuration: BenchmarkConfiguration,
        plan: ExecutionPlan,
        interactions: Sequence[Mapping[str, object]],
    ) -> SessionMeasurement:
        """Execute one plan for one session and collect measurements."""
        system = VegaPlusSystem(
            configuration.spec,
            configuration.database,
            network=self.network,
            codec=self.codec,
            enable_cache=self.enable_cache,
        )
        system.use_plan(plan)
        encoder = PlanEncoder(configuration.database)
        measurement = SessionMeasurement(plan=plan)

        # Each measured session starts with a cold plan cache so candidate
        # plans are compared fairly regardless of measurement order; repeat
        # queries *within* the session still hit the cache, which is the
        # behaviour the interactive workloads are meant to exhibit.
        configuration.database.clear_plan_cache()
        counters_before = configuration.database.metrics.snapshot()
        results = [system.initialize()]
        for interaction in interactions:
            results.append(system.interact(interaction))
        counters_after = configuration.database.metrics.snapshot()
        measurement.engine_counters = {
            key: counters_after[key] - counters_before.get(key, 0.0)
            for key in counters_after
        }

        totals = {"client": 0.0, "server": 0.0, "network": 0.0, "serialization": 0.0}
        for episode_index, result in enumerate(results):
            measurement.episode_seconds.append(result.total_seconds)
            operator_ids = (
                list(result.report.evaluated_operators) if result.report is not None else None
            )
            vector = encoder.encode_measured(
                system.rewritten,
                plan.plan_id,
                operator_ids=operator_ids,
                episode=episode_index,
            )
            measurement.episode_vectors.append(vector)
            totals["client"] += result.breakdown.client_seconds
            totals["server"] += result.breakdown.server_seconds
            totals["network"] += result.breakdown.network_seconds
            totals["serialization"] += result.breakdown.serialization_seconds
        measurement.breakdown = totals
        return measurement

    def measure_plans(
        self,
        configuration: BenchmarkConfiguration,
        plans: Sequence[ExecutionPlan] | None = None,
        max_plans: int | None = None,
        max_sessions: int | None = 1,
    ) -> list[PlanMeasurement]:
        """Measure each candidate plan over the configured sessions."""
        if plans is None:
            plans = self.enumerate_plans(configuration, max_plans=max_plans)
        sessions = configuration.sessions
        if max_sessions is not None:
            sessions = sessions[:max_sessions]
        measurements: list[PlanMeasurement] = []
        for plan in plans:
            plan_measurement = PlanMeasurement(plan=plan)
            for session in sessions:
                plan_measurement.sessions.append(
                    self.measure_plan(configuration, plan, session)
                )
            measurements.append(plan_measurement)
        return measurements

    # ------------------------------------------------------------------ #
    # Training data
    # ------------------------------------------------------------------ #
    def initial_render_dataset(
        self, measurements: Sequence[PlanMeasurement]
    ) -> PairDataset:
        """Pairwise training data from initial-rendering episodes only."""
        vectors, latencies = self.initial_render_vectors(measurements)
        return build_pair_dataset(vectors, latencies)

    @staticmethod
    def initial_render_vectors(
        measurements: Sequence[PlanMeasurement],
    ) -> tuple[list[PlanVector], list[float]]:
        """Initial-rendering vectors and latencies per plan."""
        vectors: list[PlanVector] = []
        latencies: list[float] = []
        for measurement in measurements:
            if not measurement.sessions:
                continue
            vectors.append(measurement.sessions[0].episode_vectors[0])
            latencies.append(measurement.mean_initial_seconds())
        return vectors, latencies

    def interaction_dataset(
        self, measurements: Sequence[PlanMeasurement]
    ) -> PairDataset:
        """Pairwise training data built from every interaction episode."""
        all_vectors: list[PlanVector] = []
        all_latencies: list[float] = []
        datasets: list[PairDataset] = []
        n_episodes = min(
            len(m.sessions[0].episode_seconds) for m in measurements if m.sessions
        )
        for episode in range(n_episodes):
            vectors = []
            latencies = []
            for measurement in measurements:
                session = measurement.sessions[0]
                vectors.append(session.episode_vectors[episode])
                latencies.append(session.episode_seconds[episode])
            if len(vectors) >= 2:
                datasets.append(build_pair_dataset(vectors, latencies))
            all_vectors.extend(vectors)
            all_latencies.extend(latencies)
        if not datasets:
            raise BenchmarkError("no interaction episodes to build pairs from")
        differences = np.vstack([d.differences for d in datasets])
        labels = np.concatenate([d.labels for d in datasets])
        gaps = np.concatenate([d.latency_gaps for d in datasets])
        return PairDataset(differences=differences, labels=labels, latency_gaps=gaps)

    @staticmethod
    def episode_vector_matrix(
        measurements: Sequence[PlanMeasurement],
    ) -> list[list[PlanVector]]:
        """``episodes[e][p]``: plan ``p``'s measured vector for episode ``e``."""
        if not measurements:
            raise BenchmarkError("no measurements supplied")
        n_episodes = min(
            len(m.sessions[0].episode_vectors) for m in measurements if m.sessions
        )
        episodes: list[list[PlanVector]] = []
        for episode in range(n_episodes):
            episodes.append(
                [m.sessions[0].episode_vectors[episode] for m in measurements]
            )
        return episodes
