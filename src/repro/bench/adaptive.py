"""Adaptive-vs-static plan policies under drifting workloads (Figure 11).

Beyond the paper: the adaptive optimization runtime (PR 4) closes the
loop between the serving tier and the optimizer.  This driver measures
what that loop is worth.  It runs the *same* multi-user interaction
script twice over a shared serving runtime — once with every session on
a :class:`~repro.core.policy.StaticPolicy` (the paper's protocol: decide
once, never revisit) and once with
:class:`~repro.core.policy.AdaptivePolicy` sessions that replan when
observed latencies diverge from calibrated predictions — and compares
p50/p95 episode latency, replan counts and the online comparator's
pairwise-accuracy-over-time.

Scenarios (``ADAPTIVE_SCENARIOS``):

* ``stationary`` — thresholds cycle through a small cache-friendly pool;
  nothing drifts, so the adaptive policy must *match* the static one
  (its null-hypothesis cost),
* ``selectivity_shift`` — the crossfilter threshold drifts from highly
  selective to unselective mid-session: offloaded plans suddenly
  transfer thousands of rows per interaction while the all-client plan's
  cost is unchanged,
* ``dataset_growth`` — the backend table grows mid-session (replacing
  the table invalidates the result caches; the driver calls
  :meth:`VegaPlusSystem.refresh` on every session, modelling an
  application-level data-change notification);
  client-resident plans now reprocess a much larger table per
  interaction while offloaded aggregates stay bounded by group count,
* ``interaction_mix_change`` — the interaction stream switches from a
  cache-hot repeated pool to alternating fresh selective/unselective
  probes, so per-interaction costs become bimodal.

Fairness rules: both policies start from the *same* initial plan (same
comparator, same anticipated interactions), run the same per-user
scripts, and every cost of adapting — replan re-renders included — is
recorded as an episode and counted in the latency metrics.  After both
runs, per-user final datasets must be row-identical across policies:
adapting must never change results.

Latency note: episode latencies combine measured compute with modelled
network/serialisation time (the paper's methodology); the default
:data:`ADAPTIVE_NETWORK` link is slow enough that the modelled —
deterministic — component dominates the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import SQLBackend, create_backend
from repro.core.comparators import (
    OnlineComparatorTrainer,
    RankSVMComparator,
    build_pair_dataset,
)
from repro.core.policy import AdaptivePolicy, PlanPolicy, StaticPolicy
from repro.core.system import VegaPlusSystem
from repro.errors import BenchmarkError
from repro.ml import RankSVM
from repro.net.channel import NetworkModel
from repro.net.middleware import MiddlewareServer
from repro.server.feedback import FeedbackCollector
from repro.server.session import SessionManager, latency_percentiles

#: Scenario names accepted by :func:`run_adaptive_scenario`.
ADAPTIVE_SCENARIOS = (
    "stationary",
    "selectivity_shift",
    "dataset_growth",
    "interaction_mix_change",
)

#: Dashboard table and value domain shared by every scenario.
TABLE = "events"
VALUE_MAX = 1000.0

#: Slow last-mile link: 4 ms RTT, 400 KB/s — transfer size dominates, so
#: plan differences show up as deterministic modelled latency.
ADAPTIVE_NETWORK = NetworkModel(rtt_seconds=0.004, bandwidth_bytes_per_second=400_000.0)

#: Per-scenario knobs: group-key cardinality, interaction pools, drift.
_SCENARIO_CONFIG: dict[str, dict[str, object]] = {
    # Cache-friendly pool of highly selective thresholds; no drift.
    "stationary": {"n_categories": 4000, "phase1": "pool", "phase2": "pool"},
    # Selective pool, then fresh unselective thresholds every step.
    "selectivity_shift": {
        "n_categories": 4000,
        "phase1": "fresh_selective",
        "phase2": "fresh_unselective",
    },
    # Moderate thresholds throughout; the table grows at the drift step.
    "dataset_growth": {
        "n_categories": 800,
        "phase1": "fresh_moderate",
        "phase2": "fresh_moderate",
        "growth_factor": 2.5,
    },
    # Cache-hot pool, then alternating fresh selective/unselective probes.
    "interaction_mix_change": {
        "n_categories": 4000,
        "phase1": "pool",
        "phase2": "alternating",
    },
}

#: The small repeated pool used by cache-friendly phases (highly
#: selective: tiny transfers, so offloading clearly beats client compute).
_POOL_THRESHOLDS = (992.0, 994.0, 996.0, 998.0)


def make_event_rows(
    n_rows: int, n_categories: int, seed: int = 0
) -> list[dict[str, object]]:
    """Synthetic event table: uniform value, categorical group key."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, VALUE_MAX, n_rows)
    categories = rng.integers(0, n_categories, n_rows)
    weights = rng.uniform(1.0, 10.0, n_rows)
    return [
        {"value": float(v), "category": f"c{int(c)}", "weight": float(w)}
        for v, c, w in zip(values, categories, weights)
    ]


def adaptive_dashboard_spec(table: str = TABLE) -> dict:
    """Crossfilter summary dashboard: threshold filter → group-by count/mean.

    Three candidate plans fall out: all-client (fetch raw table once,
    interactions are pure client compute), filter-offload (server filters,
    client aggregates — transfers the filtered rows every interaction)
    and full-offload (transfers one row per group).
    """
    return {
        "signals": [
            {
                "name": "threshold",
                "value": 990,
                "bind": {"input": "range", "min": 0, "max": VALUE_MAX},
            },
        ],
        "data": [
            {"name": "source", "table": table},
            {
                "name": "summary",
                "source": "source",
                "transform": [
                    {"type": "filter", "expr": "datum.value >= threshold"},
                    {
                        "type": "aggregate",
                        "groupby": ["category"],
                        "ops": ["count", "mean"],
                        "fields": [None, "value"],
                        "as": ["count", "avg_value"],
                    },
                ],
            },
        ],
        "scales": [{"name": "x", "domain": {"data": "summary", "field": "category"}}],
        "marks": [{"type": "rect", "from": {"data": "summary"}}],
    }


def build_interaction_script(
    scenario: str,
    n_interactions: int,
    drift_at: int,
    user_index: int,
    seed: int = 0,
) -> list[dict[str, object]]:
    """One user's signal-update sequence for ``scenario``.

    Steps before ``drift_at`` follow the scenario's phase-1 distribution,
    later steps phase 2.  Fresh values are unique per (user, step) so a
    "fresh" phase never reuses a cache entry.
    """
    if scenario not in ADAPTIVE_SCENARIOS:
        raise BenchmarkError(
            f"unknown adaptive scenario {scenario!r}; choose from {ADAPTIVE_SCENARIOS}"
        )
    config = _SCENARIO_CONFIG[scenario]
    rng = np.random.default_rng(seed + 1000 * (user_index + 1))
    script: list[dict[str, object]] = []
    for step in range(n_interactions):
        phase = config["phase1"] if step < drift_at else config["phase2"]
        if phase == "pool":
            # Deterministic warm-up through the whole pool, then draws
            # from it — after warm-up every query is a cache hit.
            if step < len(_POOL_THRESHOLDS):
                threshold = _POOL_THRESHOLDS[step]
            else:
                threshold = float(rng.choice(_POOL_THRESHOLDS))
        elif phase == "fresh_selective":
            threshold = 984.0 + (user_index * 5 + step) % 14 + float(rng.uniform(0, 0.9))
        elif phase == "fresh_unselective":
            threshold = 40.0 + (user_index * 31 + step * 3) % 160 + float(rng.uniform(0, 0.9))
        elif phase == "fresh_moderate":
            threshold = 450.0 + (user_index * 17 + step * 5) % 150 + float(rng.uniform(0, 0.9))
        elif phase == "alternating":
            if step % 2 == 0:
                threshold = 984.0 + (user_index * 5 + step) % 14 + float(rng.uniform(0, 0.9))
            else:
                threshold = 40.0 + (user_index * 31 + step * 3) % 160 + float(rng.uniform(0, 0.9))
        else:  # pragma: no cover - config is module-internal
            raise BenchmarkError(f"unknown phase kind {phase!r}")
        script.append({"threshold": round(threshold, 3)})
    return script


# --------------------------------------------------------------------------- #
# Comparator pre-training (the paper's protocol, at session scale)
# --------------------------------------------------------------------------- #

#: Thresholds the training sessions sweep — both regimes, so the learned
#: cost model has seen cheap *and* expensive transfers.
_TRAINING_THRESHOLDS = (996.0, 990.0, 984.0, 620.0, 300.0, 120.0, 60.0)

#: Pairs whose latencies differ by less than this fraction are dropped
#: from training: near-ties carry measurement noise, not signal, and
#: their flip-flopping labels destabilise the learned weights.
_TRAINING_MIN_RELATIVE_GAP = 0.15


def train_session_comparator(
    n_rows: int,
    n_categories: int,
    network: NetworkModel,
    seed: int = 0,
    backend_name: str = "embedded",
) -> RankSVMComparator:
    """Train a RankSVM comparator on measured episodes of every candidate.

    Executes each candidate plan through one training session on a
    throwaway backend (caches off, so latencies reflect true costs) and
    fits the model on per-episode pairwise labels — the paper's training
    protocol, scoped to the dashboard under test.  Near-tie pairs are
    dropped (:data:`_TRAINING_MIN_RELATIVE_GAP`).
    """
    backend = create_backend(backend_name, keep_query_log=False)
    backend.register_rows(TABLE, make_event_rows(n_rows, n_categories, seed=seed))
    spec = adaptive_dashboard_spec()
    interactions = [{"threshold": t} for t in _TRAINING_THRESHOLDS]

    systems = []
    reference = VegaPlusSystem(spec, backend, network=network, enable_cache=False)
    plans = reference.optimizer.enumerate_plans()
    for plan in plans:
        system = VegaPlusSystem(spec, backend, network=network, enable_cache=False)
        system.use_plan(plan)
        results = [system.initialize()]
        for interaction in interactions:
            results.append(system.interact(interaction))
        systems.append((system, results))

    n_episodes = 1 + len(interactions)
    differences, labels = [], []
    for episode in range(n_episodes):
        vectors, latencies = [], []
        for system, results in systems:
            result = results[episode]
            operator_ids = (
                list(result.report.evaluated_operators)
                if result.report is not None
                else None
            )
            vectors.append(
                system.optimizer.encoder.encode_measured(
                    system.rewritten,
                    system.plan.plan_id,
                    operator_ids=operator_ids,
                    episode=episode,
                )
            )
            latencies.append(result.total_seconds)
        dataset = build_pair_dataset(vectors, latencies)
        pair_index = 0
        for i in range(len(latencies)):
            for j in range(i + 1, len(latencies)):
                reference_latency = max(latencies[i], latencies[j], 1e-12)
                if dataset.latency_gaps[pair_index] / reference_latency >= _TRAINING_MIN_RELATIVE_GAP:
                    differences.append(dataset.differences[pair_index])
                    labels.append(dataset.labels[pair_index])
                pair_index += 1

    backend.close()
    if not differences:
        raise BenchmarkError("comparator training produced no usable pairs")
    model = RankSVM(seed=seed)
    model.fit(np.array(differences), np.array(labels))
    return RankSVMComparator(model)


# --------------------------------------------------------------------------- #
# Policy runs
# --------------------------------------------------------------------------- #


@dataclass
class PolicyRunResult:
    """Everything one (scenario, policy) run measured."""

    scenario: str
    policy: str
    n_users: int
    n_interactions: int
    #: Per-episode end-to-end latency, all users pooled, initial render
    #: excluded (it is identical across policies by construction).
    episode_seconds: list[float] = field(default_factory=list)
    percentiles: dict[str, float] = field(default_factory=dict)
    initial_plan_ids: list[int] = field(default_factory=list)
    final_plan_ids: list[int] = field(default_factory=list)
    replans: int = 0
    replan_attempts: int = 0
    replan_seconds: float = 0.0
    #: Prequential pairwise accuracy of the online comparator trainer.
    accuracy_over_time: list[float] = field(default_factory=list)
    #: Per-user final rows of the "summary" dataset (order-insensitive).
    final_datasets: list[list[tuple]] = field(default_factory=list)
    #: Merged system stats of the first user (plan, engine, cache, policy).
    stats: dict[str, object] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Summed episode latency across users."""
        return float(sum(self.episode_seconds))


def _canonical_rows(rows: list[dict]) -> list[tuple]:
    """Order-insensitive, float-tolerant canonical form of result rows.

    Client- and server-side aggregation emit groups in different orders;
    the contract is set equality of (rounded) rows, not row order.
    """
    canonical = []
    for row in rows:
        items = []
        for key in sorted(row):
            value = row[key]
            if isinstance(value, float):
                value = round(value, 6)
            items.append((key, value))
        canonical.append(tuple(items))
    return sorted(canonical)


def run_policy(
    scenario: str,
    policy_kind: str,
    n_rows: int,
    n_users: int = 3,
    n_interactions: int = 60,
    drift_at: int = 20,
    seed: int = 0,
    network: NetworkModel | None = None,
    comparator: RankSVMComparator | None = None,
    backend_name: str = "embedded",
) -> PolicyRunResult:
    """Drive one full multi-user session under one policy.

    Users run round-robin (deterministic interleaving) over a shared
    middleware, server cache and feedback collector — the serving-tier
    sharing is real, the scheduling is serial so the comparison is
    reproducible.
    """
    if policy_kind not in ("static", "adaptive"):
        raise BenchmarkError(f"policy_kind must be 'static' or 'adaptive', got {policy_kind!r}")
    config = _SCENARIO_CONFIG[scenario]
    n_categories = int(config["n_categories"])
    network = network or ADAPTIVE_NETWORK
    if comparator is None:
        comparator = train_session_comparator(
            n_rows, n_categories, network, seed=seed, backend_name=backend_name
        )

    backend = create_backend(backend_name, keep_query_log=False)
    backend.register_rows(TABLE, make_event_rows(n_rows, n_categories, seed=seed))
    collector = FeedbackCollector(trainer=OnlineComparatorTrainer())
    middleware = MiddlewareServer(backend, network=network)
    manager = SessionManager(middleware, feedback=collector)
    spec = adaptive_dashboard_spec()

    scripts = [
        build_interaction_script(scenario, n_interactions, drift_at, user, seed=seed)
        for user in range(n_users)
    ]
    anticipated = [dict(step) for step in scripts[0][: min(8, n_interactions)]]

    def make_policy() -> PlanPolicy:
        if policy_kind == "static":
            return StaticPolicy()
        # The divergence/calibration floor sits above cache-hit latency
        # (~0.1 ms) and below a normal request miss (>= ~15 ms on
        # ADAPTIVE_NETWORK), so hits are ignored entirely while every
        # real miss calibrates the predictions.
        return AdaptivePolicy(
            regret_threshold=0.5,
            patience=1,
            cooldown=0,
            replan_window=4,
            horizon=12,
            min_divergence_seconds=0.01,
            max_replans=3,
        )

    result = PolicyRunResult(
        scenario=scenario,
        policy=policy_kind,
        n_users=n_users,
        n_interactions=n_interactions,
    )
    systems: list[VegaPlusSystem] = []
    for user in range(n_users):
        session = manager.create_session(f"user-{user}")
        system = VegaPlusSystem(
            spec, middleware=session, comparator=comparator, policy=make_policy()
        )
        system.optimize(anticipated_interactions=anticipated)
        result.initial_plan_ids.append(system.plan.plan_id)
        system.initialize()
        systems.append(system)

    growth_factor = float(config.get("growth_factor", 0.0))
    for step in range(n_interactions):
        if scenario == "dataset_growth" and step == drift_at:
            _grow_dataset(backend, n_rows, growth_factor, n_categories, seed)
            for system in systems:
                system.refresh()
        for user, system in enumerate(systems):
            system.interact(scripts[user][step])

    for system in systems:
        result.episode_seconds.extend(
            r.total_seconds for r in system.history if r.kind != "initial"
        )
        result.final_plan_ids.append(system.plan.plan_id)
        result.replans += system.replans
        result.replan_seconds += system.replan_seconds()
        counters = system.policy.counters()
        result.replan_attempts += int(counters.get("replan_attempts", 0))
        result.final_datasets.append(_canonical_rows(system.dataset("summary")))
    result.percentiles = latency_percentiles(result.episode_seconds)
    if collector.trainer is not None:
        result.accuracy_over_time = list(collector.trainer.accuracy_over_time)
    result.stats = systems[0].stats()
    backend.close()
    return result


def _grow_dataset(
    backend: SQLBackend,
    n_rows: int,
    growth_factor: float,
    n_categories: int,
    seed: int,
) -> None:
    """Apply the dataset-growth drift: a bigger table.

    Re-registers the table at ``growth_factor`` times its size (the
    original rows are the prefix, so history stays consistent).  The
    replacement itself invalidates every result cache of the runtime,
    through the catalog's invalidation listeners.
    """
    grown = int(n_rows * max(growth_factor, 1.0))
    rows = make_event_rows(n_rows, n_categories, seed=seed)
    rows += make_event_rows(grown - n_rows, n_categories, seed=seed + 999)
    backend.register_rows(TABLE, rows, replace=True)


# --------------------------------------------------------------------------- #
# Scenario comparison
# --------------------------------------------------------------------------- #


@dataclass
class AdaptiveComparison:
    """Static-vs-adaptive outcome of one scenario."""

    scenario: str
    static: PolicyRunResult
    adaptive: PolicyRunResult

    @property
    def rows_match(self) -> bool:
        """Whether every user's final dataset is identical across policies."""
        return self.static.final_datasets == self.adaptive.final_datasets

    @property
    def p95_speedup(self) -> float:
        """Static p95 / adaptive p95 (> 1 means adaptive is faster)."""
        adaptive_p95 = self.adaptive.percentiles.get("p95", 0.0)
        if adaptive_p95 <= 0:
            return 0.0
        return self.static.percentiles.get("p95", 0.0) / adaptive_p95

    @property
    def same_initial_plans(self) -> bool:
        """Whether both policies started every user on the same plan."""
        return self.static.initial_plan_ids == self.adaptive.initial_plan_ids


def run_adaptive_scenario(
    scenario: str,
    n_rows: int,
    n_users: int = 3,
    n_interactions: int = 60,
    drift_at: int = 20,
    seed: int = 0,
    network: NetworkModel | None = None,
    backend_name: str = "embedded",
) -> AdaptiveComparison:
    """Run ``scenario`` under both policies and compare.

    The comparator is trained once and shared, so both policies make the
    same initial decision and differ only in what they do at runtime.
    """
    config = _SCENARIO_CONFIG[scenario]
    network = network or ADAPTIVE_NETWORK
    comparator = train_session_comparator(
        n_rows, int(config["n_categories"]), network, seed=seed, backend_name=backend_name
    )
    common = dict(
        n_rows=n_rows,
        n_users=n_users,
        n_interactions=n_interactions,
        drift_at=drift_at,
        seed=seed,
        network=network,
        comparator=comparator,
        backend_name=backend_name,
    )
    static = run_policy(scenario, "static", **common)
    adaptive = run_policy(scenario, "adaptive", **common)
    return AdaptiveComparison(scenario=scenario, static=static, adaptive=adaptive)
