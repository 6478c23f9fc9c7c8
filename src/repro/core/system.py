"""VegaPlusSystem: the end-to-end system facade.

Wires together the three layers of Figure 2 — the client-side runtime, the
server-side optimizer/middleware, and the backend DBMS — behind one object:

    db = Database();  db.register_rows("flights", rows)
    system = VegaPlusSystem(spec, db, comparator=my_trained_comparator)
    system.optimize(anticipated_interactions=[{"maxbins": 30}])
    first = system.initialize()            # initial rendering
    update = system.interact({"maxbins": 30})
    system.dataset("binned")               # rows handed to the renderer

Every call returns an :class:`InteractionResult` with a full latency
breakdown (measured client/server compute plus modelled network and
serialisation time).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.backends import SQLBackend
from repro.core.comparators import HeuristicComparator, PlanComparator
from repro.core.encoder import vdt_shape_key
from repro.core.optimizer import OptimizationResult, VegaPlusOptimizer
from repro.core.plan import ExecutionPlan
from repro.errors import OptimizationError
from repro.net.channel import NetworkModel
from repro.net.middleware import MiddlewareServer
from repro.net.serialize import ArrowCodec, Codec
from repro.rewrite.rewriter import RewrittenDataflow
from repro.storage.statistics import CardinalityFeedback
from repro.vega.spec import VegaSpec, parse_spec_dict

if TYPE_CHECKING:  # imports kept lazy; repro.server pulls in the runtime
    from repro.server.session import ClientSession


@dataclass
class LatencyBreakdown:
    """Where the time of one pass went."""

    client_seconds: float = 0.0
    server_seconds: float = 0.0
    network_seconds: float = 0.0
    serialization_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end latency."""
        return (
            self.client_seconds
            + self.server_seconds
            + self.network_seconds
            + self.serialization_seconds
        )


@dataclass
class InteractionResult:
    """Result of the initial rendering or of one interaction."""

    kind: str
    breakdown: LatencyBreakdown
    evaluated_operators: int
    signal_updates: dict[str, object] = field(default_factory=dict)
    #: The dataflow evaluation report (operator ids, per-operator timing);
    #: used by the benchmark harness to encode per-episode plan vectors.
    report: object = None

    @property
    def total_seconds(self) -> float:
        """End-to-end latency of this pass."""
        return self.breakdown.total_seconds


class VegaPlusSystem:
    """The complete VegaPlus stack for one dashboard specification.

    Parameters
    ----------
    spec:
        The dashboard's Vega specification.
    database:
        The server-side backend (any :class:`SQLBackend`).  May be
        omitted when ``middleware`` is given.
    middleware:
        An existing query service to execute through instead of building
        a private :class:`MiddlewareServer` — either a shared middleware
        or a :class:`~repro.server.session.ClientSession`, so per-user
        dashboards can run on one concurrent serving runtime.
    feedback:
        Optional :class:`~repro.storage.statistics.CardinalityFeedback`
        store: every executed pass records its VDTs' true row counts
        under :func:`~repro.core.encoder.vdt_shape_key`, and the next
        :meth:`optimize` (of this or any system sharing the store) blends
        them into the candidates' estimated cardinalities.
    """

    def __init__(
        self,
        spec: VegaSpec | dict,
        database: SQLBackend | None = None,
        comparator: PlanComparator | None = None,
        network: NetworkModel | None = None,
        codec: Codec | None = None,
        enable_cache: bool = True,
        middleware: MiddlewareServer | ClientSession | None = None,
        feedback: CardinalityFeedback | None = None,
    ) -> None:
        self.spec = parse_spec_dict(spec) if isinstance(spec, dict) else spec
        if middleware is not None:
            #: Shared serving runtime: the middleware (or client session)
            #: was built elsewhere; network/codec/cache knobs stay with it.
            self.middleware = middleware
            self.database = middleware.database
        elif database is not None:
            #: The server-side SQL backend.
            self.database = database
            self.middleware = MiddlewareServer(
                self.database,
                network=network or NetworkModel.lan(),
                codec=codec or ArrowCodec(),
                enable_cache=enable_cache,
            )
        else:
            raise OptimizationError(
                "VegaPlusSystem needs a database backend or a middleware/session"
            )
        self.comparator = comparator or HeuristicComparator()
        self.feedback = feedback
        self.optimizer = VegaPlusOptimizer(
            self.spec, self.middleware, self.comparator, feedback=feedback
        )
        self.plan: ExecutionPlan | None = None
        self.rewritten: RewrittenDataflow | None = None
        self.optimization: OptimizationResult | None = None
        self.history: list[InteractionResult] = []

    # ------------------------------------------------------------------ #
    # Plan selection
    # ------------------------------------------------------------------ #
    def optimize(
        self,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ) -> OptimizationResult:
        """Select the session's plan once, up front, and build its dataflow."""
        result = self.optimizer.choose_plan(anticipated_interactions, episode_weights)
        self.use_plan(result.plan)
        self.optimization = result
        return result

    def use_plan(self, plan: ExecutionPlan) -> None:
        """Bypass optimization and execute a specific plan (for baselines)."""
        self.plan = plan
        self.rewritten = self.optimizer.build(plan)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def initialize(self) -> InteractionResult:
        """Run the initial rendering pass of the selected plan."""
        built = self._require_built()
        before = self._vdt_costs(built)
        report = built.dataflow.run()
        result = self._make_result("initial", report, before, built, {})
        self.history.append(result)
        self._record_feedback(result)
        return result

    def _record_feedback(self, result: InteractionResult) -> None:
        """Record the true row counts of the VDTs this pass evaluated."""
        if self.feedback is None:
            return
        built = self._require_built()
        evaluated = set(result.report.evaluated_operators)
        for vdt in built.vdts:
            if vdt.id in evaluated and vdt.last_result is not None:
                self.feedback.observe(
                    vdt_shape_key(vdt.table, vdt.transforms),
                    float(vdt.last_result.cardinality),
                )

    def interact(self, signal_updates: Mapping[str, object]) -> InteractionResult:
        """Apply an interaction (signal updates) and re-evaluate."""
        built = self._require_built()
        before = self._vdt_costs(built)
        report = built.dataflow.update_signals(dict(signal_updates))
        result = self._make_result("interaction", report, before, built, dict(signal_updates))
        self.history.append(result)
        self._record_feedback(result)
        return result

    def run_session(
        self, interactions: Sequence[Mapping[str, object]]
    ) -> list[InteractionResult]:
        """Initial render followed by a sequence of interactions."""
        results = [self.initialize()]
        for interaction in interactions:
            results.append(self.interact(interaction))
        return results

    # ------------------------------------------------------------------ #
    # Results and reporting
    # ------------------------------------------------------------------ #
    def dataset(self, name: str) -> list[dict]:
        """Rows of a named dataset after the most recent pass."""
        built = self._require_built()
        return built.dataflow.dataset(name)

    def session_seconds(self) -> float:
        """Total end-to-end latency across all recorded passes."""
        return sum(result.total_seconds for result in self.history)

    def cache_statistics(self) -> dict[str, object]:
        """Cache behaviour of the middleware."""
        return self.middleware.cache_statistics()

    def stats(self) -> dict[str, object]:
        """One merged snapshot of every subsystem this system touches.

        Combines the backend's :class:`~repro.sql.engine.EngineMetrics`,
        the middleware/session cache statistics, the scheduler's admission
        counters (when a scheduler is attached) and the cardinality
        feedback store's counters (when one is attached).  Backends that
        report partitioned-execution counters additionally get a
        ``partitioning`` section (partitions scanned vs pruned by zone
        maps, the derived pruning rate, and morsel tasks run), and
        backends with IVM counters get an ``ivm`` section (views
        maintained, hits, delta rows vs re-scan rows avoided, MIN/MAX
        retraction fallbacks, invalidations).
        """
        engine = self.database.stats()
        stats: dict[str, object] = {
            "plan": self.describe_plan(),
            "episodes": len(self.history),
            "session_seconds": self.session_seconds(),
            "engine": engine,
            "cache": self.middleware.cache_statistics(),
        }
        if "partitions_scanned" in engine:
            scanned = float(engine.get("partitions_scanned", 0.0))
            pruned = float(engine.get("partitions_pruned", 0.0))
            considered = scanned + pruned
            stats["partitioning"] = {
                "partitions_scanned": scanned,
                "partitions_pruned": pruned,
                "pruning_rate": pruned / considered if considered else 0.0,
                "morsel_tasks": float(engine.get("morsel_tasks", 0.0)),
            }
        if "ivm_hits" in engine:
            delta = float(engine.get("ivm_delta_rows", 0.0))
            avoided = float(engine.get("ivm_rescan_rows_avoided", 0.0))
            considered = delta + avoided
            stats["ivm"] = {
                "views": float(engine.get("ivm_views", 0.0)),
                "hits": float(engine.get("ivm_hits", 0.0)),
                "delta_rows": delta,
                "rescan_rows_avoided": avoided,
                "delta_fraction": delta / considered if considered else 0.0,
                "fallbacks": float(engine.get("ivm_fallbacks", 0.0)),
                "fallback_rows": float(engine.get("ivm_fallback_rows", 0.0)),
                "invalidations": float(engine.get("ivm_invalidations", 0.0)),
            }
        if self.middleware.scheduler is not None:
            stats["scheduler"] = self.middleware.scheduler.snapshot()
        if self.feedback is not None:
            stats["feedback"] = self.feedback.snapshot()
        return stats

    def describe_plan(self) -> str:
        """Human-readable description of the selected plan."""
        if self.plan is None:
            return "<no plan selected>"
        return self.plan.describe(self.spec)

    # ------------------------------------------------------------------ #
    def _require_built(self) -> RewrittenDataflow:
        if self.rewritten is None:
            raise OptimizationError(
                "no plan selected; call optimize() or use_plan() before executing"
            )
        return self.rewritten

    @staticmethod
    def _vdt_costs(built: RewrittenDataflow) -> tuple[float, float, float]:
        return (
            built.server_seconds(),
            built.network_seconds(),
            built.serialization_seconds(),
        )

    def _make_result(
        self,
        kind: str,
        report,
        before: tuple[float, float, float],
        built: RewrittenDataflow,
        signal_updates: dict[str, object],
    ) -> InteractionResult:
        server_delta = built.server_seconds() - before[0]
        network_delta = built.network_seconds() - before[1]
        serialization_delta = built.serialization_seconds() - before[2]
        client_seconds = max(report.total_seconds - server_delta, 0.0)
        breakdown = LatencyBreakdown(
            client_seconds=client_seconds,
            server_seconds=server_delta,
            network_seconds=network_delta,
            serialization_seconds=serialization_delta,
        )
        return InteractionResult(
            kind=kind,
            breakdown=breakdown,
            evaluated_operators=len(report.evaluated_operators),
            signal_updates=signal_updates,
            report=report,
        )
