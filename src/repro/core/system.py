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
from repro.dataflow.graph import EvaluationReport
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
    """Where the time of one pass went, and the bytes it fetched.

    Everything but ``client_seconds`` sums the pass's own server replies
    (:attr:`~repro.dataflow.graph.EvaluationReport.responses`);
    ``bytes_transferred`` leaves out replies a cache served.
    """

    client_seconds: float = 0.0
    server_seconds: float = 0.0
    network_seconds: float = 0.0
    serialization_seconds: float = 0.0
    bytes_transferred: int = 0

    @classmethod
    def of_pass(cls, report: EvaluationReport) -> "LatencyBreakdown":
        """The breakdown of one dataflow pass: its replies, and the rest
        of its measured time as client time."""
        responses = report.responses.values()
        server_seconds = sum(response.server_seconds for response in responses)
        return cls(
            client_seconds=max(report.total_seconds - server_seconds, 0.0),
            server_seconds=server_seconds,
            network_seconds=sum(response.network_seconds for response in responses),
            serialization_seconds=sum(
                response.serialization_seconds for response in responses
            ),
            bytes_transferred=sum(
                response.payload_bytes for response in responses if not response.from_cache
            ),
        )

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
    #: Ids of the operators the pass evaluated, in evaluation order; the
    #: benchmark harness encodes per-episode plan vectors from them.
    operator_ids: list[int] = field(default_factory=list)
    signal_updates: dict[str, object] = field(default_factory=dict)

    @property
    def evaluated_operators(self) -> int:
        """Number of operators the pass evaluated."""
        return len(self.operator_ids)

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
        report = self._require_built().dataflow.run()
        return self._record("initial", report, {})

    def interact(self, signal_updates: Mapping[str, object]) -> InteractionResult:
        """Apply an interaction (signal updates) and re-evaluate."""
        updates = dict(signal_updates)
        report = self._require_built().dataflow.update_signals(updates)
        return self._record("interaction", report, updates)

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

    def _record(
        self, kind: str, report: EvaluationReport, signal_updates: dict[str, object]
    ) -> InteractionResult:
        """Turn one pass into its result, kept in :attr:`history`.

        The pass's replies feed its breakdown and, with a feedback store,
        the true row counts of the VDTs it evaluated; neither the result
        nor the store keeps a reply.
        """
        if self.feedback is not None:
            for vdt in self._require_built().vdts:
                response = report.responses.get(vdt.id)
                if response is not None:
                    self.feedback.observe(
                        vdt_shape_key(vdt.table, vdt.transforms), float(response.num_rows)
                    )
        result = InteractionResult(
            kind=kind,
            breakdown=LatencyBreakdown.of_pass(report),
            operator_ids=report.evaluated_operators,
            signal_updates=signal_updates,
        )
        self.history.append(result)
        return result
