"""The VegaPlus optimizer facade.

Given a specification, a backend database (via the middleware) and a plan
comparator, the optimizer enumerates candidate plans, encodes them (without
executing them) from cardinalities that :mod:`repro.core.encoder` estimates
from catalog statistics, optionally derives one vector per anticipated
interaction, and selects the plan the comparator predicts to be fastest
for the whole session.

The optimizer decides once per session, before it starts
(:meth:`VegaPlusOptimizer.choose_plan`).  The only runtime input it reads
is an optional :class:`~repro.storage.statistics.CardinalityFeedback`
store of VDT row counts observed by earlier sessions, which corrects the
encoder's estimates.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.comparators import HeuristicComparator, PlanComparator
from repro.core.consolidation import SessionDecision, consolidate_session
from repro.core.encoder import (
    OperatorRecord,
    PlanEncoder,
    PlanVector,
    fold_records,
    normalize_cardinalities,
)
from repro.core.enumerator import PlanEnumerator
from repro.core.plan import ExecutionPlan
from repro.errors import OptimizationError
from repro.net.middleware import MiddlewareServer
from repro.rewrite.rewriter import RewrittenDataflow, SpecRewriter
from repro.storage.statistics import CardinalityFeedback
from repro.vega.spec import VegaSpec, parse_spec_dict


@dataclass
class OptimizationResult:
    """Outcome of plan selection."""

    plan: ExecutionPlan
    candidate_plans: list[ExecutionPlan] = field(default_factory=list)
    decision: SessionDecision | None = None
    vectors: list[PlanVector] = field(default_factory=list)

    @property
    def n_candidates(self) -> int:
        """Number of plans that were considered."""
        return len(self.candidate_plans)


class _PlanSpace:
    """The operators of every candidate plan, assembled from entry fragments.

    Candidate plans are a product of per-entry split choices, and what
    :meth:`SpecRewriter.build` adds for one data entry — and what those
    operators estimate to — depends only on the entry's *context*: its
    split, whether its rows are needed on the client, and the same for
    each ancestor up the ``source`` chain.  So a plan is really built
    only when one of its entries appears in a context no earlier plan
    had; the entry fragments harvested from that build are then
    concatenated, in ``spec.data`` order, into the operator records of
    every other plan sharing the context.

    One instance serves one :meth:`VegaPlusOptimizer.encode_candidates`
    call: fragments carry cardinality estimates, which must be read from
    the statistics and feedback of *that* call.
    """

    def __init__(self, rewriter: SpecRewriter, encoder: PlanEncoder) -> None:
        self._rewriter = rewriter
        self._encoder = encoder
        self._fragments: dict[tuple, list[OperatorRecord]] = {}

    def records(self, plan: ExecutionPlan) -> list[OperatorRecord]:
        """Operator records of ``plan``, as its own built dataflow would yield."""
        assignment = plan.as_dict()
        contexts = self._contexts(assignment)
        if any(context not in self._fragments for context in contexts.values()):
            built = self._rewriter.build(assignment)
            fragments: dict[str, list[OperatorRecord]] = {name: [] for name in contexts}
            for record in self._encoder.operator_records(built):
                fragments[record.key[0]].append(record)
            for name, context in contexts.items():
                self._fragments.setdefault(context, fragments[name])
        return [
            record for context in contexts.values() for record in self._fragments[context]
        ]

    def _contexts(self, assignment: Mapping[str, int]) -> dict[str, tuple]:
        """Per data entry (in ``spec.data`` order), the key of its build context."""
        needed = self._rewriter.client_row_consumers(assignment)
        contexts: dict[str, tuple] = {}
        for entry in self._rewriter.spec.data:
            contexts[entry.name] = (
                entry.name,
                int(assignment.get(entry.name, 0)),
                entry.name in needed,
                contexts.get(entry.source),
            )
        return contexts


class VegaPlusOptimizer:
    """Enumerates, encodes and ranks execution plans for one specification.

    Parameters
    ----------
    spec:
        The Vega specification (a raw ``dict`` or a parsed
        :class:`~repro.vega.spec.VegaSpec`).
    middleware:
        The middleware server (or per-user
        :class:`~repro.server.session.ClientSession`) wrapping the
        backend database.
    comparator:
        A plan comparator; defaults to the training-free
        :class:`~repro.core.comparators.HeuristicComparator`.
    feedback:
        Optional :class:`~repro.storage.statistics.CardinalityFeedback`
        store of observed result cardinalities; when given, candidate
        encodings blend the encoder's static estimates with live
        observations.
    """

    def __init__(
        self,
        spec: VegaSpec | dict,
        middleware: MiddlewareServer,
        comparator: PlanComparator | None = None,
        feedback: CardinalityFeedback | None = None,
    ) -> None:
        self.spec = parse_spec_dict(spec) if isinstance(spec, dict) else spec
        self.middleware = middleware
        self.comparator = comparator or HeuristicComparator()
        self.feedback = feedback
        self.enumerator = PlanEnumerator(self.spec)
        self.rewriter = SpecRewriter(self.spec, middleware)
        self.encoder = PlanEncoder(middleware.database, feedback=feedback)

    # ------------------------------------------------------------------ #
    def enumerate_plans(self) -> list[ExecutionPlan]:
        """All valid candidate plans."""
        return self.enumerator.enumerate()

    def build(self, plan: ExecutionPlan) -> RewrittenDataflow:
        """Materialise the dataflow implementing ``plan`` (not yet executed)."""
        return self.rewriter.build(plan.as_dict())

    def encode_candidates(
        self,
        plans: Sequence[ExecutionPlan],
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        normalize: bool | None = None,
    ) -> list[list[PlanVector]]:
        """Encode every candidate, optionally once per anticipated interaction.

        Returns ``episode_vectors`` where ``episode_vectors[e][p]`` is plan
        ``p``'s vector for episode ``e`` (episode 0 = initial rendering;
        episode ``e > 0`` covers only the operators interaction ``e``
        re-evaluates).  Every vector equals
        ``encoder.encode_estimated(self.build(plan))`` restricted likewise,
        but candidates are not built one by one — see :class:`_PlanSpace`.

        ``normalize`` controls whether cardinalities are log-normalised;
        the default follows the configured comparator's
        ``wants_normalized`` flag (learned models train on normalised
        features, rule-based models reason about raw row counts).
        """
        if not plans:
            raise OptimizationError("no candidate plans to encode")
        if normalize is None:
            normalize = self.comparator.wants_normalized
        scale = normalize_cardinalities if normalize else list
        space = _PlanSpace(self.rewriter, self.encoder)
        records = [space.records(plan) for plan in plans]
        changed_per_episode = [None, *(set(i) for i in anticipated_interactions or [])]
        return [
            scale(
                [
                    fold_records(plan_records, plan.plan_id, episode, changed)
                    for plan, plan_records in zip(plans, records)
                ]
            )
            for episode, changed in enumerate(changed_per_episode)
        ]

    def choose_plan(
        self,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ) -> OptimizationResult:
        """Select the best plan for the (anticipated) session."""
        plans = self.enumerate_plans()
        if len(plans) == 1:
            return OptimizationResult(plan=plans[0], candidate_plans=plans)
        episodes = self.encode_candidates(plans, anticipated_interactions)
        decision = consolidate_session(self.comparator, episodes, episode_weights)
        best = plans[decision.best_plan_index]
        return OptimizationResult(
            plan=best,
            candidate_plans=plans,
            decision=decision,
            vectors=episodes[0],
        )
