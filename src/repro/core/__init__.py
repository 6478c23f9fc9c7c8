"""The VegaPlus optimizer: the paper's primary contribution.

Pipeline (Section 5):

1. :class:`~repro.core.enumerator.PlanEnumerator` — enumerate all valid
   client/server partitionings ("execution plans") of a specification,
   respecting data dependencies and SQL-rewritability.
2. :class:`~repro.core.encoder.PlanEncoder` — encode each plan as a feature
   vector of operator-type counts and per-type output cardinalities (raw
   row counts).
3. :mod:`~repro.core.comparators` — pairwise plan comparators: the naive
   learned models (RankSVM, Random Forest), the heuristic rule model and
   the random baseline; each maps raw vectors to its own features.
4. :mod:`~repro.core.consolidation` — combine per-interaction decisions
   into one plan for a whole exploration session.
5. :class:`~repro.core.optimizer.VegaPlusOptimizer` and
   :class:`~repro.core.system.VegaPlusSystem` — the user-facing facade that
   ties enumeration, encoding, comparison and execution together; the plan
   is chosen once, before the session starts.
"""

from repro.core.plan import ExecutionPlan
from repro.core.enumerator import PlanEnumerator
from repro.core.encoder import PlanEncoder, PlanVector, FEATURE_OPERATOR_TYPES, vdt_shape_key
from repro.core.comparators import (
    PlanComparator,
    RankSVMComparator,
    RandomForestComparator,
    HeuristicComparator,
    RandomComparator,
    train_comparator,
)
from repro.core.consolidation import consolidate_session, SessionDecision
from repro.core.optimizer import VegaPlusOptimizer, OptimizationResult
from repro.core.system import VegaPlusSystem, InteractionResult

__all__ = [
    "ExecutionPlan",
    "PlanEnumerator",
    "PlanEncoder",
    "PlanVector",
    "FEATURE_OPERATOR_TYPES",
    "vdt_shape_key",
    "PlanComparator",
    "RankSVMComparator",
    "RandomForestComparator",
    "HeuristicComparator",
    "RandomComparator",
    "train_comparator",
    "consolidate_session",
    "SessionDecision",
    "VegaPlusOptimizer",
    "OptimizationResult",
    "VegaPlusSystem",
    "InteractionResult",
]
