"""The dataflow graph: construction, full and partial evaluation.

A :class:`Dataflow` holds operators connected by two kinds of edges:

* *data edges* — each operator has at most one upstream operator whose row
  output it consumes (Vega data pipelines are linear per data entry, with
  branching where several entries source from the same parent);
* *parameter edges* — an operator's parameters may reference signals or
  another operator's output value (e.g. ``bin`` depending on ``extent``).

Evaluation walks operators in topological order.  A signal update marks
only the operators that (transitively) depend on that signal as stale and
re-evaluates just those — Vega's partial re-evaluation model, which the
VegaPlus optimizer exploits when costing interactions (Section 5.4).
:func:`stale_closure` is that rule, for the dataflow and for the plan
encoder alike.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Iterable, Set
from dataclasses import dataclass, field

from repro.errors import CycleError, DataflowError
from repro.dataflow.operator import (
    EvaluationContext,
    Operator,
    SourceOperator,
)
from repro.dataflow.signals import SignalRegistry


@dataclass
class EvaluationReport:
    """Timing and cardinality information for one dataflow evaluation."""

    evaluated_operators: list[int] = field(default_factory=list)
    operator_seconds: dict[int, float] = field(default_factory=dict)
    operator_cardinality: dict[int, int] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: The server replies operators received in this pass, by operator
    #: id: the pass's server, network and serialisation cost.
    responses: dict[int, object] = field(default_factory=dict)


def stale_closure(
    nodes: Iterable[tuple[Hashable, Set[str], Iterable[Hashable]]],
    changed_signals: Set[str],
) -> set:
    """Keys of the nodes an update of ``changed_signals`` re-runs.

    Each node is ``(key, signals it reads, keys it depends on)``; a
    dependency that is no node's key is ignored.  The stale nodes are
    those reading a changed signal plus every node transitively
    downstream of one.
    """
    dependents: dict[Hashable, list[Hashable]] = {}
    frontier = []
    for key, signals, dependencies in nodes:
        if signals & changed_signals:
            frontier.append(key)
        for dependency in dependencies:
            dependents.setdefault(dependency, []).append(key)
    stale = set(frontier)
    while frontier:
        for dependent in dependents.get(frontier.pop(), ()):
            if dependent not in stale:
                stale.add(dependent)
                frontier.append(dependent)
    return stale


class Dataflow:
    """A directed acyclic graph of dataflow operators plus its signals."""

    def __init__(self) -> None:
        self.signals = SignalRegistry()
        self._operators: dict[int, Operator] = {}
        self._upstream: dict[int, int | None] = {}
        self._named_operators: dict[str, Operator] = {}
        self._datasets: dict[str, int] = {}
        #: The graph is frozen once built, so the evaluation order and the
        #: operators each set of changed signals makes stale are computed
        #: once; every structural change (:meth:`_invalidate`) drops them.
        self._order: list[Operator] | None = None
        self._stale_orders: dict[frozenset[str], list[Operator]] = {}

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def add_operator(
        self,
        operator: Operator,
        source: Operator | None = None,
        name: str | None = None,
    ) -> Operator:
        """Add ``operator``, optionally consuming ``source``'s row output.

        ``name`` registers the operator for parameter references
        (``ParamRef(kind="operator", name=...)``) and dataset lookups.
        """
        if operator.id in self._operators:
            raise DataflowError(f"operator {operator!r} already added")
        if source is not None and source.id not in self._operators:
            raise DataflowError(f"source operator {source!r} is not part of this dataflow")
        self._operators[operator.id] = operator
        self._upstream[operator.id] = source.id if source is not None else None
        if name is not None:
            if name in self._named_operators:
                raise DataflowError(f"operator name {name!r} already in use")
            self._named_operators[name] = operator
        self._invalidate()
        return operator

    def add_source(self, rows: list[dict[str, object]], name: str = "source") -> SourceOperator:
        """Convenience: add a :class:`SourceOperator` holding ``rows``."""
        source = SourceOperator(rows, name=name)
        self.add_operator(source, None, name=name)
        return source

    def mark_dataset(self, name: str, operator: Operator) -> None:
        """Mark ``operator``'s output as the named dataset visible to marks/scales."""
        if operator.id not in self._operators:
            raise DataflowError(f"operator {operator!r} is not part of this dataflow")
        self._datasets[name] = operator.id

    def declare_signal(self, name: str, value: object = None) -> None:
        """Declare an interaction signal."""
        self.signals.declare(name, value=value)
        self._invalidate()

    def _invalidate(self) -> None:
        self._order = None
        self._stale_orders.clear()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def operators(self) -> list[Operator]:
        """All operators in insertion order."""
        return list(self._operators.values())

    def operator_names(self) -> dict[str, Operator]:
        """Mapping of registered operator names."""
        return dict(self._named_operators)

    def upstream_of(self, operator: Operator) -> Operator | None:
        """The operator whose rows ``operator`` consumes, if any."""
        upstream_id = self._upstream.get(operator.id)
        return None if upstream_id is None else self._operators[upstream_id]

    def dataset_names(self) -> list[str]:
        """Names of datasets exposed to the renderer."""
        return sorted(self._datasets)

    def dataset(self, name: str) -> list[dict[str, object]]:
        """Rows of a named dataset from the last evaluation."""
        try:
            operator_id = self._datasets[name]
        except KeyError as exc:
            raise DataflowError(
                f"unknown dataset {name!r}; known: {self.dataset_names()}"
            ) from exc
        operator = self._operators[operator_id]
        if operator.last_result is None:
            raise DataflowError(f"dataset {name!r} has not been evaluated yet")
        return operator.last_result.rows

    def num_operators(self) -> int:
        """Number of operators in the graph."""
        return len(self._operators)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[Operator]:
        """Operators sorted so that every dependency precedes its dependents."""
        if self._order is None:
            self._order = self._sort_topologically()
        return list(self._order)

    def _sort_topologically(self) -> list[Operator]:
        indegree: dict[int, int] = {op_id: 0 for op_id in self._operators}
        dependents: dict[int, list[int]] = {op_id: [] for op_id in self._operators}
        for op_id, operator in self._operators.items():
            deps = self._dependency_ids(operator)
            indegree[op_id] = len(deps)
            for dep in deps:
                dependents[dep].append(op_id)
        ready = [op_id for op_id, degree in indegree.items() if degree == 0]
        ordered: list[Operator] = []
        while ready:
            current = ready.pop(0)
            ordered.append(self._operators[current])
            for dependent in dependents[current]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(ordered) != len(self._operators):
            raise CycleError("dataflow contains a dependency cycle")
        return ordered

    def run(self) -> EvaluationReport:
        """Evaluate the full dataflow."""
        return self._evaluate(self.topological_order())

    def update_signals(self, updates: dict[str, object]) -> EvaluationReport:
        """Update several signals at once (one combined partial re-evaluation)."""
        changed_names = {
            name for name, value in updates.items() if self.signals.set(name, value)
        }
        if not changed_names:
            return EvaluationReport()
        return self._evaluate(self._stale_order(frozenset(changed_names)))

    # ------------------------------------------------------------------ #
    def _dependency_ids(self, operator: Operator) -> set[int]:
        deps: set[int] = set()
        upstream_id = self._upstream.get(operator.id)
        if upstream_id is not None:
            deps.add(upstream_id)
        for ref_name in operator.operator_dependencies():
            referenced = self._named_operators.get(ref_name)
            if referenced is None:
                raise DataflowError(
                    f"operator {operator!r} references unknown operator {ref_name!r}"
                )
            deps.add(referenced.id)
        return deps

    def _stale_order(self, changed_signals: frozenset[str]) -> list[Operator]:
        """Operators to re-run after the given signal changes, in evaluation order."""
        ordered = self._stale_orders.get(changed_signals)
        if ordered is None:
            stale = stale_closure(
                (
                    (op.id, op.signal_dependencies(), self._dependency_ids(op))
                    for op in self._operators.values()
                ),
                changed_signals,
            )
            ordered = [op for op in self.topological_order() if op.id in stale]
            self._stale_orders[changed_signals] = ordered
        return ordered

    def _evaluate(self, operators: Iterable[Operator]) -> EvaluationReport:
        refs = {name: op.id for name, op in self._named_operators.items()}
        start_total = time.perf_counter()
        results = {
            op_id: op.last_result
            for op_id, op in self._operators.items()
            if op.last_result is not None
        }
        context = EvaluationContext(self.signals.values(), results)
        report = EvaluationReport(responses=context.responses)
        for operator in operators:
            upstream = self.upstream_of(operator)
            if upstream is not None:
                if upstream.last_result is None:
                    raise DataflowError(
                        f"operator {operator!r} evaluated before its source {upstream!r}"
                    )
                source_rows = upstream.last_result.rows
            else:
                source_rows = []
            params = operator.resolve_params(context, refs)
            started = time.perf_counter()
            result = operator.evaluate(source_rows, params, context)
            elapsed = time.perf_counter() - started
            operator.last_result = results[operator.id] = result
            report.evaluated_operators.append(operator.id)
            report.operator_seconds[operator.id] = elapsed
            report.operator_cardinality[operator.id] = result.cardinality
        report.total_seconds = time.perf_counter() - start_total
        return report
