"""The ``filter`` transform: keep rows satisfying a Vega expression."""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError
from repro.expr import Evaluator, parse_expression


class FilterTransform(Operator):
    """Filters rows by a predicate written in the Vega expression language.

    Parameters (Vega JSON): ``expr`` — the predicate, e.g.
    ``"datum.delay > 10 && datum.delay < 30"``.  The expression may
    reference signals, which are resolved from the dataflow's signal
    registry at evaluation time.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="filter", params=params)
        expr = self.params.get("expr")
        if not isinstance(expr, str):
            raise DataflowError("filter transform requires a string 'expr' parameter")
        self._ast = parse_expression(expr)

    def signal_dependencies(self) -> set[str]:
        """Signals referenced in parameters or inside the filter expression."""
        from repro.expr import referenced_signals

        deps = super().signal_dependencies()
        deps |= referenced_signals(self._ast)
        return deps

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        evaluator = Evaluator(signals=context.signals())
        kept = [row for row in source if _truthy(evaluator.evaluate(self._ast, row))]
        return OperatorResult(rows=kept)


def _truthy(value: object) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return len(value) > 0
    return True
