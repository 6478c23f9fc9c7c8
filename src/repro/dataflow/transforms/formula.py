"""The ``formula`` transform: derive a new field from an expression."""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import DataflowError
from repro.expr import Evaluator, parse_expression, referenced_signals


class FormulaTransform(Operator):
    """Adds a computed field to every row.

    Parameters: ``expr`` — Vega expression evaluated per datum; ``as`` —
    the name of the derived field.
    """

    def __init__(self, params: dict | None = None) -> None:
        super().__init__(name="formula", params=params)
        expr = self.params.get("expr")
        if not isinstance(expr, str):
            raise DataflowError("formula transform requires a string 'expr' parameter")
        if not self.params.get("as"):
            raise DataflowError("formula transform requires an 'as' output field name")
        self._ast = parse_expression(expr)

    def signal_dependencies(self) -> set[str]:
        deps = super().signal_dependencies()
        deps |= referenced_signals(self._ast)
        return deps

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        output = params["as"]
        evaluator = Evaluator(signals=context.signals())
        rows = []
        for row in source:
            updated = dict(row)
            updated[output] = evaluator.evaluate(self._ast, row)
            rows.append(updated)
        return OperatorResult(rows=rows)
