"""The VegaDBMSTransform (VDT) operator.

A VDT replaces a chain of Vega transforms that the optimizer assigned to
the server.  It is an atypical transform: it takes no input tuples from
the upstream dataflow — its "input" is the DBMS table it targets.  When
evaluated (initially or after a signal update), it resolves its parameters
(signals, upstream operator values such as an extent), builds the batched
SQL query from the rewrite templates, sends it through the middleware and
emits the result rows for propagation downstream (Section 4).  The
:class:`~repro.net.middleware.QueryResponse` goes to the pass's
:class:`~repro.dataflow.graph.EvaluationReport`, which is all a pass's
cost is computed from.
"""

from __future__ import annotations

from repro.dataflow.operator import EvaluationContext, Operator, OperatorResult
from repro.errors import RewriteError
from repro.expr import parse_expression, referenced_signals
from repro.net.middleware import MiddlewareServer
from repro.rewrite.templates import QueryFragment, apply_transform


class VegaDBMSTransform(Operator):
    """A server-executed chain of transforms, expressed as one SQL query.

    Parameters
    ----------
    table:
        The DBMS table the query reads.
    transforms:
        The raw transform definitions assigned to this VDT, in order.
    middleware:
        The middleware server used to execute queries.
    value_kind:
        When the last transform is an ``extent``, the VDT exposes
        ``[min, max]`` as its output value so downstream operators (a
        client-side ``bin`` or another VDT) can reference it; set
        ``value_kind="extent"`` to enable this.
    """

    def __init__(
        self,
        table: str,
        transforms: list[dict],
        middleware: MiddlewareServer,
        value_kind: str | None = None,
        params: dict | None = None,
    ) -> None:
        super().__init__(name="vdt", params=params or {})
        self.table = table
        self.transforms = [dict(t) for t in transforms]
        self.middleware = middleware
        self.value_kind = value_kind
        # ``transforms`` and ``params`` are private copies, so the signals
        # they reference are fixed at construction.
        deps = super().signal_dependencies()
        for definition in self.transforms:
            deps |= _definition_signal_refs(definition)
        self._signal_dependencies = frozenset(deps)

    # ------------------------------------------------------------------ #
    def signal_dependencies(self) -> set[str]:
        """Signals referenced by any of the wrapped transform definitions."""
        return set(self._signal_dependencies)

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        response = self.middleware.execute(self.build_sql(params, context))
        rows = response.rows
        value = None
        if self.value_kind == "extent":
            value = _extract_extent(rows)
        context.responses[self.id] = response
        return OperatorResult(rows=rows, value=value)

    def build_sql(self, params: dict, context: EvaluationContext) -> str:
        """Build the batched SQL query with all parameter holes filled.

        The text is the same for every backend.  When signal values fill
        holes the query is a :class:`~repro.sql.tokenizer.PreparedSQL`,
        whose shape the engine planned at the first evaluation and now
        only binds.
        """
        fragment = QueryFragment.for_table(self.table)
        signal_values = context.signals()
        resolved_list = params.get("_resolved_transforms")
        if not isinstance(resolved_list, list) or len(resolved_list) != len(self.transforms):
            raise RewriteError(
                "VDT parameters must include '_resolved_transforms' aligned with its transforms"
            )
        for definition, resolved in zip(self.transforms, resolved_list):
            resolved = dict(resolved)
            resolved["_signals"] = signal_values
            fragment = apply_transform(fragment, definition, resolved)
        return fragment.to_sql()


def _definition_signal_refs(definition: dict) -> set[str]:
    """Signals referenced in a raw transform definition.

    Covers both explicit ``{"signal": name}`` parameter references and
    signals used inside filter/formula expression strings.
    """
    found: set[str] = set()

    def visit(value: object) -> None:
        if isinstance(value, dict):
            if set(value) == {"signal"} and isinstance(value["signal"], str):
                found.add(value["signal"])
                return
            for item in value.values():
                visit(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)

    for key, value in definition.items():
        if key == "signal":
            continue
        visit(value)
    expr = definition.get("expr")
    if isinstance(expr, str):
        try:
            found |= referenced_signals(parse_expression(expr))
        except Exception:  # pragma: no cover - malformed expressions surface later
            pass
    return found


def _extract_extent(rows: list[dict]) -> list[float]:
    if not rows:
        return [0.0, 0.0]
    row = rows[0]
    minimum = row.get("min_val")
    maximum = row.get("max_val")
    return [
        float(minimum) if isinstance(minimum, (int, float)) else 0.0,
        float(maximum) if isinstance(maximum, (int, float)) else 0.0,
    ]
