"""Dataflow operators.

An operator consumes the rows produced by its upstream operator (if any),
reads parameters that may reference signals or other operators' outputs,
and produces rows (and optionally a scalar/structured *value*, e.g. the
``extent`` transform outputs ``[min, max]`` that other operators consume
as a signal-like parameter).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import DataflowError

#: Counter used to assign unique operator ids within a process.
_operator_ids = itertools.count(1)


@dataclass(frozen=True)
class ParamRef:
    """A parameter value that is resolved at evaluation time.

    ``kind`` is ``"signal"`` for signal references and ``"operator"`` for
    references to another operator's output value (e.g. the extent
    transform's ``[min, max]`` pair).
    """

    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in ("signal", "operator"):
            raise DataflowError(f"invalid ParamRef kind {self.kind!r}")


@dataclass
class OperatorResult:
    """Output of one operator evaluation."""

    rows: list[dict[str, object]] = field(default_factory=list)
    value: object = None

    @property
    def cardinality(self) -> int:
        """Number of output rows."""
        return len(self.rows)


class EvaluationContext:
    """Runtime information passed to operators during evaluation."""

    def __init__(
        self,
        signals: Mapping[str, object],
        operator_values: Mapping[int, OperatorResult],
    ) -> None:
        self._signals = signals
        self._operator_values = operator_values
        #: Server replies received during this pass, by operator id (a
        #: :class:`~repro.net.middleware.QueryResponse` each).
        self.responses: dict[int, object] = {}

    def signal(self, name: str) -> object:
        """Current value of a signal."""
        try:
            return self._signals[name]
        except KeyError as exc:
            raise DataflowError(f"operator references unknown signal {name!r}") from exc

    def signals(self) -> dict[str, object]:
        """All signal values (used by expression evaluation)."""
        return dict(self._signals)

    def operator_value(self, operator_id: int) -> object:
        """The ``value`` output of a previously evaluated operator."""
        try:
            return self._operator_values[operator_id].value
        except KeyError as exc:
            raise DataflowError(
                f"operator {operator_id} has not been evaluated yet"
            ) from exc


class Operator:
    """Base class for all dataflow operators.

    Parameters
    ----------
    name:
        Operator type name (``"filter"``, ``"bin"``, ...).
    params:
        Static parameters; values may be :class:`ParamRef` instances (or
        contain them in lists), which are resolved against signals and
        upstream operator outputs at evaluation time.
    """

    def __init__(self, name: str, params: dict | None = None) -> None:
        self.id = next(_operator_ids)
        self.name = name
        self.params = dict(params or {})
        #: Last produced result (kept so downstream operators and the
        #: plan encoder can read cardinalities without re-running).
        self.last_result: OperatorResult | None = None

    # ------------------------------------------------------------------ #
    def signal_dependencies(self) -> set[str]:
        """Names of signals referenced by this operator's parameters."""
        found: set[str] = set()
        _collect_refs(self.params, "signal", found)
        return found

    def operator_dependencies(self) -> set[str]:
        """Names of operators referenced by this operator's parameters."""
        found: set[str] = set()
        _collect_refs(self.params, "operator", found)
        return found

    def resolve_params(self, context: EvaluationContext, refs: Mapping[str, int]) -> dict:
        """Resolve :class:`ParamRef` values to concrete parameter values.

        ``refs`` maps referenced operator names to their operator ids
        (assigned by the dataflow when the graph is built).
        """
        return _resolve(self.params, context, refs)

    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        """Produce this operator's output.

        Subclasses override this.  ``source`` is the upstream operator's
        row output (already materialised), ``params`` are fully resolved.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.id}, name={self.name!r})"


class SourceOperator(Operator):
    """A data source holding rows directly (client-side data).

    In plain Vega the data source is a parsed CSV/JSON payload; in VegaPlus
    plans where the source stays on the client, this operator holds the
    full dataset in browser memory.
    """

    def __init__(self, rows: list[dict[str, object]], name: str = "source") -> None:
        super().__init__(name=name, params={})
        self.rows = list(rows)

    def evaluate(
        self,
        source: list[dict[str, object]],
        params: dict,
        context: EvaluationContext,
    ) -> OperatorResult:
        return OperatorResult(rows=list(self.rows))


def _collect_refs(value: object, kind: str, found: set[str]) -> None:
    if isinstance(value, ParamRef):
        if value.kind == kind:
            found.add(value.name)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_refs(item, kind, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_refs(item, kind, found)


def _resolve(value: object, context: EvaluationContext, refs: Mapping[str, int]) -> object:
    if isinstance(value, ParamRef):
        if value.kind == "signal":
            return context.signal(value.name)
        operator_id = refs.get(value.name)
        if operator_id is None:
            raise DataflowError(f"unresolved operator reference {value.name!r}")
        return context.operator_value(operator_id)
    if isinstance(value, dict):
        return {k: _resolve(v, context, refs) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_resolve(v, context, refs) for v in value]
    return value
