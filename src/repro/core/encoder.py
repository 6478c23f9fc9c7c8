"""Plan encoding: execution plans → feature vectors (Section 5.3.1).

A plan vector concatenates, for a fixed list of operator types, (a) the
count of operators of that type in the plan's dataflow and (b) the sum of
their output cardinalities, in rows.  Each comparator maps these raw
vectors to its own features (the learned models compress cardinalities
to an absolute log scale, see
:func:`repro.core.comparators.normalize_cardinalities`).  Structural
features are deliberately omitted — the paper argues the single-threaded,
loop-free client runtime makes operator-type distribution plus
cardinalities sufficient for *pairwise* discrimination.

Two encoding modes are provided:

* *measured* — cardinalities read from an executed dataflow (used to build
  training data, where every candidate plan is executed anyway);
* *estimated* — cardinalities predicted from the backend catalog's
  statistics (table row counts, per-column distinct counts and ranges,
  zone maps, signal-aware filter selectivities) for VDT queries and
  simple propagation rules for client operators (used at optimization
  time, when candidate plans must be ranked without being executed).
  This module is the system's one cardinality estimator.

Estimates are additionally *calibrated* when the encoder is given a
:class:`~repro.storage.statistics.CardinalityFeedback` store: every VDT
has a structural shape key (:func:`vdt_shape_key` — table plus its
literal-stripped transform chain), executed sessions record true VDT
output cardinalities under that key, and the encoder blends its static
estimate with the observed value.  Because the key is structural, an
observation made while executing one plan corrects the estimate of every
candidate plan offloading the same chain.
"""

from __future__ import annotations

import re
from collections.abc import Sequence, Set
from dataclasses import dataclass, field

import numpy as np

from repro.dataflow.graph import stale_closure
from repro.dataflow.operator import Operator, SourceOperator
from repro.expr import parse_expression
from repro.expr.nodes import BinaryNode, IdentifierNode, MemberNode, NumberNode
from repro.rewrite.rewriter import RewrittenDataflow
from repro.rewrite.vdt import VegaDBMSTransform
from repro.backends import SQLBackend
from repro.storage.statistics import (
    CardinalityFeedback,
    TableStatistics,
    ZoneMap,
    zone_maps_range_rows,
)

#: Operator types tracked by the encoder, in feature order.
FEATURE_OPERATOR_TYPES: tuple[str, ...] = (
    "vdt",
    "source",
    "filter",
    "extent",
    "bin",
    "aggregate",
    "joinaggregate",
    "collect",
    "project",
    "formula",
    "stack",
    "timeunit",
    "window",
)


@dataclass
class PlanVector:
    """Feature vector of one execution plan (optionally per interaction)."""

    plan_id: int
    counts: dict[str, float] = field(default_factory=dict)
    cardinalities: dict[str, float] = field(default_factory=dict)
    #: Optional tag identifying which interaction episode produced it.
    episode: int = 0

    def to_array(self) -> np.ndarray:
        """Concatenate count features then cardinality features."""
        counts = [self.counts.get(t, 0.0) for t in FEATURE_OPERATOR_TYPES]
        cards = [self.cardinalities.get(t, 0.0) for t in FEATURE_OPERATOR_TYPES]
        return np.array(counts + cards, dtype=np.float64)

    @property
    def total_cardinality(self) -> float:
        """Sum of output cardinalities across all operator types."""
        return float(sum(self.cardinalities.values()))

    def client_aggregate_count(self) -> float:
        """Number of client-side aggregation operators."""
        return float(
            self.counts.get("aggregate", 0.0) + self.counts.get("joinaggregate", 0.0)
        )

    def client_operator_count(self) -> float:
        """Total number of client-side (non-VDT) operators."""
        return float(
            sum(v for k, v in self.counts.items() if k not in ("vdt", "source"))
        )


def feature_names() -> list[str]:
    """Names of the encoded features, aligned with ``PlanVector.to_array``."""
    return [f"count_{t}" for t in FEATURE_OPERATOR_TYPES] + [
        f"cardinality_{t}" for t in FEATURE_OPERATOR_TYPES
    ]


@dataclass(frozen=True)
class OperatorRecord:
    """Everything plan encoding reads off one operator of a rewritten dataflow.

    ``key`` is ``(data entry, index among the operators that entry
    contributed)``: unique within one dataflow and — unlike an operator id
    — the same in every candidate plan that builds the entry in the same
    context, so records harvested from one build can stand in for the
    operators of another (see ``docs/OPTIMIZER.md``).  Row-stream and
    parameter dependencies are kept symbolically (``upstream`` key,
    ``operator_refs`` names) for the same reason.
    """

    key: tuple[str, int]
    op_type: str
    #: Estimated output cardinality.
    rows: float
    #: Name the operator is registered under, if any.
    name: str | None
    #: Signals the operator's parameters reference.
    signals: frozenset[str]
    #: Key of the operator whose rows this one consumes.
    upstream: tuple[str, int] | None
    #: Names of operators whose output value this one's parameters reference.
    operator_refs: frozenset[str]


def fold_records(
    records: Sequence[OperatorRecord],
    plan_id: int,
    episode: int = 0,
    changed_signals: Set[str] | None = None,
) -> PlanVector:
    """Fold operator records (in dataflow insertion order) into a plan vector.

    With ``changed_signals`` the vector covers only the operators an
    interaction changing those signals re-evaluates (Section 5.4).  The
    per-operator additions are replayed one by one in record order, so a
    vector folded from records assembled out of cached fragments is
    bit-identical to one folded from the plan's own built dataflow.
    """
    vector = PlanVector(plan_id=plan_id, episode=episode)
    if changed_signals is not None:
        key_of_name = {record.name: record.key for record in records if record.name is not None}
        stale = stale_closure(
            (
                (
                    record.key,
                    record.signals,
                    [record.upstream, *map(key_of_name.get, record.operator_refs)],
                )
                for record in records
            ),
            changed_signals,
        )
        records = [record for record in records if record.key in stale]
    counts, cardinalities = vector.counts, vector.cardinalities
    for record in records:
        op_type = record.op_type
        counts[op_type] = counts.get(op_type, 0.0) + 1.0
        cardinalities[op_type] = cardinalities.get(op_type, 0.0) + record.rows
    return vector


#: Default selectivity of a filter whose predicate cannot be analysed.
_FALLBACK_FILTER_SELECTIVITY = 0.3


def vdt_shape_key(table: str, transforms: list[dict]) -> str:
    """Structural feedback key of a VDT: table + literal-stripped chain.

    Two VDTs offloading the same transform chain over the same table —
    whether in the same candidate plan or different ones, and regardless
    of current signal values — share one key, so observed cardinalities
    generalise across the plan space.
    """
    parts = []
    for definition in transforms:
        kind = str(definition.get("type", "?"))
        if kind == "filter":
            expr = str(definition.get("expr", ""))
            detail = re.sub(r"\b\d+(\.\d+)?\b", "?", expr)
        elif kind == "aggregate":
            detail = ",".join(str(f) for f in definition.get("groupby") or [])
        else:
            field_value = definition.get("field")
            if isinstance(field_value, dict):
                detail = str(field_value.get("signal", ""))
            else:
                detail = str(field_value or "")
        parts.append(f"{kind}:{detail}" if detail else kind)
    return f"vdt|{table}|" + ">".join(parts)


class PlanEncoder:
    """Encodes rewritten dataflows into :class:`PlanVector` features.

    Parameters
    ----------
    database:
        Backend whose catalog statistics drive the estimates.
    feedback:
        Optional observed-cardinality store; VDT estimates whose shape
        has live observations are blended towards the observed values.
    """

    def __init__(
        self,
        database: SQLBackend | None = None,
        feedback: CardinalityFeedback | None = None,
    ) -> None:
        self._database = database
        self._feedback = feedback

    # ------------------------------------------------------------------ #
    def encode_measured(
        self,
        rewritten: RewrittenDataflow,
        plan_id: int,
        operator_ids: list[int] | None = None,
        episode: int = 0,
    ) -> PlanVector:
        """Encode from an executed dataflow's actual cardinalities.

        ``operator_ids`` restricts the encoding to the operators evaluated
        in one interaction episode (Section 5.4 collects one vector per
        interaction, covering only the re-evaluated operators).
        """
        vector = PlanVector(plan_id=plan_id, episode=episode)
        wanted = set(operator_ids) if operator_ids is not None else None
        for operator in rewritten.dataflow.operators():
            if wanted is not None and operator.id not in wanted:
                continue
            op_type = _operator_type(operator)
            cardinality = (
                float(operator.last_result.cardinality)
                if operator.last_result is not None
                else 0.0
            )
            vector.counts[op_type] = vector.counts.get(op_type, 0.0) + 1.0
            vector.cardinalities[op_type] = (
                vector.cardinalities.get(op_type, 0.0) + cardinality
            )
        return vector

    def encode_estimated(
        self, rewritten: RewrittenDataflow, plan_id: int, episode: int = 0
    ) -> PlanVector:
        """Encode without executing, using catalog-statistics estimates."""
        return fold_records(self.operator_records(rewritten), plan_id, episode)

    def operator_records(self, rewritten: RewrittenDataflow) -> list[OperatorRecord]:
        """One estimated :class:`OperatorRecord` per operator, in insertion order."""
        dataflow = rewritten.dataflow
        estimates = self._estimate_cardinalities(rewritten)
        key_of = {
            operator.id: (entry, index)
            for entry, operators in rewritten.entry_operators.items()
            for index, operator in enumerate(operators)
        }
        name_of = {operator.id: name for name, operator in dataflow.operator_names().items()}
        records = []
        for operator in dataflow.operators():
            upstream = dataflow.upstream_of(operator)
            records.append(
                OperatorRecord(
                    key=key_of[operator.id],
                    op_type=_operator_type(operator),
                    rows=estimates.get(operator.id, 0.0),
                    name=name_of.get(operator.id),
                    signals=frozenset(operator.signal_dependencies()),
                    upstream=key_of[upstream.id] if upstream is not None else None,
                    operator_refs=frozenset(operator.operator_dependencies()),
                )
            )
        return records

    # ------------------------------------------------------------------ #
    def _estimate_cardinalities(self, rewritten: RewrittenDataflow) -> dict[int, float]:
        estimates: dict[int, float] = {}
        dataflow = rewritten.dataflow
        signals = dataflow.signals.values()
        for operator in dataflow.topological_order():
            upstream = dataflow.upstream_of(operator)
            input_rows = estimates.get(upstream.id, 0.0) if upstream is not None else 0.0
            estimates[operator.id] = self._estimate_operator(operator, input_rows, signals)
        return estimates

    def _estimate_operator(
        self, operator: Operator, input_rows: float, signals: dict[str, object]
    ) -> float:
        if isinstance(operator, VegaDBMSTransform):
            return self._estimate_vdt(operator, signals)
        if isinstance(operator, SourceOperator):
            return float(len(operator.rows))
        name = operator.name
        if name == "filter":
            return input_rows * _FALLBACK_FILTER_SELECTIVITY
        if name == "aggregate":
            groupby = operator.params.get("groupby") or []
            if not groupby:
                return 1.0
            return float(min(input_rows, 50.0 ** min(len(groupby), 2) * 4))
        if name == "extent":
            return input_rows
        return input_rows

    def _estimate_vdt(self, vdt: VegaDBMSTransform, signals: dict[str, object]) -> float:
        if vdt.value_kind == "extent":
            return 1.0
        database = self._database or vdt.middleware.database
        statistics: TableStatistics | None = None
        zone_maps: list[ZoneMap] | None = None
        table_rows = 0.0
        if database is not None and database.catalog.has(vdt.table):
            statistics = database.table_statistics(vdt.table)
            table_rows = float(statistics.num_rows)
            zone_maps = database.catalog.zone_maps(vdt.table)
        if not vdt.transforms:
            return self._correct(vdt, table_rows)
        rows = table_rows
        #: Columns produced by earlier transforms in this chain, mapped to
        #: (origin index, distinct-count bound) — ``bin`` emits two
        #: perfectly correlated bin-edge columns bounded by ``maxbins``.
        derived: dict[str, tuple[int, float]] = {}
        for index, definition in enumerate(vdt.transforms):
            kind = definition.get("type")
            if kind == "filter":
                rows *= _filter_selectivity(
                    str(definition.get("expr", "")), statistics, signals, zone_maps
                )
            elif kind == "extent":
                rows = 1.0
            elif kind == "bin":
                maxbins = _resolve_numeric(definition.get("maxbins"), signals) or 20.0
                for name in definition.get("as") or ("bin0", "bin1"):
                    derived[str(name)] = (index, float(maxbins))
            elif kind == "aggregate":
                rows = _aggregate_groups(definition, rows, statistics, derived)
        return self._correct(vdt, rows)

    def _correct(self, vdt: VegaDBMSTransform, estimate: float) -> float:
        """Blend the static estimate with live observations of this shape."""
        if self._feedback is None:
            return estimate
        return self._feedback.correct(vdt_shape_key(vdt.table, vdt.transforms), estimate)


def _resolve_numeric(value: object, signals: dict[str, object]) -> float | None:
    """A numeric transform parameter, following ``{"signal": name}`` refs."""
    if isinstance(value, dict):
        value = signals.get(str(value.get("signal")))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _aggregate_groups(
    definition: dict,
    input_rows: float,
    statistics: TableStatistics | None,
    derived: dict[str, tuple[int, float]] | None = None,
) -> float:
    """Estimated group count of a server-side aggregate.

    Uses the per-column distinct counts (independence assumption) when
    the group keys are plain table columns with statistics.  Keys produced by an earlier ``bin`` in the chain
    are bounded by its ``maxbins`` — counted once per originating bin,
    since bin-edge pairs are perfectly correlated.  Falls back to the
    fixed fan-out guess when a key is entirely unknown.
    """
    groupby = definition.get("groupby") or []
    if not groupby:
        return 1.0
    derived = derived or {}
    distinct_product = 1.0
    seen_origins: set[int] = set()
    from_statistics = True
    for key in groupby:
        if isinstance(key, str) and key in derived:
            origin, distinct = derived[key]
            if origin not in seen_origins:
                seen_origins.add(origin)
                distinct_product *= distinct
            continue
        column_stats = (
            statistics.column(key)
            if statistics is not None and isinstance(key, str)
            else None
        )
        if column_stats is None or column_stats.num_distinct <= 0:
            from_statistics = False
            break
        distinct_product *= float(column_stats.num_distinct)
    if not from_statistics:
        distinct_product = 50.0 ** min(len(groupby), 2) * 4
    return float(min(max(input_rows, 1.0), distinct_product))


def _filter_selectivity(
    expr: str,
    statistics: TableStatistics | None,
    signals: dict[str, object],
    zone_maps: list[ZoneMap] | None = None,
) -> float:
    """Selectivity of a Vega filter expression from column statistics.

    Understands conjunctions/disjunctions of ``datum.col <op> bound``
    comparisons where the bound is a number literal or a signal with a
    numeric *current* value — exactly the shapes crossfilter dashboards
    emit.  Anything else falls back to the fixed guess.

    When the table is partitioned, range selectivities are summed from
    the per-partition zone maps instead of whole-table uniformity:
    partitions whose zones exclude the range contribute zero rows, so
    the estimate reflects exactly the pruning the executor will do —
    and within kept partitions the zone's own (tighter) span replaces
    the global one, which matters for clustered data.
    """
    if statistics is None or not expr:
        return _FALLBACK_FILTER_SELECTIVITY
    try:
        node = parse_expression(expr)
    except Exception:
        return _FALLBACK_FILTER_SELECTIVITY
    selectivity = _node_selectivity(node, statistics, signals, zone_maps)
    if selectivity is None:
        return _FALLBACK_FILTER_SELECTIVITY
    return float(min(max(selectivity, 0.0), 1.0))


def _node_selectivity(
    node: object,
    statistics: TableStatistics,
    signals: dict[str, object],
    zone_maps: list[ZoneMap] | None = None,
) -> float | None:
    if not isinstance(node, BinaryNode):
        return None
    if node.op == "&&":
        left = _node_selectivity(node.left, statistics, signals, zone_maps)
        right = _node_selectivity(node.right, statistics, signals, zone_maps)
        if left is None or right is None:
            return None
        return left * right
    if node.op == "||":
        left = _node_selectivity(node.left, statistics, signals, zone_maps)
        right = _node_selectivity(node.right, statistics, signals, zone_maps)
        if left is None or right is None:
            return None
        return min(1.0, left + right - left * right)
    comparison = _comparison_parts(node, signals)
    if comparison is None:
        return None
    column, op, bound = comparison
    if op in (">", ">=", "<", "<="):
        low, high = (bound, None) if op in (">", ">=") else (None, bound)
        zoned = _zone_map_selectivity(zone_maps, statistics, column, low, high)
        if zoned is not None:
            return zoned
    column_stats = statistics.column(column)
    if column_stats is None:
        return None
    if op == "==":
        return column_stats.selectivity_equals()
    if op == "!=":
        return 1.0 - column_stats.selectivity_equals()
    if op in (">", ">="):
        return column_stats.selectivity_range(bound, None)
    return column_stats.selectivity_range(None, bound)


def _zone_map_selectivity(
    zone_maps: list[ZoneMap] | None,
    statistics: TableStatistics,
    column: str,
    low: float | None,
    high: float | None,
) -> float | None:
    """Range selectivity summed over per-partition zone maps, if any."""
    if not zone_maps or statistics.num_rows <= 0:
        return None
    rows = zone_maps_range_rows(zone_maps, column, low, high)
    if rows is None:
        return None
    return min(1.0, rows / float(statistics.num_rows))


def _comparison_parts(
    node: BinaryNode, signals: dict[str, object]
) -> tuple[str, str, float] | None:
    """Extract ``(column, op, numeric bound)`` from a comparison node."""
    if node.op not in ("<", "<=", ">", ">=", "==", "!="):
        return None
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    column = _datum_column(node.left)
    bound = _numeric_value(node.right, signals)
    op = node.op
    if column is None or bound is None:
        column = _datum_column(node.right)
        bound = _numeric_value(node.left, signals)
        op = flipped.get(node.op, node.op)
    if column is None or bound is None:
        return None
    return column, op, bound


def _datum_column(node: object) -> str | None:
    if (
        isinstance(node, MemberNode)
        and isinstance(node.obj, IdentifierNode)
        and node.obj.name == "datum"
    ):
        return node.member
    return None


def _numeric_value(node: object, signals: dict[str, object]) -> float | None:
    if isinstance(node, NumberNode):
        return float(node.value)
    if isinstance(node, IdentifierNode):
        value = signals.get(node.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


def _operator_type(operator: Operator) -> str:
    if isinstance(operator, VegaDBMSTransform):
        return "vdt"
    if isinstance(operator, SourceOperator):
        return "source"
    return operator.name if operator.name in FEATURE_OPERATOR_TYPES else "formula"
