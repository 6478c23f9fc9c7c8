"""SQL query builders for Vega transforms.

Each rewritable transform contributes to a :class:`QueryFragment`, a small
intermediate representation of a single-block SQL query (source, projected
items, predicates, grouping, ordering).  Adjacent transforms are *batched*
into one fragment when they compose within a single SQL block; when they
do not (e.g. filtering the output of an aggregation), the current fragment
is wrapped as a sub-query and a new block starts — this implements the
paper's recursive rewriting of multiple transforms into one nested query,
while the single-block composition plays the role of its rule-based
flattening into readable SQL.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.backends import EMBEDDED_CAPABILITIES, BackendCapabilities
from repro.errors import ExpressionTranslationError, RewriteError
from repro.expr import to_sql
from repro.dataflow.transforms.bin import compute_bins
from repro.dataflow.transforms.timeunit import UNIT_SECONDS

#: Transform types the rewriter can translate to SQL.
REWRITABLE_TRANSFORMS = frozenset(
    {"filter", "extent", "bin", "aggregate", "collect", "project", "stack", "timeunit"}
)

#: Transform types that compile to window functions (backend-dependent).
_WINDOW_TRANSFORMS = frozenset({"stack"})

#: Transform types whose generated SQL calls FLOOR (backend-dependent).
_FLOOR_TRANSFORMS = frozenset({"bin", "timeunit"})

#: Vega aggregate op name → SQL aggregate function.
_AGG_SQL = {
    "count": "COUNT",
    "sum": "SUM",
    "mean": "AVG",
    "average": "AVG",
    "min": "MIN",
    "max": "MAX",
    "median": "MEDIAN",
    "stdev": "STDDEV",
    "variance": "VARIANCE",
    "distinct": "COUNT",
}


def transform_supports_sql(
    transform_type: str, capabilities: BackendCapabilities | None = None
) -> bool:
    """Whether a transform type can be offloaded to the DBMS.

    With ``capabilities`` the answer is backend-specific: a ``stack``
    needs window functions, and ``bin``/``timeunit`` need ``FLOOR``.
    Without, the answer is dialect-agnostic (used by the enumerator,
    which sizes the plan space before a backend is chosen).
    """
    if transform_type not in REWRITABLE_TRANSFORMS:
        return False
    if capabilities is None:
        return True
    if transform_type in _WINDOW_TRANSFORMS and not capabilities.supports_window_functions:
        return False
    if transform_type in _FLOOR_TRANSFORMS and not capabilities.supports_scalar("FLOOR"):
        return False
    return True


@dataclass
class QueryFragment:
    """A single-block SQL query under construction.

    ``dialect`` carries the target backend's capabilities so rendering
    can add the clauses that backend needs to reach the shared semantics
    (``NULLS LAST`` on ascending sort keys, explicit ROWS window frames).
    """

    source: str
    source_is_subquery: bool = False
    select_items: list[str] = field(default_factory=list)
    where: list[str] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    order_by: list[str] = field(default_factory=list)
    limit: int | None = None
    #: True once GROUP BY / aggregates are present: later per-row transforms
    #: must nest rather than compose.
    aggregated: bool = False
    #: Capabilities of the backend this SQL targets.
    dialect: BackendCapabilities = EMBEDDED_CAPABILITIES

    # -------------------------------------------------------------- #
    @classmethod
    def for_table(
        cls, table: str, dialect: BackendCapabilities = EMBEDDED_CAPABILITIES
    ) -> "QueryFragment":
        """Start a fragment scanning a base table."""
        return cls(source=table, dialect=dialect)

    def nest(self, alias: str = "sub") -> "QueryFragment":
        """Wrap the current fragment as the sub-query source of a new block."""
        return QueryFragment(
            source=f"({self.to_sql()}) AS {alias}",
            source_is_subquery=True,
            dialect=self.dialect,
        )

    def to_sql(self) -> str:
        """Render the fragment as SQL text."""
        items = ", ".join(self.select_items) if self.select_items else "*"
        sql = f"SELECT {items} FROM {self.source}"
        if self.where:
            sql += " WHERE " + " AND ".join(f"({p})" for p in self.where)
        if self.group_by:
            sql += " GROUP BY " + ", ".join(self.group_by)
        if self.order_by:
            sql += " ORDER BY " + ", ".join(
                self._render_order_item(item) for item in self.order_by
            )
        if self.limit is not None:
            sql += f" LIMIT {self.limit}"
        return sql

    def _render_order_item(self, item: str) -> str:
        """One ORDER BY key with the dialect's NULL-placement clause."""
        descending = item.upper().endswith(" DESC")
        return item + self.dialect.order_nulls_suffix(descending)

    # -------------------------------------------------------------- #
    def can_add_predicate(self) -> bool:
        """Whether a WHERE predicate can still be added to this block."""
        return not self.aggregated and not self.order_by and self.limit is None

    def can_add_projection(self) -> bool:
        """Whether per-row projection items can still be added."""
        return not self.aggregated and self.limit is None


def apply_transform(
    fragment: QueryFragment,
    definition: Mapping,
    params: Mapping,
) -> QueryFragment:
    """Fold one transform into ``fragment``.

    ``definition`` is the raw transform definition (for its type) and
    ``params`` are the *resolved* parameters (signals and upstream operator
    values already substituted).  Raises :class:`RewriteError` when the
    transform type is not rewritable.
    """
    transform_type = definition.get("type")
    if transform_type == "filter":
        return _apply_filter(fragment, params)
    if transform_type == "extent":
        return _apply_extent(fragment, params)
    if transform_type == "bin":
        return _apply_bin(fragment, params)
    if transform_type == "aggregate":
        return _apply_aggregate(fragment, params)
    if transform_type == "collect":
        return _apply_collect(fragment, params)
    if transform_type == "project":
        return _apply_project(fragment, params)
    if transform_type == "stack":
        return _apply_stack(fragment, params)
    if transform_type == "timeunit":
        return _apply_timeunit(fragment, params)
    raise RewriteError(f"transform type {transform_type!r} cannot be rewritten to SQL")


def build_fragment_for_transforms(
    table: str,
    transforms: Sequence[Mapping],
    resolved_params: Sequence[Mapping],
    dialect: BackendCapabilities = EMBEDDED_CAPABILITIES,
) -> QueryFragment:
    """Batch a chain of transforms over ``table`` into one fragment."""
    fragment = QueryFragment.for_table(table, dialect=dialect)
    for definition, params in zip(transforms, resolved_params):
        fragment = apply_transform(fragment, definition, params)
    return fragment


# --------------------------------------------------------------------------- #
# Per-transform builders
# --------------------------------------------------------------------------- #


def _apply_filter(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    expr = params.get("expr")
    if not isinstance(expr, str):
        raise RewriteError("filter transform requires an 'expr' string")
    try:
        predicate = to_sql(expr, signals=params.get("_signals", {}))
    except ExpressionTranslationError as exc:
        raise RewriteError(f"filter expression has no SQL equivalent: {exc}") from exc
    if not fragment.can_add_predicate():
        fragment = fragment.nest()
    result = replace(fragment)
    result.where = fragment.where + [predicate]
    return result


def _apply_extent(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    column = params["field"]
    if fragment.aggregated or fragment.select_items:
        fragment = fragment.nest()
    result = replace(fragment)
    result.select_items = [f"MIN({column}) AS min_val", f"MAX({column}) AS max_val"]
    result.aggregated = True
    return result


def _apply_bin(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    column = params["field"]
    maxbins = int(params.get("maxbins", 20) or 20)
    extent = params.get("extent")
    if extent is None:
        raise RewriteError(
            "bin transform needs a resolved 'extent' parameter before SQL generation"
        )
    start, stop, step = compute_bins((float(extent[0]), float(extent[1])), maxbins)
    out_names = params.get("as") or ["bin0", "bin1"]
    bin0 = out_names[0]
    bin1 = out_names[1] if len(out_names) > 1 else "bin1"
    if not fragment.can_add_projection() or fragment.select_items:
        fragment = fragment.nest()
    # Mirror the client-side bin transform exactly: values at or beyond the
    # domain maximum fall into the last bin (not a new one), and values below
    # the domain minimum clamp into the first bin.
    floor_expr = f"FLOOR(({column} - {start}) / {step}) * {step} + {start}"
    bin_expr = (
        f"CASE WHEN {column} >= {stop} THEN {stop - step} "
        f"WHEN {column} < {start} THEN {start} "
        f"ELSE {floor_expr} END"
    )
    result = replace(fragment)
    result.select_items = [
        "*",
        f"{bin_expr} AS {bin0}",
        f"{bin_expr} + {step} AS {bin1}",
    ]
    return result


def _apply_aggregate(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    groupby: list[str] = list(params.get("groupby") or [])
    ops: list[str] = list(params.get("ops") or ["count"])
    fields: list[str | None] = list(params.get("fields") or [None] * len(ops))
    as_names: list[str] | None = params.get("as")
    if len(fields) < len(ops):
        fields = fields + [None] * (len(ops) - len(fields))

    if fragment.aggregated:
        fragment = fragment.nest()
    # If the previous step added computed projection items (e.g. bin columns),
    # the aggregate can still compose in the same block when grouping refers
    # to those aliases — our SQL engine resolves SELECT aliases in GROUP BY.
    items: list[str] = []
    select_aliases = _aliases_of(fragment.select_items)
    group_exprs: list[str] = []
    for group_field in groupby:
        if group_field in select_aliases:
            group_exprs.append(group_field)
            items.append(select_aliases[group_field] + f" AS {group_field}")
        else:
            group_exprs.append(group_field)
            items.append(group_field)
    for index, (op, agg_field) in enumerate(zip(ops, fields)):
        sql_func = _AGG_SQL.get(op)
        if sql_func is None:
            raise RewriteError(f"aggregate op {op!r} has no SQL equivalent")
        if not fragment.dialect.supports_aggregate(sql_func):
            raise RewriteError(
                f"backend {fragment.dialect.name!r} does not support aggregate {sql_func}"
            )
        name = _aggregate_output_name(op, agg_field, index, as_names)
        if op == "count" and agg_field is None:
            items.append(f"COUNT(*) AS {name}")
        elif op == "distinct":
            items.append(f"COUNT(DISTINCT {agg_field}) AS {name}")
        else:
            items.append(f"{sql_func}({agg_field}) AS {name}")
    result = replace(fragment)
    result.select_items = items
    result.group_by = group_exprs
    result.aggregated = True
    return result


def _apply_collect(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    sort = params.get("sort") or {}
    fields = sort.get("field") or []
    orders = sort.get("order") or []
    if isinstance(fields, str):
        fields = [fields]
    if isinstance(orders, str):
        orders = [orders]
    if not fields:
        return fragment
    if fragment.limit is not None:
        fragment = fragment.nest()
    keys = []
    for index, sort_field in enumerate(fields):
        direction = "DESC" if index < len(orders) and str(orders[index]).lower().startswith("desc") else "ASC"
        keys.append(f"{sort_field} {direction}")
    result = replace(fragment)
    result.order_by = fragment.order_by + keys
    return result


def _apply_project(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    fields: list[str] = list(params.get("fields") or [])
    as_names: list[str] = list(params.get("as") or fields)
    if len(as_names) < len(fields):
        as_names = as_names + fields[len(as_names):]
    if not fragment.can_add_projection() or fragment.select_items:
        fragment = fragment.nest()
    result = replace(fragment)
    result.select_items = [
        column if column == alias else f"{column} AS {alias}"
        for column, alias in zip(fields, as_names)
    ]
    return result


def _apply_stack(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    field_name = params["field"]
    groupby: list[str] = list(params.get("groupby") or [])
    sort = params.get("sort") or {}
    sort_fields = sort.get("field") or []
    if isinstance(sort_fields, str):
        sort_fields = [sort_fields]
    out_names = params.get("as") or ["y0", "y1"]
    y0 = out_names[0]
    y1 = out_names[1] if len(out_names) > 1 else "y1"

    dialect = fragment.dialect
    if not dialect.supports_window_functions:
        raise RewriteError(
            f"backend {dialect.name!r} does not support window functions; "
            "the stack transform cannot be offloaded"
        )
    if fragment.aggregated or fragment.select_items:
        fragment = fragment.nest()
    over_parts = []
    if groupby:
        over_parts.append("PARTITION BY " + ", ".join(groupby))
    frame = ""
    if sort_fields:
        nulls = dialect.order_nulls_suffix(descending=False)
        over_parts.append("ORDER BY " + ", ".join(f + nulls for f in sort_fields))
        # Running sums must use the ROWS frame everywhere: under the
        # standard's default RANGE frame, peer rows (equal sort keys)
        # would share one cumulative value and stacked bars would overlap.
        frame = dialect.window_frame_clause()
    over = " ".join(over_parts)
    window = f"SUM({field_name}) OVER ({over}{frame}) AS {y1}"
    inner = replace(fragment)
    inner.select_items = ["*", window]
    outer = inner.nest(alias="stacked")
    outer.select_items = ["*", f"{y1} - {field_name} AS {y0}"]
    return outer


def _apply_timeunit(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    column = params["field"]
    units = params.get("units", "month")
    if isinstance(units, (list, tuple)):
        units = units[0] if units else "month"
    try:
        step = UNIT_SECONDS[str(units)]
    except KeyError as exc:
        raise RewriteError(f"unsupported time unit {units!r}") from exc
    out_names = params.get("as") or ["unit0", "unit1"]
    unit0 = out_names[0]
    unit1 = out_names[1] if len(out_names) > 1 else "unit1"
    if not fragment.can_add_projection() or fragment.select_items:
        fragment = fragment.nest()
    expr = f"FLOOR({column} / {step}) * {step}"
    result = replace(fragment)
    result.select_items = ["*", f"{expr} AS {unit0}", f"{expr} + {step} AS {unit1}"]
    return result


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _aliases_of(select_items: Sequence[str]) -> dict[str, str]:
    """Map alias → expression for items of the form ``<expr> AS <alias>``."""
    aliases: dict[str, str] = {}
    for item in select_items:
        lowered = item.lower()
        marker = " as "
        position = lowered.rfind(marker)
        if position == -1:
            continue
        expression = item[:position].strip()
        alias = item[position + len(marker):].strip()
        if alias.isidentifier():
            aliases[alias] = expression
    return aliases


def _aggregate_output_name(
    op: str, field_name: str | None, index: int, as_names: Sequence[str] | None
) -> str:
    if as_names and index < len(as_names) and as_names[index]:
        return str(as_names[index])
    if op == "count" and not field_name:
        return "count"
    return f"{op}_{field_name}"
