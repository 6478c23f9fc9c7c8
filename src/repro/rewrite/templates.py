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

The text is the same for every backend: it states the result contract
itself, so no backend needs a dialect of its own.  Sort keys carry their
NULL placement (``x ASC NULLS LAST``, ``x DESC NULLS FIRST``) and running
window sums their frame (``ROWS UNBOUNDED PRECEDING``) — the embedded
engine's native behaviour, which SQLite and PostgreSQL reach only when
told.  A stack's lower offset is its own window over the rows before the
current one (``ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING``), so
both offsets are running sums with the client's bits.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import ExpressionTranslationError, RewriteError
from repro.dataflow.transforms.aggregate import AGGREGATE_OPS, aggregate_output_name
from repro.dataflow.transforms.bin import bin_start, compute_bins, last_bin_threshold
from repro.dataflow.transforms.timeunit import UNIT_SECONDS
from repro.expr.to_sql import compiles, to_sql
from repro.sql.tokenizer import PreparedSQL, literal_shape
from repro.vega.spec import DataEntry

#: Transform types the rewriter can translate to SQL.
REWRITABLE_TRANSFORMS = frozenset(
    {"filter", "extent", "bin", "aggregate", "collect", "project", "stack", "timeunit"}
)


def rewritable_prefix(transforms: Sequence[Mapping]) -> int:
    """Length of the longest prefix of ``transforms`` that can be
    offloaded to the DBMS: the most transforms a server split may take.

    A transform counts when its type is rewritable and, for a filter,
    when its expression :func:`~repro.expr.to_sql.compiles`, so no plan
    is offered that the rewriter cannot render.  A stack counts only with
    a sort: without one the client stacks rows in input order, which SQL
    does not keep inside a window partition."""
    prefix = 0
    for transform in transforms:
        kind = transform.get("type")
        if kind not in REWRITABLE_TRANSFORMS:
            break
        if kind == "filter" and not compiles(transform.get("expr")):
            break
        if kind == "stack" and not (transform.get("sort") or {}).get("field"):
            break
        prefix += 1
    return prefix


def legal_splits(entry: DataEntry, parent_on_server: bool) -> tuple[range, int | None]:
    """The plan space's one legality rule for a data entry's split.

    Returns ``(splits, on_server_at)``: the splits the entry may take,
    and the split after which its output exists on the server (``None``
    when it never does).  An entry's input is on the server when it reads
    a table, or sources an entry whose output is; only then may it
    offload, and at most its :func:`rewritable_prefix`.  Inline
    ``values`` live on the client, and so does everything sourced from
    them.  ``parent_on_server`` is the source entry's state; a root
    entry ignores it."""
    if entry.values is not None:
        reachable = False
    elif entry.source is not None:
        reachable = parent_on_server
    else:
        reachable = entry.table is not None
    if not reachable:
        return range(1), None
    return range(rewritable_prefix(entry.transforms) + 1), len(entry.transforms)


@dataclass
class QueryFragment:
    """A single-block SQL query under construction."""

    source: str
    source_is_subquery: bool = False
    select_items: list[str] = field(default_factory=list)
    where: list[str] = field(default_factory=list)
    group_by: list[str] = field(default_factory=list)
    order_by: list[str] = field(default_factory=list)
    limit: int | None = None
    #: True once GROUP BY, aggregates or window aggregates are present:
    #: later per-row transforms must nest rather than compose.
    aggregated: bool = False

    # -------------------------------------------------------------- #
    @classmethod
    def for_table(cls, table: str) -> "QueryFragment":
        """Start a fragment scanning a base table."""
        return cls(source=table)

    def nest(self) -> "QueryFragment":
        """Wrap the current fragment as the sub-query source of a new block."""
        return QueryFragment(
            source=_concat("(", self.to_sql(), ") AS sub"),
            source_is_subquery=True,
        )

    def to_sql(self) -> str:
        """Render the fragment as SQL text.

        Pieces that carry slots (translated filters, bin numbers)
        make the result a :class:`~repro.sql.tokenizer.PreparedSQL`, its
        shape rendered in the same pass; otherwise it is plain text.
        """
        parts = ["SELECT ", *_joined(", ", self.select_items or ["*"]), " FROM ", self.source]
        if self.where:
            parts += [" WHERE (", *_joined(") AND (", self.where), ")"]
        if self.group_by:
            parts.append(" GROUP BY " + ", ".join(self.group_by))
        if self.order_by:
            parts.append(" ORDER BY " + ", ".join(map(_order_key, self.order_by)))
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        return _concat(*parts)

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
    """Fold one transform into ``fragment``, in place.

    Returns the fragment to continue from: ``fragment`` itself, or the
    new outer block when the transform had to nest it.  ``definition``
    is the raw transform definition (for its type) and ``params`` are
    the *resolved* parameters (signals and upstream operator values
    already substituted).  Raises :class:`RewriteError` when the
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
    fragment.where.append(predicate)
    return fragment


def _apply_extent(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    column = params["field"]
    if fragment.aggregated or fragment.select_items:
        fragment = fragment.nest()
    fragment.select_items = [f"MIN({column}) AS min_val", f"MAX({column}) AS max_val"]
    fragment.aggregated = True
    return fragment


def _apply_bin(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    column = params["field"]
    maxbins = int(params.get("maxbins", 20) or 20)
    extent = params.get("extent")
    if extent is None:
        raise RewriteError(
            "bin transform needs a resolved 'extent' parameter before SQL generation"
        )
    out_names = params.get("as") or ["bin0", "bin1"]
    bin0 = out_names[0]
    bin1 = out_names[1] if len(out_names) > 1 else "bin1"
    if not fragment.can_add_projection() or fragment.select_items:
        fragment = fragment.nest()
    low, high = float(extent[0]), float(extent[1])
    fragment.select_items = ["*", *_bin_items(column, low, high, maxbins, bin0, bin1)]
    return fragment


@functools.lru_cache(maxsize=256)
def _bin_items(
    column: str, low: float, high: float, maxbins: int, bin0: str, bin1: str
) -> tuple[str, str]:
    """The ``bin0`` and ``bin1`` SELECT items of binning ``column`` over
    ``[low, high]`` into at most ``maxbins`` bins.  Memoised: a dashboard
    renders the same bins on every interaction, and the threshold is a
    bisection."""
    start, stop, step = compute_bins((low, high), maxbins)
    threshold, last = last_bin_threshold(start, stop, step), bin_start(stop, start, stop, step)
    # Mirror the client-side bin transform (``bin_start``) exactly: values
    # below the domain clamp into the first bin, and values from the
    # threshold up land in the last bin (not a new one).  The numbers are
    # slots, so bins over a new extent bind into the same shape plan.
    bin_expr = _concat(
        f"CASE WHEN {column} >= ", _slot(threshold), " THEN ", _slot(last),
        f" WHEN {column} < ", _slot(start), " THEN ", _slot(start),
        f" ELSE FLOOR(({column} - ", _slot(start), ") / ", _slot(step), ") * ",
        _slot(step), " + ", _slot(start), " END",
    )
    return _concat(bin_expr, f" AS {bin0}"), _concat(bin_expr, " + ", _slot(step), f" AS {bin1}")


def _slot(value: float) -> PreparedSQL:
    """``value`` rendered as one slot of a prepared statement."""
    text = format(value)
    values: list[object] = []
    return PreparedSQL(text, literal_shape(text, values), values)


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
            items.append(_concat(select_aliases[group_field], f" AS {group_field}"))
        else:
            group_exprs.append(group_field)
            items.append(group_field)
    for index, (op, agg_field) in enumerate(zip(ops, fields)):
        if op not in AGGREGATE_OPS:
            raise RewriteError(f"aggregate op {op!r} has no SQL equivalent")
        sql_func, distinct = AGGREGATE_OPS[op]
        name = aggregate_output_name(op, agg_field, index, as_names)
        if op == "count" and agg_field is None:
            items.append(f"COUNT(*) AS {name}")
        else:
            argument = f"DISTINCT {agg_field}" if distinct else agg_field
            items.append(f"{sql_func}({argument}) AS {name}")
    fragment.select_items = items
    fragment.group_by = group_exprs
    fragment.aggregated = True
    return fragment


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
    fragment.order_by.extend(keys)
    return fragment


def _apply_project(fragment: QueryFragment, params: Mapping) -> QueryFragment:
    fields: list[str] = list(params.get("fields") or [])
    as_names: list[str] = list(params.get("as") or fields)
    if len(as_names) < len(fields):
        as_names = as_names + fields[len(as_names):]
    if not fragment.can_add_projection() or fragment.select_items:
        fragment = fragment.nest()
    fragment.select_items = [
        column if column == alias else f"{column} AS {alias}"
        for column, alias in zip(fields, as_names)
    ]
    return fragment


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

    if fragment.aggregated or fragment.select_items:
        fragment = fragment.nest()
    partition = f"PARTITION BY {', '.join(groupby)} " if groupby else ""
    keys = ", ".join(f"{sort_field} NULLS LAST" for sort_field in sort_fields)
    # The client stacks a NULL extent as 0, and the first row of a stack
    # sits on 0: without the COALESCEs sqlite's SUM over an all-NULL or
    # empty frame is NULL.  Both offsets use a ROWS frame: under the
    # standard's default RANGE frame, peer rows (equal sort keys) would
    # share one cumulative value and stacked bars would overlap.
    running = f"SUM(COALESCE({field_name}, 0)) OVER ({partition}ORDER BY {keys} ROWS"
    fragment.select_items = [
        "*",
        f"COALESCE({running} BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS {y0}",
        f"{running} UNBOUNDED PRECEDING) AS {y1}",
    ]
    fragment.aggregated = True
    return fragment


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
    fragment.select_items = ["*", f"{expr} AS {unit0}", f"{expr} + {step} AS {unit1}"]
    return fragment


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _concat(*parts: str) -> str:
    """The SQL pieces joined, as a :class:`PreparedSQL` when any piece is one."""
    text = "".join(parts)
    if PreparedSQL not in map(type, parts):
        return text
    shape = "".join(getattr(part, "shape", part) for part in parts)
    values = [value for part in parts for value in getattr(part, "values", ())]
    return PreparedSQL(text, shape, values)


def _order_key(item: str) -> str:
    """One ``<key> ASC|DESC`` ORDER BY item with its NULL placement."""
    return item + (" NULLS FIRST" if item.endswith(" DESC") else " NULLS LAST")


def _joined(separator: str, pieces: Sequence[str]) -> list[str]:
    """``pieces`` with ``separator`` between them, for :func:`_concat`."""
    joined: list[str] = []
    for piece in pieces:
        if joined:
            joined.append(separator)
        joined.append(piece)
    return joined


def _aliases_of(select_items: Sequence[str]) -> dict[str, str]:
    """Map alias → expression for items of the form ``<expr> AS <alias>``.

    The `` AS <alias>`` tail holds no slot, so a prepared item's shape
    loses the same tail.
    """
    aliases: dict[str, str] = {}
    for item in select_items:
        lowered = item.lower()
        marker = " as "
        position = lowered.rfind(marker)
        if position == -1:
            continue
        alias = item[position + len(marker):].strip()
        if not alias.isidentifier():
            continue
        expression = item[:position]
        if type(item) is PreparedSQL:
            tail = len(item) - position
            expression = PreparedSQL(expression, item.shape[:-tail], item.values)
        aliases[alias] = expression
    return aliases
