"""Incremental view maintenance for crossfilter-style brush queries.

The paper's interactive scenarios re-execute the full
scan→filter→aggregate pipeline on every brush move.  This module keeps,
per eligible query shape, a falcon-style *prefiltered index tile* (Moritz,
Howe and Heer, "Falcon", CHI 2019), so a brush step never re-reads the
table or re-evaluates the static part of its WHERE clause.

How a view works
----------------
At registration the view builds its tile: the row indices that pass the
query's static conjuncts, stably sorted by the brush column's value.
Any brush interval then maps to one contiguous slice ``[a, b)`` of that
tile via binary search.  A hit gathers exactly those rows of the scan's
columns, in brush order, and runs the plan's own aggregate and suffix
operators over them once (:meth:`~repro.sql.executor.Executor.execute_subtree`
on a :class:`~repro.sql.planner.MaterializedNode`) — the re-scan's
operators, so the rows match by construction.  The view never changes
after build.

Results are **bit-identical** to a re-scan, not merely close, because
the window holds the re-scan's rows in another order and every eligible
aggregate's bits do not depend on row order: ``COUNT``, ``MIN`` and
``MAX`` never do, and ``SUM``/``AVG`` are only eligible when the
argument is integer-valued and small enough that every partial sum is
exactly representable in a float64.  Ineligible shapes or data simply
decline and the engine re-scans.

Eligibility rules and the counters are documented in docs/IVM.md; the
differential test harness lives in tests/test_ivm.py and the latency
benchmark in bench/ivm.py.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.errors import ReproError
from repro.metrics import Counters
from repro.sql.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    SelectItem,
    UnaryOp,
)
from repro.sql.executor import (
    ExecutionStats,
    Executor,
    ExpressionEvaluator,
    aggregate_evaluator,
    scan_columns,
)
from repro.sql.functions import is_string_array
from repro.sql.planner import (
    AggregateNode,
    IVMTemplate,
    LogicalPlan,
    MaterializedNode,
    SortNode,
    aggregate_item_leaves,
    ivm_template,
)
from repro.storage.catalog import Catalog
from repro.storage.statistics import RangeInterval
from repro.storage.table import Table

#: Largest magnitude at which consecutive float64 integers stay distinct.
_EXACT_LIMIT = float(2**53)


#: LRU capacity of materialized views per manager.
MAX_VIEWS = 32

#: A view registers on this sighting of an eligible query shape, so
#: one-shot queries never pay the build cost.
REGISTER_AFTER = 2


def _exactly_summable(values: np.ndarray, n_rows: int) -> bool:
    """Whether every subset sum of ``values`` is exact in float64.

    True when all finite values are integer-valued and ``n_rows`` of the
    largest magnitude stay below 2**53: then every partial sum the
    ``reduceat`` kernel can form, in any row order, is exactly
    representable, so a SUM over the window in brush order has the bits
    of the re-scan's SUM in storage order.
    """
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return True
    if not np.all(finite == np.trunc(finite)):
        return False
    peak = float(np.max(np.abs(finite)))
    return max(peak, 1.0) * max(n_rows, 1) < _EXACT_LIMIT


class MaterializedView:
    """One query shape's prefiltered index tile; immutable after build."""

    def __init__(
        self,
        table_name: str,
        rows: Table,
        sort_idx: np.ndarray,
        sorted_values: np.ndarray,
        n_valid: int,
    ) -> None:
        self.table_name = table_name
        self.base_rows = rows.num_rows
        #: The base table narrowed to the columns the aggregate reads.
        self._rows = rows
        #: Row indices passing the static conjuncts, sorted by brush value.
        self._sort_idx = sort_idx
        self._sorted_values = sorted_values
        self._n_valid = n_valid

    @classmethod
    def build(cls, template: IVMTemplate, table: Table) -> "MaterializedView | None":
        """Build the tile, or ``None`` when the data is ineligible."""
        n = table.num_rows
        brush = table.column(template.interval.column)
        if not brush.is_numeric():
            return None

        # Only aggregates whose bits do not depend on row order: strings
        # only under COUNT, SUM/AVG only over exactly summable numbers.
        # The serial aggregate path's evaluator, so an argument may
        # reference a SELECT alias exactly as it does there.
        evaluator = aggregate_evaluator(template.aggregate.items, table)
        for item in template.aggregate.items:
            for call in aggregate_item_leaves(item.expression)[0]:
                if call.is_star:
                    continue
                name = call.name.upper()
                values = evaluator.evaluate(call.args[0])
                if is_string_array(values):
                    if name != "COUNT":
                        return None
                elif name in ("SUM", "AVG") and not _exactly_summable(values, n):
                    return None

        # Static conjuncts: the WHERE clause minus the brush.  A row is in
        # the view's domain iff every conjunct is TRUE — the serial
        # filter's rule, read from the same top-level ``true_mask``.
        domain = np.ones(n, dtype=bool)
        static_evaluator = ExpressionEvaluator(table)
        for conjunct in template.static_conjuncts:
            domain &= static_evaluator.true_mask(conjunct)

        domain_rows = np.flatnonzero(domain)
        order = np.argsort(brush.values[domain_rows], kind="stable")
        sort_idx = domain_rows[order]
        sorted_values = brush.values[sort_idx]
        n_valid = int(len(sorted_values) - np.isnan(sorted_values).sum())
        return cls(
            template.table_name,
            scan_columns(table, template.columns),
            sort_idx,
            sorted_values,
            n_valid,
        )

    def positions(self, interval: RangeInterval) -> tuple[int, int]:
        """Map a brush interval to a ``[a, b)`` slice of the sorted tile.

        NaN brush values sort last and are excluded by the ``n_valid``
        bound — matching the serial filter, where any comparison with
        NULL yields NULL and drops the row.
        """
        if interval.is_empty():
            return 0, 0
        values = self._sorted_values[: self._n_valid]
        low, high = interval.low, interval.high
        a = 0
        if low is not None:
            side = "left" if interval.low_inclusive else "right"
            a = int(np.searchsorted(values, low, side=side))
        b = self._n_valid
        if high is not None:
            side = "right" if interval.high_inclusive else "left"
            b = int(np.searchsorted(values, high, side=side))
        return a, max(a, b)

    def window(self, interval: RangeInterval) -> Table:
        """The rows the brush selects, in brush order.

        They are the re-scan's filtered rows in another order; the
        eligibility rules make every admitted aggregate's bits
        independent of that order, so the window is never re-sorted.
        """
        a, b = self.positions(interval)
        return self._rows.take(self._sort_idx[a:b])


class IVMManager:
    """Registry of materialized views keyed by crossfilter query shape.

    A view registers on the :data:`REGISTER_AFTER`-th sighting of an
    eligible shape (successive brush positions share one key because the
    brush literals are excluded from it), is bounded by an LRU of
    :data:`MAX_VIEWS`, and is dropped whenever the catalog re-registers
    or drops its base table.  The lock guards only the registry: views
    never change after build, so concurrent sessions brushing the same
    view aggregate their windows without waiting on each other.

    ``strict`` enables the extra eligibility rules a backend other than
    the embedded engine needs for bit-identical interception (see
    :meth:`_strict_ok`): bare-column group keys and aggregate arguments,
    an ORDER BY covering every group key (deterministic row order), no
    NULL group-key values, and a restricted expression grammar whose
    semantics the differential corpus has validated against SQLite.
    """

    def __init__(
        self, catalog: Catalog, metrics: Counters, strict: bool = False
    ) -> None:
        self._catalog = catalog
        self._metrics = metrics
        self._strict = strict
        self._views: OrderedDict[str, MaterializedView] = OrderedDict()
        self._seen: dict[str, int] = {}
        self._ineligible: dict[str, str] = {}
        self._lock = threading.Lock()
        self._executor = Executor(catalog)
        catalog.add_invalidation_listener(self.invalidate)

    # ------------------------------------------------------------------ #
    def attempt(self, plan: LogicalPlan) -> tuple[Table, ExecutionStats] | None:
        """Try to answer ``plan`` from a materialized view.

        Returns the result table and its execution stats on a hit, or
        ``None`` when the plan is ineligible or its view is not (yet)
        registered — the engine then re-scans.
        """
        template = ivm_template(plan)
        if template is None:
            return None
        if self._strict and not self._strict_ok(template):
            return None
        key = template.view_key
        view = self._lookup(key, template)
        if view is None:
            return None
        try:
            table, stats, window_rows = self._query(view, template)
        except ReproError:
            # A view that cannot serve its own shape is defective: drop
            # it and let the engine re-scan (same error surface as
            # serial execution, reached through the normal path).
            with self._lock:
                if self._views.get(key) is view:
                    del self._views[key]
                    self._ineligible[key] = template.table_name
            return None
        self._metrics.add(
            ivm_hits=1,
            ivm_delta_rows=window_rows,
            ivm_rescan_rows_avoided=max(view.base_rows - window_rows, 0),
        )
        return table, stats

    def _lookup(self, key: str, template: IVMTemplate) -> MaterializedView | None:
        """The registered view of ``key``, building it on the
        :data:`REGISTER_AFTER`-th sighting; ``None`` to re-scan."""
        with self._lock:
            if key in self._ineligible:
                return None
            view = self._views.get(key)
            if view is not None:
                self._views.move_to_end(key)
                return view
            sightings = self._seen.get(key, 0) + 1
            self._seen[key] = sightings
            if sightings < REGISTER_AFTER:
                return None
            view = self._build(template)
            if view is None:
                self._ineligible[key] = template.table_name
                return None
            self._seen.pop(key, None)
            self._views[key] = view
            while len(self._views) > MAX_VIEWS:
                self._views.popitem(last=False)
            self._metrics.add(ivm_views=1)
            return view

    def invalidate(self, table_name: str) -> None:
        """Drop all views (and shape bookkeeping) of ``table_name``.

        Wired into :meth:`Catalog.add_invalidation_listener`, so a
        re-register or drop of the base table invalidates its views in
        the same breath as the catalog's statistics and zone-map caches.
        """
        with self._lock:
            doomed = [
                key
                for key, view in self._views.items()
                if view.table_name == table_name
            ]
            for key in doomed:
                del self._views[key]
            prefix = f"{table_name}§brush="
            self._seen = {
                key: count
                for key, count in self._seen.items()
                if not key.startswith(prefix)
            }
            self._ineligible = {
                key: table
                for key, table in self._ineligible.items()
                if table != table_name
            }
            if doomed:
                self._metrics.add(ivm_invalidations=len(doomed))

    # ------------------------------------------------------------------ #
    def _build(self, template: IVMTemplate) -> MaterializedView | None:
        try:
            table = self._catalog.get(template.table_name)
            if self._strict and self._has_null_keys(template, table):
                return None
            return MaterializedView.build(template, table)
        except ReproError:
            return None

    def _query(
        self, view: MaterializedView, template: IVMTemplate
    ) -> tuple[Table, ExecutionStats, int]:
        """Aggregate the brush window through the plan's own operators."""
        rows = view.window(template.interval)
        stats = ExecutionStats()
        stats.rows_scanned = rows.num_rows
        node = replace(template.aggregate, child=MaterializedNode(table=rows))
        for suffix_node in reversed(template.suffix):
            node = replace(suffix_node, child=node)
        table = self._executor.execute_subtree(node, stats)
        stats.rows_output = table.num_rows
        return table, stats, rows.num_rows

    # ------------------------------------------------------------------ #
    # Strict (cross-backend) eligibility
    # ------------------------------------------------------------------ #
    def _strict_ok(self, template: IVMTemplate) -> bool:
        aggregate = template.aggregate
        if not all(isinstance(key, ColumnRef) for key in aggregate.group_by):
            return False
        for item in aggregate.items:
            if not self._strict_item_ok(item, aggregate):
                return False
        if not all(
            _strict_predicate_ok(conjunct) for conjunct in template.static_conjuncts
        ):
            return False
        return self._strict_suffix_ok(template)

    @staticmethod
    def _strict_item_ok(item: SelectItem, aggregate: AggregateNode) -> bool:
        expr = item.expression
        if isinstance(expr, FunctionCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
            if expr.is_star:
                return True
            return isinstance(expr.args[0], (ColumnRef, Literal))
        return isinstance(expr, ColumnRef)

    def _strict_suffix_ok(self, template: IVMTemplate) -> bool:
        """Require an ORDER BY that pins a deterministic total row order.

        Group rows are unique by their keys, so sorting by (exactly a
        permutation of) the group keys fixes one order both engines
        agree on; anything else lets backend-internal order leak out.
        """
        aggregate = template.aggregate
        sorts = [node for node in template.suffix if isinstance(node, SortNode)]
        if not aggregate.group_by:
            return not sorts
        if len(sorts) != 1:
            return False
        key_names = {key.name for key in aggregate.group_by}
        alias_of = {
            item.alias: item.expression.name
            for item in aggregate.items
            if item.alias and isinstance(item.expression, ColumnRef)
        }
        covered: set[str] = set()
        for order_item in sorts[0].keys:
            expr = order_item.expression
            if not isinstance(expr, ColumnRef):
                return False
            name = alias_of.get(expr.name, expr.name)
            if name not in key_names:
                return False
            covered.add(name)
        return covered == key_names

    @staticmethod
    def _has_null_keys(template: IVMTemplate, table: Table) -> bool:
        for key in template.aggregate.group_by:
            if isinstance(key, ColumnRef) and table.has_column(key.name):
                if table.column(key.name).null_mask().any():
                    return True
        return False


def _strict_predicate_ok(expr: Expression) -> bool:
    """Expression grammar whose semantics match SQLite bit-for-bit.

    Comparisons, boolean combinators, arithmetic, BETWEEN, IN and IS
    NULL over columns and literals — the shapes the backend differential
    corpus validates.  Functions, LIKE, CASE and string concatenation
    stay on the re-scan path.
    """
    if isinstance(expr, (Literal, ColumnRef)):
        return True
    if isinstance(expr, IsNull):
        return _strict_predicate_ok(expr.expr)
    if isinstance(expr, Between):
        return all(
            _strict_predicate_ok(e) for e in (expr.expr, expr.low, expr.high)
        )
    if isinstance(expr, InList):
        return _strict_predicate_ok(expr.expr) and all(
            isinstance(value, Literal) for value in expr.values
        )
    if isinstance(expr, UnaryOp):
        return expr.op in ("-", "NOT") and _strict_predicate_ok(expr.operand)
    if isinstance(expr, BinaryOp):
        allowed = {"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/"}
        return (
            expr.op in allowed
            and _strict_predicate_ok(expr.left)
            and _strict_predicate_ok(expr.right)
        )
    return False
