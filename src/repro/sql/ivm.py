"""Incremental view maintenance for crossfilter-style brush queries.

The paper's interactive scenarios re-execute the full
scan→filter→aggregate pipeline on every brush move, so interaction
latency is O(rows) no matter how small the brush delta is.  This module
maintains materialized group-by aggregates per eligible query shape and,
when the brush moves, touches only the rows *entering or leaving* the
predicate range — O(delta) work per interaction (falcon-style
prefiltering, specialised to the reproduction's columnar engine).

How a view works
----------------
At registration the view builds a *prefiltered index tile*: the row
indices that pass the query's static conjuncts, sorted by the brush
column's value.  Any brush interval then maps to one contiguous slice of
that tile via binary search, and moving the brush from ``[a0, b0)`` to
``[a1, b1)`` yields at most two entering and two leaving contiguous row
ranges.  Each delta range is factorized into group segments and merged
into the materialized per-group state through the same kernel the serial
executor uses (:func:`~repro.sql.functions.aggregate_segments`):

* ``COUNT`` / ``COUNT(*)`` — add/subtract per-group counts,
* ``SUM`` / ``AVG`` — add/subtract per-group sums (AVG = sum + count),
* ``MIN`` / ``MAX`` — merge on entry; on a retraction that may remove
  the current extremum, re-scan just the affected groups' in-range rows.

Results are **bit-identical** to the serial executor, not merely close:
``SUM``/``AVG`` views are only eligible when the aggregate argument is
integer-valued and small enough that every partial sum is exactly
representable in a float64, so incremental adds/subtracts commute
exactly.  ``COUNT``/``MIN``/``MAX`` are exact for any numeric data.
Ineligible shapes or data simply decline and the engine re-scans.

Eligibility rules, the delta algebra, and the retraction fallback are
documented in docs/IVM.md; the differential test harness lives in
tests/test_ivm.py and the latency benchmark in bench/ivm.py.
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
)
from repro.sql.functions import aggregate_segments, is_string_array
from repro.sql.planner import (
    AggregateNode,
    IVMTemplate,
    LogicalPlan,
    MaterializedNode,
    SortNode,
    aggregate_item_leaves,
    evaluate_aggregate_item,
    group_key_index,
    ivm_template,
)
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.statistics import RangeInterval
from repro.storage.table import Table, group_segments

#: Largest magnitude at which consecutive float64 integers stay distinct.
_EXACT_LIMIT = float(2**53)

#: Composite group codes must stay well inside int64.
_MAX_COMPOSITE = 2**62


#: LRU capacity of materialized views per manager.
MAX_VIEWS = 32

#: A view registers on this sighting of an eligible query shape, so
#: one-shot queries never pay the build cost.
REGISTER_AFTER = 2


def _exactly_summable(values: np.ndarray, n_rows: int) -> bool:
    """Whether every subset sum of ``values`` is exact in float64.

    True when all finite values are integer-valued and ``n_rows`` of the
    largest magnitude stay below 2**53: then every partial sum the
    serial ``reduceat`` kernel or the incremental add/subtract path can
    form is exactly representable, so the two agree bitwise.
    """
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return True
    if not np.all(finite == np.trunc(finite)):
        return False
    peak = float(np.max(np.abs(finite)))
    return max(peak, 1.0) * max(n_rows, 1) < _EXACT_LIMIT


def _delta_ranges(
    a0: int, b0: int, a1: int, b1: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Entering/leaving position ranges for a brush move ``[a0,b0)→[a1,b1)``.

    Both lists hold at most two contiguous ``[lo, hi)`` ranges; a
    monotone brush drag produces exactly one entering *or* leaving range.
    """
    overlap_lo, overlap_hi = max(a0, a1), min(b0, b1)
    if overlap_lo >= overlap_hi:
        enter = [(a1, b1)]
        leave = [(a0, b0)]
    else:
        enter = [(a1, overlap_lo), (overlap_hi, b1)]
        leave = [(a0, overlap_lo), (overlap_hi, b0)]
    return (
        [(lo, hi) for lo, hi in enter if hi > lo],
        [(lo, hi) for lo, hi in leave if hi > lo],
    )


class _AggState:
    """Materialized state of one aggregate call across all groups."""

    __slots__ = ("name", "values", "is_string", "count", "total", "extremum")

    def __init__(self, name: str, values: np.ndarray | None, n_states: int) -> None:
        self.name = name
        self.values = values
        self.is_string = values is not None and is_string_array(values)
        #: Non-null in-range rows per group (drives NULL-aware results).
        self.count = np.zeros(n_states, dtype=np.int64)
        self.total = (
            np.zeros(n_states, dtype=np.float64) if name in ("SUM", "AVG") else None
        )
        self.extremum = (
            np.full(n_states, np.nan, dtype=np.float64)
            if name in ("MIN", "MAX")
            else None
        )


class MaterializedView:
    """One maintained group-by aggregate over a prefiltered index tile."""

    def __init__(
        self,
        template: IVMTemplate,
        table: Table,
        sort_idx: np.ndarray,
        sorted_values: np.ndarray,
        n_valid: int,
        state_codes: np.ndarray,
        n_states: int,
        key_values: list[list[object]],
        states: dict[str, _AggState],
    ) -> None:
        self.table_name = template.table_name
        self.base_rows = table.num_rows
        self._aggregate = template.aggregate
        self._grouped = bool(template.aggregate.group_by)
        #: Row indices passing the static conjuncts, sorted by brush value.
        self._sort_idx = sort_idx
        self._sorted_values = sorted_values
        self._n_valid = n_valid
        #: Compact group index of every base-table row.
        self._state_codes = state_codes
        self._n_states = n_states
        #: Decoded group-key value per state, one list per group-by key.
        self._key_values = key_values
        self._states = states
        self._count_star = np.zeros(n_states, dtype=np.int64)
        #: Current brush position range over the sorted tile.
        self._cur = (0, 0)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, template: IVMTemplate, table: Table) -> "MaterializedView | None":
        """Materialize the view, or ``None`` when the data is ineligible."""
        n = table.num_rows
        brush = table.column(template.interval.column)
        if not brush.is_numeric():
            return None

        # The serial aggregate path's evaluator, so GROUP BY may reference
        # SELECT aliases exactly as it does there.
        evaluator = aggregate_evaluator(template.aggregate.items, table)

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

        # Group keys: composite mixed-radix codes over per-key factorized
        # codes (a dictionary column's own codes — no string is hashed).
        # Ascending composite order reproduces the serial group order
        # (numbers < strings < NULL per key, lexicographic across keys),
        # so emitting states in index order is row-identical.
        group_by = template.aggregate.group_by
        if group_by:
            composite = np.zeros(n, dtype=np.int64)
            cardinality = 1
            per_key: list[tuple[np.ndarray, list[object]]] = []
            for expr in group_by:
                codes, uniques = evaluator.column(expr).factorize()
                per_key.append((codes, uniques))
                cardinality *= max(len(uniques), 1)
                if cardinality > _MAX_COMPOSITE:
                    return None
                composite = composite * max(len(uniques), 1) + codes
            uniq, state_codes = np.unique(composite, return_inverse=True)
            state_codes = state_codes.astype(np.int64)
            n_states = len(uniq)
            key_values: list[list[object]] = [[] for _ in group_by]
            remainder = uniq.copy()
            for index in range(len(group_by) - 1, -1, -1):
                _, uniques = per_key[index]
                radix = max(len(uniques), 1)
                key_values[index] = [uniques[c] for c in remainder % radix]
                remainder //= radix
        else:
            state_codes = np.zeros(n, dtype=np.int64)
            n_states = 1
            key_values = []

        # One maintained state per distinct aggregate call.
        states: dict[str, _AggState] = {}
        for item in template.aggregate.items:
            for call in aggregate_item_leaves(item.expression)[0]:
                name = call.name.upper()
                if call.is_star or str(call) in states:
                    continue  # COUNT(*) reads the shared row counter
                values = evaluator.evaluate(call.args[0])
                if is_string_array(values):
                    if name != "COUNT":
                        return None
                elif name in ("SUM", "AVG") and not _exactly_summable(values, n):
                    return None
                states[str(call)] = _AggState(name, values, n_states)

        return cls(
            template,
            table,
            sort_idx,
            sorted_values,
            n_valid,
            state_codes,
            n_states,
            key_values,
            states,
        )

    # ------------------------------------------------------------------ #
    # Brush positions
    # ------------------------------------------------------------------ #
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

    # ------------------------------------------------------------------ #
    # Delta maintenance
    # ------------------------------------------------------------------ #
    def maintain(self, interval: RangeInterval) -> tuple[int, int, int]:
        """Advance the state to ``interval``.

        Returns ``(delta_rows, fallbacks, fallback_rows)`` — the rows
        entering/leaving the range, and the MIN/MAX retraction re-scans
        that were required (count and rows scanned).
        """
        a1, b1 = self.positions(interval)
        a0, b0 = self._cur
        if (a1, b1) == (a0, b0):
            return 0, 0, 0
        enter_ranges, leave_ranges = _delta_ranges(a0, b0, a1, b1)
        leave_rows = self._range_rows(leave_ranges)
        enter_rows = self._range_rows(enter_ranges)
        touched: list[np.ndarray] = []
        refresh: dict[str, np.ndarray] = {}
        if len(leave_rows):
            self._apply_delta(leave_rows, -1, touched, refresh)
        if len(enter_rows):
            self._apply_delta(enter_rows, +1, touched, None)
        self._cur = (a1, b1)

        # Groups whose last in-range non-null value left: clear extrema.
        if touched:
            all_touched = np.unique(np.concatenate(touched))
            for state in self._states.values():
                if state.extremum is not None:
                    emptied = all_touched[state.count[all_touched] == 0]
                    state.extremum[emptied] = np.nan

        # MIN/MAX retraction fallback: the leaving rows may have carried a
        # group's extremum, so re-scan those groups' in-range rows.
        fallbacks = 0
        fallback_rows = 0
        for key, candidates in refresh.items():
            state = self._states[key]
            needed = candidates[state.count[candidates] > 0]
            if needed.size:
                fallbacks += 1
                fallback_rows += b1 - a1
                self._refresh_extrema(state, needed, a1, b1)
        return len(leave_rows) + len(enter_rows), fallbacks, fallback_rows

    def _range_rows(self, ranges: list[tuple[int, int]]) -> np.ndarray:
        if not ranges:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self._sort_idx[lo:hi] for lo, hi in ranges])

    def _apply_delta(
        self,
        rows: np.ndarray,
        sign: int,
        touched_out: list[np.ndarray],
        refresh: dict[str, np.ndarray] | None,
    ) -> None:
        """Merge one delta row set into the state with the given sign.

        Deltas reduce through :func:`aggregate_segments` — the same
        kernel the serial executor uses — so per-segment sums/counts are
        computed identically; the exact-integer eligibility rule then
        makes the running add/subtract bit-identical to a full re-scan.
        """
        codes = self._state_codes[rows]
        order, starts, ends = group_segments([codes], len(rows))
        touched = codes[order[starts]]
        touched_out.append(touched)
        self._count_star[touched] += sign * (ends - starts)
        for key, state in self._states.items():
            values = state.values[rows][order]
            counts = aggregate_segments("COUNT", values, starts, ends).astype(np.int64)
            if state.total is not None:
                sums = aggregate_segments("SUM", values, starts, ends)
                state.total[touched] += sign * np.where(np.isnan(sums), 0.0, sums)
            if state.extremum is not None:
                merge = np.fmin if state.name == "MIN" else np.fmax
                segment = aggregate_segments(state.name, values, starts, ends)
                if sign > 0:
                    state.extremum[touched] = merge(state.extremum[touched], segment)
                elif refresh is not None:
                    current = state.extremum[touched]
                    if state.name == "MIN":
                        at_risk = segment <= current
                    else:
                        at_risk = segment >= current
                    if at_risk.any():
                        refresh[key] = np.union1d(
                            refresh.get(key, np.empty(0, dtype=np.int64)),
                            touched[at_risk],
                        )
            state.count[touched] += sign * counts

    def _refresh_extrema(
        self, state: _AggState, needed: np.ndarray, a: int, b: int
    ) -> None:
        """Recompute MIN/MAX of the ``needed`` groups over the live range."""
        in_range = self._sort_idx[a:b]
        selected = np.zeros(self._n_states, dtype=bool)
        selected[needed] = True
        rows = in_range[selected[self._state_codes[in_range]]]
        state.extremum[needed] = np.nan
        if not len(rows):
            return
        codes = self._state_codes[rows]
        order, starts, ends = group_segments([codes], len(rows))
        touched = codes[order[starts]]
        values = state.values[rows][order]
        state.extremum[touched] = aggregate_segments(state.name, values, starts, ends)

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def materialize(self) -> Table:
        """Emit the aggregate rows exactly as the serial executor would.

        Grouped views emit only groups with in-range rows, in ascending
        composite-code order — the serial group order.  A global
        aggregate always emits its single row, matching the serial
        whole-table segment (even over an empty selection).
        """
        if self._grouped:
            present = np.flatnonzero(self._count_star > 0)
        else:
            present = np.arange(1)

        def shared(expr: Expression) -> list[object]:
            keys = self._key_values[group_key_index(expr, self._aggregate.group_by)]
            return [keys[s] for s in present]

        columns = [
            Column.from_values(
                item.output_name(index),
                evaluate_aggregate_item(
                    item.expression,
                    lambda call: self._maintained(call, present),
                    shared,
                    len(present),
                ),
            )
            for index, item in enumerate(self._aggregate.items)
        ]
        return Table(columns, name=self.table_name)

    def _maintained(self, call: FunctionCall, present: np.ndarray) -> list[object]:
        """The maintained value of one aggregate call per present group."""
        if call.is_star:
            return [float(c) for c in self._count_star[present]]
        state = self._states[str(call)]
        counts = state.count[present]
        name = state.name
        if name == "COUNT":
            return [float(c) for c in counts]
        if name == "SUM":
            totals = state.total[present]
            return [None if c == 0 else float(t) for c, t in zip(counts, totals)]
        if name == "AVG":
            totals = state.total[present]
            return [
                None if c == 0 else float(t / np.float64(c))
                for c, t in zip(counts, totals)
            ]
        extrema = state.extremum[present]
        return [None if c == 0 else float(m) for c, m in zip(counts, extrema)]


class IVMManager:
    """Registry of materialized views keyed by crossfilter query shape.

    A view registers on the :data:`REGISTER_AFTER`-th sighting of an
    eligible shape (successive brush positions share one key because the
    brush literals are excluded from it), is bounded by an LRU of
    :data:`MAX_VIEWS`, and is dropped whenever the catalog re-registers
    or drops its base table.  All state mutates under one lock —
    concurrent sessions brushing the same view serialize their delta
    maintenance.

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
        self._lock = threading.RLock()
        self._executor = Executor(catalog)
        catalog.add_invalidation_listener(self.invalidate)

    # ------------------------------------------------------------------ #
    def view_count(self) -> int:
        """Number of currently materialized views."""
        with self._lock:
            return len(self._views)

    def attempt(self, plan: LogicalPlan) -> tuple[Table, ExecutionStats] | None:
        """Try to answer ``plan`` from a maintained view.

        Returns the result table and its execution stats on a hit, or
        ``None`` when the plan is ineligible or its view is not (yet)
        registered — the engine then re-scans.
        """
        template = ivm_template(plan)
        if template is None:
            return None
        if self._strict and not self._strict_ok(template):
            return None
        with self._lock:
            key = template.view_key
            if key in self._ineligible:
                return None
            view = self._views.get(key)
            if view is None:
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
            else:
                self._views.move_to_end(key)
            try:
                table, stats, delta_rows = self._query(view, template)
            except ReproError:
                # A view that cannot serve its own shape is defective:
                # drop it and let the engine re-scan (same error surface
                # as serial execution, reached through the normal path).
                self._views.pop(key, None)
                self._ineligible[key] = template.table_name
                return None
            self._metrics.add(
                ivm_hits=1,
                ivm_delta_rows=delta_rows,
                ivm_rescan_rows_avoided=max(view.base_rows - delta_rows, 0),
            )
            return table, stats

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
        delta_rows, fallbacks, fallback_rows = view.maintain(template.interval)
        if fallbacks:
            self._metrics.add(ivm_fallbacks=fallbacks, ivm_fallback_rows=fallback_rows)
        stats = ExecutionStats()
        stats.rows_scanned = delta_rows + fallback_rows
        stats.rows_grouped = delta_rows
        table = view.materialize()
        stats.groups_formed = table.num_rows
        stats.record(table.num_rows)
        if template.suffix:
            node = MaterializedNode(table=table)
            for suffix_node in reversed(template.suffix):
                node = replace(suffix_node, child=node)
            table = self._executor.execute_subtree(node, stats)
        stats.rows_output = table.num_rows
        return table, stats, delta_rows

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
