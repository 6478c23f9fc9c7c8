"""Scalar and aggregate function kernels for the SQL executor.

Scalar kernels operate on numpy arrays (vectorised) and propagate NULLs
(``nan`` for numeric arrays, ``None`` inside object arrays).  Aggregate
kernels reduce one numpy array to a single Python value, skipping NULLs as
SQL requires.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import ExecutionError

# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def is_string_array(values: np.ndarray) -> bool:
    """Whether ``values`` is an object (string) array."""
    return values.dtype == object


def null_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of NULL entries for either array flavour."""
    if is_string_array(values):
        return np.array([v is None for v in values], dtype=bool)
    return np.isnan(values)


def _as_float(values: np.ndarray, context: str) -> np.ndarray:
    if is_string_array(values):
        converted = np.empty(len(values), dtype=np.float64)
        for i, value in enumerate(values):
            if value is None:
                converted[i] = np.nan
            else:
                try:
                    converted[i] = float(value)
                except (TypeError, ValueError) as exc:
                    raise ExecutionError(
                        f"{context}: cannot convert {value!r} to a number"
                    ) from exc
        return converted
    return values.astype(np.float64, copy=False)


# --------------------------------------------------------------------------- #
# Scalar functions
# --------------------------------------------------------------------------- #


def _scalar_floor(args: Sequence[np.ndarray]) -> np.ndarray:
    return np.floor(_as_float(args[0], "FLOOR"))


def _scalar_ceil(args: Sequence[np.ndarray]) -> np.ndarray:
    return np.ceil(_as_float(args[0], "CEIL"))


def _scalar_abs(args: Sequence[np.ndarray]) -> np.ndarray:
    return np.abs(_as_float(args[0], "ABS"))


def _scalar_round(args: Sequence[np.ndarray]) -> np.ndarray:
    values = _as_float(args[0], "ROUND")
    if len(args) > 1:
        digits = _as_float(args[1], "ROUND")
        # numpy.round does not accept per-element digit counts; the rewriter
        # only ever emits a constant digit count, so take the first value.
        first = digits[0] if len(digits) else 0.0
        return np.round(values, int(0.0 if np.isnan(first) else first))
    return np.round(values)


def _scalar_sqrt(args: Sequence[np.ndarray]) -> np.ndarray:
    values = _as_float(args[0], "SQRT")
    with np.errstate(invalid="ignore"):
        return np.sqrt(values)


def _scalar_ln(args: Sequence[np.ndarray]) -> np.ndarray:
    values = _as_float(args[0], "LN")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(values)
    out[~np.isfinite(out)] = np.nan
    return out


def _scalar_log(args: Sequence[np.ndarray]) -> np.ndarray:
    values = _as_float(args[0], "LOG")
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log10(values)
    out[~np.isfinite(out)] = np.nan
    return out


def _scalar_exp(args: Sequence[np.ndarray]) -> np.ndarray:
    return np.exp(_as_float(args[0], "EXP"))


def _scalar_power(args: Sequence[np.ndarray]) -> np.ndarray:
    base = _as_float(args[0], "POWER")
    exponent = _as_float(args[1], "POWER")
    with np.errstate(invalid="ignore"):
        return np.power(base, exponent)


def _scalar_upper(args: Sequence[np.ndarray]) -> np.ndarray:
    values = args[0]
    return np.array(
        [None if v is None else str(v).upper() for v in values], dtype=object
    )


def _scalar_lower(args: Sequence[np.ndarray]) -> np.ndarray:
    values = args[0]
    return np.array(
        [None if v is None else str(v).lower() for v in values], dtype=object
    )


def _scalar_length(args: Sequence[np.ndarray]) -> np.ndarray:
    values = args[0]
    return np.array(
        [np.nan if v is None else float(len(str(v))) for v in values], dtype=np.float64
    )


def _scalar_coalesce(args: Sequence[np.ndarray]) -> np.ndarray:
    if not args:
        raise ExecutionError("COALESCE requires at least one argument")
    result = np.array(args[0], copy=True)
    if is_string_array(result):
        for other in args[1:]:
            mask = np.array([v is None for v in result], dtype=bool)
            replacement = other if is_string_array(other) else other.astype(object)
            result[mask] = replacement[mask]
        return result
    for other in args[1:]:
        mask = np.isnan(result)
        result[mask] = _as_float(other, "COALESCE")[mask]
    return result


def _scalar_cast_float(args: Sequence[np.ndarray]) -> np.ndarray:
    return _as_float(args[0], "CAST")


def _scalar_cast_int(args: Sequence[np.ndarray]) -> np.ndarray:
    values = _as_float(args[0], "CAST")
    out = np.trunc(values)
    return out


def _scalar_cast_varchar(args: Sequence[np.ndarray]) -> np.ndarray:
    values = args[0]
    if is_string_array(values):
        return values
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        if np.isnan(value):
            out[i] = None
        elif float(value).is_integer():
            out[i] = str(int(value))
        else:
            out[i] = str(float(value))
    return out


#: Registry of scalar functions by (upper-case) name.
SCALAR_FUNCTIONS: dict[str, Callable[[Sequence[np.ndarray]], np.ndarray]] = {
    "FLOOR": _scalar_floor,
    "CEIL": _scalar_ceil,
    "CEILING": _scalar_ceil,
    "ABS": _scalar_abs,
    "ROUND": _scalar_round,
    "SQRT": _scalar_sqrt,
    "LN": _scalar_ln,
    "LOG": _scalar_log,
    "EXP": _scalar_exp,
    "POWER": _scalar_power,
    "POW": _scalar_power,
    "UPPER": _scalar_upper,
    "LOWER": _scalar_lower,
    "LENGTH": _scalar_length,
    "COALESCE": _scalar_coalesce,
    "CAST_FLOAT": _scalar_cast_float,
    "CAST_DOUBLE": _scalar_cast_float,
    "CAST_INT": _scalar_cast_int,
    "CAST_INTEGER": _scalar_cast_int,
    "CAST_BIGINT": _scalar_cast_int,
    "CAST_VARCHAR": _scalar_cast_varchar,
    "CAST_TEXT": _scalar_cast_varchar,
}


def apply_scalar_function(name: str, args: Sequence[np.ndarray]) -> np.ndarray:
    """Apply the scalar function ``name`` to already-evaluated arguments."""
    try:
        kernel = SCALAR_FUNCTIONS[name.upper()]
    except KeyError as exc:
        raise ExecutionError(f"unknown scalar function {name!r}") from exc
    return kernel(args)


# --------------------------------------------------------------------------- #
# Aggregate functions
# --------------------------------------------------------------------------- #


def _non_null(values: np.ndarray) -> np.ndarray:
    mask = null_mask(values)
    return values[~mask]


def _agg_count(values: np.ndarray, distinct: bool) -> float:
    present = _non_null(values)
    if distinct:
        if is_string_array(present):
            return float(len(set(present.tolist())))
        return float(np.unique(present).size)
    return float(len(present))


def _agg_sum(values: np.ndarray, distinct: bool) -> float | None:
    present = _non_null(values)
    if is_string_array(present):
        raise ExecutionError("SUM requires a numeric argument")
    if distinct:
        present = np.unique(present)
    if present.size == 0:
        return None
    return float(present.sum())


def _agg_avg(values: np.ndarray, distinct: bool) -> float | None:
    present = _non_null(values)
    if is_string_array(present):
        raise ExecutionError("AVG requires a numeric argument")
    if distinct:
        present = np.unique(present)
    if present.size == 0:
        return None
    return float(present.mean())


def _agg_min(values: np.ndarray, distinct: bool) -> object:
    present = _non_null(values)
    if present.size == 0:
        return None
    if is_string_array(present):
        return min(present.tolist())
    return float(present.min())


def _agg_max(values: np.ndarray, distinct: bool) -> object:
    present = _non_null(values)
    if present.size == 0:
        return None
    if is_string_array(present):
        return max(present.tolist())
    return float(present.max())


def _agg_median(values: np.ndarray, distinct: bool) -> float | None:
    present = _non_null(values)
    if is_string_array(present):
        raise ExecutionError("MEDIAN requires a numeric argument")
    if distinct:
        present = np.unique(present)
    if present.size == 0:
        return None
    return float(np.median(present))


def _agg_stddev(values: np.ndarray, distinct: bool) -> float | None:
    present = _non_null(values)
    if is_string_array(present):
        raise ExecutionError("STDDEV requires a numeric argument")
    if distinct:
        present = np.unique(present)
    if present.size < 2:
        return None
    return float(present.std(ddof=1))


def _agg_variance(values: np.ndarray, distinct: bool) -> float | None:
    present = _non_null(values)
    if is_string_array(present):
        raise ExecutionError("VARIANCE requires a numeric argument")
    if distinct:
        present = np.unique(present)
    if present.size < 2:
        return None
    return float(present.var(ddof=1))


#: Registry of aggregate functions by (upper-case) name.
AGGREGATE_KERNELS: dict[str, Callable[[np.ndarray, bool], object]] = {
    "COUNT": _agg_count,
    "SUM": _agg_sum,
    "AVG": _agg_avg,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "MEDIAN": _agg_median,
    "STDDEV": _agg_stddev,
    "VARIANCE": _agg_variance,
}


def apply_aggregate(name: str, values: np.ndarray, distinct: bool = False) -> object:
    """Apply the aggregate ``name`` to a value array, skipping NULLs."""
    try:
        kernel = AGGREGATE_KERNELS[name.upper()]
    except KeyError as exc:
        raise ExecutionError(f"unknown aggregate function {name!r}") from exc
    return kernel(values, distinct)


#: Aggregates with a ``reduceat``-based batch kernel over group segments
#: and a partial state that merges exactly: COUNT and SUM add, MIN and MAX
#: reduce again, AVG carries (sum, count).  IVM views maintain exactly
#: these.
MERGEABLE_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def aggregate_segment_arrays(
    name: str, values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray | None:
    """One float64 per ``values[starts[g]:ends[g]]`` segment, NaN = NULL.

    The batch kernel behind :func:`apply_aggregate_segments`: the common
    numeric aggregates reduce all segments in one ``numpy.reduceat``
    pass over the group-sorted ``values``.  Returns ``None`` when the
    input has no batch form (string values, order-statistic aggregates,
    segments that do not tile ``values``) — callers then reduce segment
    by segment.
    """
    upper = name.upper()
    batchable = (
        not is_string_array(values)
        and upper in MERGEABLE_AGGREGATES
        and len(values) > 0
        and len(starts) > 0
        # reduceat(values, starts) reduces values[starts[g]:starts[g+1]],
        # so the fast path requires the segments to tile ``values`` exactly
        # (which grouping always produces); anything gapped, overlapping,
        # or empty-segmented falls back to the per-segment kernels.
        and bool(starts[0] == 0)
        and bool(ends[-1] == len(values))
        and bool(np.array_equal(np.asarray(starts[1:]), np.asarray(ends[:-1])))
        and bool(np.all(np.asarray(starts) < np.asarray(ends)))
    )
    if not batchable:
        return None
    nan_mask = np.isnan(values)
    counts = np.add.reduceat((~nan_mask).astype(np.float64), starts)
    if upper == "COUNT":
        return counts
    if upper in ("SUM", "AVG"):
        reduced = np.add.reduceat(np.where(nan_mask, 0.0, values), starts)
        if upper == "AVG":
            with np.errstate(invalid="ignore", divide="ignore"):
                reduced = reduced / counts
    elif upper == "MIN":
        reduced = np.minimum.reduceat(np.where(nan_mask, np.inf, values), starts)
    else:
        reduced = np.maximum.reduceat(np.where(nan_mask, -np.inf, values), starts)
    return np.where(counts == 0, np.nan, reduced)


def apply_aggregate_segments(
    name: str,
    values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    distinct: bool = False,
) -> list[object]:
    """Apply an aggregate to every ``values[starts[g]:ends[g]]`` segment.

    ``values`` must already be in group-sorted order.  The list form of
    :func:`aggregate_segment_arrays` (``None`` for NULL); string inputs,
    DISTINCT, and order-statistic aggregates fall back to the
    per-segment scalar kernels (still evaluated over pre-sliced
    segments, never re-materialised tables).
    """
    upper = name.upper()
    if upper not in AGGREGATE_KERNELS:
        raise ExecutionError(f"unknown aggregate function {name!r}")
    reduced = None if distinct else aggregate_segment_arrays(upper, values, starts, ends)
    if reduced is None:
        return [
            apply_aggregate(upper, values[start:end], distinct)
            for start, end in zip(starts, ends)
        ]
    out = reduced.tolist()
    for index in np.flatnonzero(np.isnan(reduced)):
        out[index] = None
    return out


#: Arithmetic an aggregate SELECT item may apply to aggregate results.
SCALAR_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


def combine_scalar(op: str, left: object, right: object) -> object:
    """``left op right`` on two per-group values: NULL when either is NULL,
    and for ``x / 0`` and ``x % 0``."""
    if left is None or right is None:
        return None
    lv, rv = float(left), float(right)
    if op in ("/", "%") and rv == 0:
        return None
    return SCALAR_ARITHMETIC[op](lv, rv)
