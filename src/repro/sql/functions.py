"""Scalar function kernels and the one aggregate kernel.

Scalar kernels operate on numpy arrays (vectorised) and propagate NULLs
(``nan`` for numeric arrays, ``None`` inside object arrays).
:func:`aggregate_segments` reduces group segments of one array, skipping
NULLs as SQL requires.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.sql.ast_nodes import AGGREGATE_FUNCTIONS

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

#: Aggregates with a ``reduceat`` batch form over group segments and a
#: partial state that merges exactly: COUNT and SUM add, MIN and MAX
#: reduce again, AVG carries (sum, count).  IVM views admit exactly
#: these.
MERGEABLE_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def aggregate_segments(
    name: str,
    values: np.ndarray,
    starts: Sequence[int],
    ends: Sequence[int],
    distinct: bool = False,
) -> np.ndarray:
    """Reduce every ``values[starts[g]:ends[g]]`` segment, skipping NULLs.

    The one aggregate kernel: the executor's groups and window totals,
    sqlite's MEDIAN/STDDEV/VARIANCE and the client's
    ``aggregate``/``joinaggregate`` all reduce here, so a value does not
    depend on which of them computed it.  ``values`` is a column's array
    in group-sorted order (float64 with NaN = NULL, or objects with
    ``None`` = NULL).  Returns one value per segment: float64 with NaN =
    NULL, or objects with ``None`` = NULL for MIN/MAX over strings.

    COUNT/SUM/AVG/MIN/MAX over numbers reduce all segments in one
    ``numpy.reduceat`` pass when the segments tile ``values`` (grouping
    always produces that); everything else — DISTINCT, MEDIAN, STDDEV,
    VARIANCE, strings, gapped segments — reduces segment by segment.
    """
    upper = name.upper()
    if upper not in AGGREGATE_FUNCTIONS:
        raise ExecutionError(f"unknown aggregate function {name!r}")
    starts, ends = np.asarray(starts), np.asarray(ends)
    strings = is_string_array(values)
    if strings and len(starts) and upper not in ("COUNT", "MIN", "MAX"):
        raise ExecutionError(f"{upper} requires a numeric argument")
    batchable = (
        not distinct
        and not strings
        and upper in MERGEABLE_AGGREGATES
        and len(values) > 0
        and len(starts) > 0
        # reduceat(values, starts) reduces values[starts[g]:starts[g+1]],
        # so the batch form requires the segments to tile ``values``
        # exactly; anything gapped, overlapping, or empty-segmented
        # reduces segment by segment.
        and bool(starts[0] == 0)
        and bool(ends[-1] == len(values))
        and bool(np.array_equal(starts[1:], ends[:-1]))
        and bool(np.all(starts < ends))
    )
    if batchable:
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
    objects = strings and upper != "COUNT"
    out = np.full(len(starts), None if objects else np.nan, dtype=object if objects else np.float64)
    for index, (start, end) in enumerate(zip(starts, ends)):
        segment = values[start:end]
        present = segment[~null_mask(segment)]
        if distinct:
            present = (
                np.array(list(set(present.tolist())), dtype=object)
                if strings
                else np.unique(present)
            )
        if upper == "COUNT":
            out[index] = len(present)
        elif len(present) >= (2 if upper in ("STDDEV", "VARIANCE") else 1):
            out[index] = _reduce_segment(upper, present)
    return out


def _reduce_segment(name: str, present: np.ndarray) -> object:
    """One segment's non-NULL values reduced by a non-COUNT aggregate."""
    if name == "SUM":
        return present.sum()
    if name == "AVG":
        return present.mean()
    if name == "MIN":
        return present.min()
    if name == "MAX":
        return present.max()
    if name == "MEDIAN":
        return np.median(present)
    if name == "STDDEV":
        return present.std(ddof=1)
    return present.var(ddof=1)


def none_for_null(values: np.ndarray) -> list[object]:
    """Aggregate results as Python values, ``None`` for NULL."""
    out = values.tolist()
    if not is_string_array(values):
        for index in np.flatnonzero(np.isnan(values)):
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
