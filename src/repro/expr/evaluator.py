"""Evaluation of Vega expressions against a datum and a signal scope.

The evaluator implements JavaScript-flavoured semantics where they matter
for the benchmark templates: ``&&``/``||`` short-circuit and return the
deciding operand's truthiness as a boolean, ``==`` compares loosely between
numbers and numeric strings, ``null`` compares equal to ``null`` only, and
arithmetic on ``null`` yields ``None``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from repro.errors import ExpressionError
from repro.expr.nodes import (
    BinaryNode,
    BooleanNode,
    CallNode,
    ConditionalNode,
    ExprNode,
    IdentifierNode,
    MemberNode,
    NullNode,
    NumberNode,
    StringNode,
    UnaryNode,
)

#: Seconds per unit used by the date helper functions.  Temporal fields in
#: the synthetic datasets are epoch seconds, so these helpers operate on
#: plain numbers rather than datetime objects.
_SECONDS = {
    "year": 365.25 * 86_400,
    "month": 30.4375 * 86_400,
    "week": 7 * 86_400,
    "day": 86_400,
    "hours": 3_600,
    "minutes": 60,
    "seconds": 1,
}


def _truthy(value: object) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and not (isinstance(value, float) and math.isnan(value))
    if isinstance(value, str):
        return len(value) > 0
    return True


def _to_number(value: object) -> float | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _loose_equals(left: object, right: object) -> bool:
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, (int, float, bool)) and isinstance(right, (int, float, bool)):
        return float(left) == float(right)
    left_num, right_num = _to_number(left), _to_number(right)
    if left_num is not None and right_num is not None:
        return left_num == right_num
    return str(left) == str(right)


class Evaluator:
    """Evaluates parsed Vega expressions.

    Parameters
    ----------
    signals:
        Mapping of signal name → current value, looked up for bare
        identifiers.
    """

    def __init__(self, signals: Mapping[str, object] | None = None) -> None:
        self._signals = dict(signals or {})

    def evaluate(self, node: ExprNode, datum: Mapping[str, object] | None = None) -> object:
        """Evaluate ``node`` for one datum (may be ``None`` for signal-only)."""
        datum = datum or {}
        return self._eval(node, datum)

    # ------------------------------------------------------------------ #
    def _eval(self, node: ExprNode, datum: Mapping[str, object]) -> object:
        if isinstance(node, NumberNode):
            return node.value
        if isinstance(node, StringNode):
            return node.value
        if isinstance(node, BooleanNode):
            return node.value
        if isinstance(node, NullNode):
            return None
        if isinstance(node, IdentifierNode):
            if node.name == "datum":
                return dict(datum)
            if node.name in self._signals:
                return self._signals[node.name]
            raise ExpressionError(f"unknown identifier {node.name!r} (not a signal)")
        if isinstance(node, MemberNode):
            obj = self._eval(node.obj, datum)
            if isinstance(obj, Mapping):
                return obj.get(node.member)
            if isinstance(obj, (list, tuple)) and node.member == "length":
                return float(len(obj))
            return None
        if isinstance(node, UnaryNode):
            value = self._eval(node.operand, datum)
            if node.op == "!":
                return not _truthy(value)
            if node.op == "-":
                number = _to_number(value)
                return None if number is None else -number
            raise ExpressionError(f"unsupported unary operator {node.op!r}")
        if isinstance(node, BinaryNode):
            return self._eval_binary(node, datum)
        if isinstance(node, ConditionalNode):
            test = self._eval(node.test, datum)
            if _truthy(test):
                return self._eval(node.consequent, datum)
            return self._eval(node.alternate, datum)
        if isinstance(node, CallNode):
            return self._eval_call(node, datum)
        raise ExpressionError(f"cannot evaluate node {node!r}")

    def _eval_binary(self, node: BinaryNode, datum: Mapping[str, object]) -> object:
        op = node.op
        if op == "&&":
            left = self._eval(node.left, datum)
            if not _truthy(left):
                return False
            return _truthy(self._eval(node.right, datum))
        if op == "||":
            left = self._eval(node.left, datum)
            if _truthy(left):
                return True
            return _truthy(self._eval(node.right, datum))

        left = self._eval(node.left, datum)
        right = self._eval(node.right, datum)

        if op == "==":
            return _loose_equals(left, right)
        if op == "!=":
            return not _loose_equals(left, right)
        if op in ("<", "<=", ">", ">="):
            if isinstance(left, str) and isinstance(right, str):
                if op == "<":
                    return left < right
                if op == "<=":
                    return left <= right
                if op == ">":
                    return left > right
                return left >= right
            left_num, right_num = _to_number(left), _to_number(right)
            if left_num is None or right_num is None:
                return False
            if op == "<":
                return left_num < right_num
            if op == "<=":
                return left_num <= right_num
            if op == ">":
                return left_num > right_num
            return left_num >= right_num
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return f"{'' if left is None else left}{'' if right is None else right}"
            left_num, right_num = _to_number(left), _to_number(right)
            if left_num is None or right_num is None:
                return None
            return left_num + right_num
        left_num, right_num = _to_number(left), _to_number(right)
        if left_num is None or right_num is None:
            return None
        if op == "-":
            return left_num - right_num
        if op == "*":
            return left_num * right_num
        if op == "/":
            return None if right_num == 0 else left_num / right_num
        if op == "%":
            return None if right_num == 0 else math.fmod(left_num, right_num)
        raise ExpressionError(f"unsupported binary operator {op!r}")

    def _eval_call(self, node: CallNode, datum: Mapping[str, object]) -> object:
        name = node.name.lower()
        args = [self._eval(arg, datum) for arg in node.args]

        def _num(index: int) -> float | None:
            if index >= len(args):
                return None
            return _to_number(args[index])

        if name == "abs":
            value = _num(0)
            return None if value is None else abs(value)
        if name == "ceil":
            value = _num(0)
            return None if value is None else math.ceil(value)
        if name == "floor":
            value = _num(0)
            return None if value is None else math.floor(value)
        if name == "round":
            value = _num(0)
            return None if value is None else round(value)
        if name == "sqrt":
            value = _num(0)
            return None if value is None or value < 0 else math.sqrt(value)
        if name in ("log", "ln"):
            value = _num(0)
            return None if value is None or value <= 0 else math.log(value)
        if name == "exp":
            value = _num(0)
            return None if value is None else math.exp(value)
        if name == "pow":
            base, exponent = _num(0), _num(1)
            if base is None or exponent is None:
                return None
            return math.pow(base, exponent)
        if name == "min":
            numbers = [n for n in (_to_number(a) for a in args) if n is not None]
            return min(numbers) if numbers else None
        if name == "max":
            numbers = [n for n in (_to_number(a) for a in args) if n is not None]
            return max(numbers) if numbers else None
        if name == "length":
            value = args[0] if args else None
            if value is None:
                return 0.0
            return float(len(value)) if hasattr(value, "__len__") else 0.0
        if name == "isvalid":
            value = args[0] if args else None
            if value is None:
                return False
            if isinstance(value, float) and math.isnan(value):
                return False
            return True
        if name == "upper":
            value = args[0] if args else None
            return None if value is None else str(value).upper()
        if name == "lower":
            value = args[0] if args else None
            return None if value is None else str(value).lower()
        if name in _SECONDS:
            # year(ts), month(ts), ... : truncate epoch seconds to the unit index.
            value = _num(0)
            if value is None:
                return None
            if name == "year":
                return 1970 + math.floor(value / _SECONDS["year"])
            return math.floor(value / _SECONDS[name])
        if name == "time":
            return _num(0)
        if name == "if":
            if len(args) != 3:
                raise ExpressionError("if() requires exactly three arguments")
            return args[1] if _truthy(args[0]) else args[2]
        raise ExpressionError(f"unknown function {node.name!r}")

