"""AST node types for the Vega expression language."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class NumberNode:
    """Numeric literal."""

    value: float

    def __str__(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class StringNode:
    """String literal."""

    value: str

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True)
class BooleanNode:
    """Boolean literal (``true``/``false``)."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class NullNode:
    """The ``null`` literal."""

    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True)
class IdentifierNode:
    """Bare identifier: a signal reference (or ``datum`` itself)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MemberNode:
    """Member access, e.g. ``datum.delay`` or ``datum['delay']``."""

    obj: "ExprNode"
    member: str

    def __str__(self) -> str:
        return f"{self.obj}.{self.member}"


@dataclass(frozen=True)
class UnaryNode:
    """Unary operator: ``!x``, ``-x``, ``+x``."""

    op: str
    operand: "ExprNode"

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class BinaryNode:
    """Binary operator (arithmetic, comparison, logical)."""

    op: str
    left: "ExprNode"
    right: "ExprNode"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class ConditionalNode:
    """Ternary conditional ``test ? consequent : alternate``."""

    test: "ExprNode"
    consequent: "ExprNode"
    alternate: "ExprNode"

    def __str__(self) -> str:
        return f"({self.test} ? {self.consequent} : {self.alternate})"


@dataclass(frozen=True)
class CallNode:
    """Function call, e.g. ``abs(datum.delay)`` or ``year(datum.date)``."""

    name: str
    args: tuple["ExprNode", ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


ExprNode = Union[
    NumberNode,
    StringNode,
    BooleanNode,
    NullNode,
    IdentifierNode,
    MemberNode,
    UnaryNode,
    BinaryNode,
    ConditionalNode,
    CallNode,
]


def walk(node: ExprNode):
    """Yield ``node`` and its descendants depth-first."""
    yield node
    if isinstance(node, MemberNode):
        yield from walk(node.obj)
    elif isinstance(node, UnaryNode):
        yield from walk(node.operand)
    elif isinstance(node, BinaryNode):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, ConditionalNode):
        yield from walk(node.test)
        yield from walk(node.consequent)
        yield from walk(node.alternate)
    elif isinstance(node, CallNode):
        for arg in node.args:
            yield from walk(arg)


def referenced_signals(node: ExprNode) -> set[str]:
    """Names of signals referenced by the expression.

    Any bare identifier other than ``datum`` and the boolean/null literals
    is treated as a signal reference, mirroring Vega's scoping rules.
    """
    signals: set[str] = set()
    for child in walk(node):
        if isinstance(child, IdentifierNode) and child.name not in ("datum",):
            signals.add(child.name)
    return signals
