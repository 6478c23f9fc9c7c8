"""Recursive-descent parser for the Vega expression language.

Grammar (precedence low → high)::

    conditional := logical_or [? expr : expr]
    logical_or  := logical_and (|| logical_and)*
    logical_and := equality (&& equality)*
    equality    := relational ((== | != | === | !==) relational)*
    relational  := additive ((< | <= | > | >=) additive)*
    additive    := multiplicative ((+ | -) multiplicative)*
    multiplicative := unary ((* | / | %) unary)*
    unary       := (! | - | +) unary | postfix
    postfix     := primary (. identifier | [ string ] | ( args ))*
    primary     := number | string | true | false | null | identifier | ( expr )
"""

from __future__ import annotations

import functools

from repro.errors import ExpressionParseError
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
from repro.expr.tokenizer import ExprToken, ExprTokenType, tokenize_expression


class _ExprParser:
    def __init__(self, tokens: list[ExprToken], text: str) -> None:
        self._tokens = tokens
        self._pos = 0
        self._text = text

    def _peek(self) -> ExprToken:
        return self._tokens[self._pos]

    def _advance(self) -> ExprToken:
        token = self._tokens[self._pos]
        if token.ttype is not ExprTokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ExpressionParseError:
        token = self._peek()
        return ExpressionParseError(
            f"{message} (near {token.value!r} at position {token.position} in {self._text!r})"
        )

    def _match_operator(self, *ops: str) -> str | None:
        token = self._peek()
        if token.ttype is ExprTokenType.OPERATOR and token.value in ops:
            self._advance()
            return token.value
        return None

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.ttype is ExprTokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._match_punct(value):
            raise self._error(f"expected {value!r}")

    # ------------------------------------------------------------------ #
    def parse(self) -> ExprNode:
        node = self._parse_conditional()
        if self._peek().ttype is not ExprTokenType.EOF:
            raise self._error("unexpected trailing input")
        return node

    def _parse_conditional(self) -> ExprNode:
        test = self._parse_logical_or()
        if self._match_operator("?"):
            consequent = self._parse_conditional()
            if not self._match_operator(":"):
                raise self._error("expected ':' in conditional expression")
            alternate = self._parse_conditional()
            return ConditionalNode(test=test, consequent=consequent, alternate=alternate)
        return test

    def _parse_logical_or(self) -> ExprNode:
        left = self._parse_logical_and()
        while self._match_operator("||"):
            right = self._parse_logical_and()
            left = BinaryNode("||", left, right)
        return left

    def _parse_logical_and(self) -> ExprNode:
        left = self._parse_equality()
        while self._match_operator("&&"):
            right = self._parse_equality()
            left = BinaryNode("&&", left, right)
        return left

    def _parse_equality(self) -> ExprNode:
        left = self._parse_relational()
        while True:
            op = self._match_operator("==", "!=", "===", "!==")
            if op is None:
                return left
            normalized = "==" if op in ("==", "===") else "!="
            right = self._parse_relational()
            left = BinaryNode(normalized, left, right)

    def _parse_relational(self) -> ExprNode:
        left = self._parse_additive()
        while True:
            op = self._match_operator("<", "<=", ">", ">=")
            if op is None:
                return left
            right = self._parse_additive()
            left = BinaryNode(op, left, right)

    def _parse_additive(self) -> ExprNode:
        left = self._parse_multiplicative()
        while True:
            op = self._match_operator("+", "-")
            if op is None:
                return left
            right = self._parse_multiplicative()
            left = BinaryNode(op, left, right)

    def _parse_multiplicative(self) -> ExprNode:
        left = self._parse_unary()
        while True:
            op = self._match_operator("*", "/", "%")
            if op is None:
                return left
            right = self._parse_unary()
            left = BinaryNode(op, left, right)

    def _parse_unary(self) -> ExprNode:
        op = self._match_operator("!", "-", "+")
        if op is not None:
            operand = self._parse_unary()
            if op == "+":
                return operand
            return UnaryNode(op, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ExprNode:
        node = self._parse_primary()
        while True:
            if self._match_punct("."):
                token = self._peek()
                if token.ttype is not ExprTokenType.IDENTIFIER:
                    raise self._error("expected property name after '.'")
                self._advance()
                node = MemberNode(obj=node, member=token.value)
                continue
            if self._match_punct("["):
                token = self._peek()
                if token.ttype is not ExprTokenType.STRING:
                    raise self._error("expected string key inside '[]'")
                self._advance()
                self._expect_punct("]")
                node = MemberNode(obj=node, member=token.value)
                continue
            if self._match_punct("("):
                if not isinstance(node, IdentifierNode):
                    raise self._error("only named functions can be called")
                args: list[ExprNode] = []
                if not self._match_punct(")"):
                    args.append(self._parse_conditional())
                    while self._match_punct(","):
                        args.append(self._parse_conditional())
                    self._expect_punct(")")
                node = CallNode(name=node.name, args=tuple(args))
                continue
            return node

    def _parse_primary(self) -> ExprNode:
        token = self._peek()
        if token.ttype is ExprTokenType.NUMBER:
            self._advance()
            return NumberNode(token.number)
        if token.ttype is ExprTokenType.STRING:
            self._advance()
            return StringNode(token.value)
        if token.ttype is ExprTokenType.IDENTIFIER:
            self._advance()
            lowered = token.value.lower()
            if lowered == "true":
                return BooleanNode(True)
            if lowered == "false":
                return BooleanNode(False)
            if lowered == "null":
                return NullNode()
            return IdentifierNode(token.value)
        if token.ttype is ExprTokenType.PUNCTUATION and token.value == "(":
            self._advance()
            inner = self._parse_conditional()
            self._expect_punct(")")
            return inner
        raise self._error("expected expression")


def parse_expression(text: str) -> ExprNode:
    """Parse Vega expression ``text`` into an AST.

    Parses are memoised on the source string: a dashboard re-parses the
    same handful of filter/formula expressions on every interaction and
    for every candidate plan.  Sharing the AST is safe because every node
    is a frozen dataclass with tuple children; a failed parse raises and
    is therefore never cached.

    Raises
    ------
    ExpressionParseError
        If the text cannot be parsed.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionParseError(f"expression must be a non-empty string, got {text!r}")
    return _parse(text)


@functools.lru_cache(maxsize=1024)
def _parse(text: str) -> ExprNode:
    return _ExprParser(tokenize_expression(text), text).parse()
