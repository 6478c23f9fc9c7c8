"""Recursive-descent parser for the supported SQL subset.

Grammar (informal)::

    statement   := select
    select      := SELECT [DISTINCT] item (, item)* FROM source
                   [WHERE expr] [GROUP BY expr (, expr)*] [HAVING expr]
                   [ORDER BY order (, order)*] [LIMIT n] [OFFSET n]
    source      := identifier [AS alias] | ( select ) [AS alias]
    item        := * | expr [AS alias]
    order       := expr [ASC | DESC]
    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive [comparison | IN | IS NULL | BETWEEN | LIKE]
    additive    := multiplicative ((+|-|'||') multiplicative)*
    multiplicative := unary ((*|/|%) unary)*
    unary       := - unary | primary
    primary     := literal | case | function | column | ( expr )
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    SubquerySource,
    TableSource,
    UnaryOp,
    WindowFunction,
)
from repro.sql.tokenizer import Token, TokenType, tokenize

#: Function names that accept ``(*)`` as argument.
_STAR_FUNCTIONS = {"COUNT"}


class _Parser:
    """Stateful cursor over a token list."""

    def __init__(self, tokens: list[Token], sql: str) -> None:
        self._tokens = tokens
        self._pos = 0
        self._sql = sql

    # -------------------------------------------------------------- #
    # Cursor helpers
    # -------------------------------------------------------------- #
    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.ttype is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(
            f"{message} (near {token.value!r} at position {token.position} in {self._sql!r})"
        )

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._peek()
        if not token.is_keyword(keyword):
            raise self._error(f"expected keyword {keyword}")
        return self._advance()

    def _expect_punct(self, value: str) -> Token:
        token = self._peek()
        if token.ttype is not TokenType.PUNCTUATION or token.value != value:
            raise self._error(f"expected {value!r}")
        return self._advance()

    def _match_keyword(self, *keywords: str) -> bool:
        if self._peek().is_keyword(*keywords):
            self._advance()
            return True
        return False

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.ttype is TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _match_operator(self, *values: str) -> str | None:
        token = self._peek()
        if token.ttype is TokenType.OPERATOR and token.value in values:
            self._advance()
            return token.value
        return None

    # -------------------------------------------------------------- #
    # Statement parsing
    # -------------------------------------------------------------- #
    def parse_statement(self) -> SelectStatement:
        stmt = self._parse_select()
        if self._peek().ttype is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return stmt

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())

        self._expect_keyword("FROM")
        source = self._parse_source()

        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expression()

        group_by: list[Expression] = []
        if self._peek().is_keyword("GROUP"):
            self._advance()
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._match_punct(","):
                group_by.append(self._parse_expression())

        having = None
        if self._match_keyword("HAVING"):
            having = self._parse_expression()

        order_by: list[OrderItem] = []
        if self._peek().is_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._match_punct(","):
                order_by.append(self._parse_order_item())

        limit = None
        if self._match_keyword("LIMIT"):
            limit = self._parse_integer("LIMIT")
        offset = None
        if self._match_keyword("OFFSET"):
            offset = self._parse_integer("OFFSET")

        return SelectStatement(
            items=tuple(items),
            source=source,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_integer(self, clause: str) -> int:
        token = self._peek()
        if token.ttype is not TokenType.NUMBER:
            raise self._error(f"expected integer after {clause}")
        self._advance()
        try:
            return int(float(token.value))
        except ValueError as exc:  # pragma: no cover - tokenizer guarantees numeric
            raise self._error(f"invalid integer {token.value!r}") from exc

    def _parse_source(self):
        if self._match_punct("("):
            query = self._parse_select()
            self._expect_punct(")")
            alias = self._parse_optional_alias()
            return SubquerySource(query=query, alias=alias)
        token = self._peek()
        if token.ttype is not TokenType.IDENTIFIER:
            raise self._error("expected table name or sub-query in FROM")
        self._advance()
        alias = self._parse_optional_alias()
        return TableSource(name=token.value, alias=alias)

    def _parse_optional_alias(self) -> str | None:
        if self._match_keyword("AS"):
            token = self._peek()
            if token.ttype is not TokenType.IDENTIFIER:
                raise self._error("expected alias after AS")
            self._advance()
            return token.value
        token = self._peek()
        if token.ttype is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        return None

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.ttype is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return SelectItem(expression=Star())
        expr = self._parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias_token = self._peek()
            if alias_token.ttype not in (TokenType.IDENTIFIER, TokenType.STRING):
                raise self._error("expected alias after AS")
            self._advance()
            alias = alias_token.value
        elif self._peek().ttype is TokenType.IDENTIFIER:
            alias = self._advance().value
        return SelectItem(expression=expr, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expression()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        else:
            self._match_keyword("ASC")
        return OrderItem(expression=expr, descending=descending)

    # -------------------------------------------------------------- #
    # Expression parsing (precedence climbing)
    # -------------------------------------------------------------- #
    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._match_keyword("OR"):
            right = self._parse_and()
            left = BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            right = self._parse_not()
            left = BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()

        token = self._peek()
        if token.ttype is TokenType.OPERATOR and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self._advance().value
            if op == "!=":
                op = "<>"
            right = self._parse_additive()
            return BinaryOp(op, left, right)

        negated = False
        if token.is_keyword("NOT") and self._peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
            self._advance()
            negated = True
            token = self._peek()

        if token.is_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            values = [self._parse_expression()]
            while self._match_punct(","):
                values.append(self._parse_expression())
            self._expect_punct(")")
            return InList(expr=left, values=tuple(values), negated=negated)

        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(expr=left, low=low, high=high, negated=negated)

        if token.is_keyword("LIKE"):
            self._advance()
            pattern = self._parse_additive()
            expr: Expression = BinaryOp("LIKE", left, pattern)
            if negated:
                expr = UnaryOp("NOT", expr)
            return expr

        if token.is_keyword("IS"):
            self._advance()
            is_negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(expr=left, negated=is_negated)

        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            op = self._match_operator("+", "-", "||")
            if op is None:
                return left
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right)

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            op = self._match_operator("*", "/", "%")
            if op is None:
                return left
            right = self._parse_unary()
            left = BinaryOp(op, left, right)

    def _parse_unary(self) -> Expression:
        if self._match_operator("-"):
            return UnaryOp("-", self._parse_unary())
        if self._match_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()

        if token.ttype is TokenType.NUMBER:
            self._advance()
            value = float(token.value)
            if value.is_integer() and "." not in token.value and "e" not in token.value.lower():
                return Literal(int(value))
            return Literal(value)

        if token.ttype is TokenType.STRING:
            self._advance()
            return Literal(token.value)

        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)

        if token.is_keyword("CASE"):
            return self._parse_case()

        if token.is_keyword("CAST"):
            return self._parse_cast()

        if token.ttype is TokenType.PUNCTUATION and token.value == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr

        if token.ttype is TokenType.IDENTIFIER:
            return self._parse_identifier_expression()

        raise self._error("expected expression")

    def _parse_case(self) -> Expression:
        self._expect_keyword("CASE")
        whens: list[tuple[Expression, Expression]] = []
        while self._match_keyword("WHEN"):
            cond = self._parse_expression()
            self._expect_keyword("THEN")
            value = self._parse_expression()
            whens.append((cond, value))
        default = None
        if self._match_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        if not whens:
            raise self._error("CASE requires at least one WHEN clause")
        return CaseExpression(whens=tuple(whens), default=default)

    def _parse_cast(self) -> Expression:
        # CAST(expr AS type) -- modelled as a function call CAST_TYPE(expr).
        self._expect_keyword("CAST")
        self._expect_punct("(")
        expr = self._parse_expression()
        self._expect_keyword("AS")
        type_token = self._peek()
        if type_token.ttype not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise self._error("expected type name in CAST")
        self._advance()
        self._expect_punct(")")
        return FunctionCall(name=f"CAST_{type_token.value.upper()}", args=(expr,))

    def _parse_identifier_expression(self) -> Expression:
        name_token = self._advance()
        name = name_token.value

        # Function call
        if self._peek().ttype is TokenType.PUNCTUATION and self._peek().value == "(":
            self._advance()
            call = self._parse_function_call(name)
            if self._peek().is_keyword("OVER"):
                return self._parse_window(call)
            return call

        # Qualified column reference (alias.column)
        if self._peek().ttype is TokenType.PUNCTUATION and self._peek().value == ".":
            self._advance()
            column_token = self._peek()
            if column_token.ttype is TokenType.OPERATOR and column_token.value == "*":
                self._advance()
                return Star()
            if column_token.ttype is not TokenType.IDENTIFIER:
                raise self._error("expected column name after '.'")
            self._advance()
            return ColumnRef(name=column_token.value, table=name)

        return ColumnRef(name=name)

    def _parse_function_call(self, name: str) -> FunctionCall:
        upper = name.upper()
        if self._peek().ttype is TokenType.OPERATOR and self._peek().value == "*":
            if upper not in _STAR_FUNCTIONS:
                raise self._error(f"function {name} does not accept '*'")
            self._advance()
            self._expect_punct(")")
            return FunctionCall(name=upper, is_star=True)
        if self._match_punct(")"):
            return FunctionCall(name=upper)
        distinct = self._match_keyword("DISTINCT")
        args = [self._parse_expression()]
        while self._match_punct(","):
            args.append(self._parse_expression())
        self._expect_punct(")")
        return FunctionCall(name=upper, args=tuple(args), distinct=distinct)

    def _parse_window(self, call: FunctionCall) -> WindowFunction:
        self._expect_keyword("OVER")
        self._expect_punct("(")
        partition_by: list[Expression] = []
        order_by: list[OrderItem] = []
        if self._peek().is_keyword("PARTITION"):
            self._advance()
            self._expect_keyword("BY")
            partition_by.append(self._parse_expression())
            while self._match_punct(","):
                partition_by.append(self._parse_expression())
        if self._peek().is_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._match_punct(","):
                order_by.append(self._parse_order_item())
        self._expect_punct(")")
        return WindowFunction(
            function=call,
            partition_by=tuple(partition_by),
            order_by=tuple(order_by),
        )


def parse_sql(sql: str) -> SelectStatement:
    """Parse SQL text into a :class:`SelectStatement`.

    Raises
    ------
    ParseError
        If the text is not a valid statement in the supported subset.
    """
    tokens = tokenize(sql)
    return _Parser(tokens, sql).parse_statement()
