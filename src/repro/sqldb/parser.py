"""Recursive-descent parser for the supported SQL subset.

Grammar (case-insensitive keywords)::

    statement    := [EXPLAIN] select
    select       := SELECT item (',' item)* FROM ident
                    [TABLESAMPLE BERNOULLI '(' number ')']
                    [WHERE disjunction]
                    [GROUP BY ident (',' ident)*]
                    [ORDER BY order_item (',' order_item)*]
                    [LIMIT number]
    item         := agg | ident
    agg          := FUNC '(' [DISTINCT] (ident | '*') ')'
    order_item   := (agg | ident) [ASC | DESC]
    disjunction  := conjunction (OR conjunction)*
    conjunction  := unary (AND unary)*
    unary        := NOT unary | '(' disjunction ')' | predicate
    predicate    := operand cmp operand
                  | ident IN '(' literal, ... ')'
                  | ident BETWEEN literal AND literal
                  | ident LIKE string
    operand      := ident | literal

This covers everything MUVE issues: plain aggregates with conjunctive
predicates, merged queries (``IN`` + ``GROUP BY`` with grouping columns in
the select list), and sampled scans for approximate processing — plus the
usual analytical conveniences (ORDER BY/LIMIT, DISTINCT aggregates,
BETWEEN/LIKE predicates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlSyntaxError
from repro.sqldb.expressions import (
    AggregateCall,
    AggregateFunction,
    And,
    Between,
    BooleanExpr,
    Comparison,
    ComparisonOp,
    InList,
    Like,
    Not,
    Or,
    format_literal,
)
from repro.sqldb.lexer import Token, TokenType, tokenize

_AGG_NAMES = frozenset(func.value for func in AggregateFunction)
_COMPARISON_SYMBOLS = frozenset(op.value for op in ComparisonOp)


@dataclass(frozen=True)
class HavingClause:
    """One post-aggregation filter: ``<result column> <op> <literal>``.

    ``target`` follows the same naming as :class:`OrderItem` (a grouping
    column or the lower-cased SQL of an aggregate in the select list).
    Conjunctions of several conditions are stored as a tuple on the
    statement.
    """

    target: str
    op: ComparisonOp
    value: object


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: a result-column reference plus direction.

    ``target`` is either a grouping column name or the SQL text of an
    aggregate in the select list (e.g. ``count(*)``), lower-cased to match
    result column naming.
    """

    target: str
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    """Parsed form of a SELECT query."""

    table: str
    aggregates: tuple[AggregateCall, ...]
    group_by: tuple[str, ...] = ()
    where: BooleanExpr | None = None
    sample_fraction: float | None = None
    select_columns: tuple[str, ...] = field(default=())
    having: tuple[HavingClause, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    explain: bool = False

    def __post_init__(self) -> None:
        if not self.aggregates and not self.select_columns:
            raise SqlSyntaxError("SELECT list is empty")
        extra = set(c.lower() for c in self.select_columns) - set(
            c.lower() for c in self.group_by)
        if extra:
            raise SqlSyntaxError(
                "non-aggregated SELECT columns must appear in GROUP BY: "
                + ", ".join(sorted(extra)))
        if self.limit is not None and self.limit < 0:
            raise SqlSyntaxError("LIMIT must be non-negative")

    def to_sql(self) -> str:
        """Render back to SQL text.

        The rendering is canonical: parsing its own output yields an equal
        statement (``parse(s.to_sql()) == s``), which TABLESAMPLE seeds
        (derived from the rendering) and the round-trip tests rely on.
        """
        select_list = [column for column in self.select_columns]
        select_list.extend(agg.to_sql() for agg in self.aggregates)
        parts = ["EXPLAIN"] if self.explain else []
        parts.append(f"SELECT {', '.join(select_list)} FROM {self.table}")
        if self.sample_fraction is not None:
            parts.append("TABLESAMPLE BERNOULLI "
                         f"({self.sample_fraction * 100:g})")
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append(f"GROUP BY {', '.join(self.group_by)}")
        if self.having:
            rendered = " AND ".join(
                f"{clause.target} {clause.op.value} "
                f"{format_literal(clause.value)}"
                for clause in self.having)
            parts.append(f"HAVING {rendered}")
        if self.order_by:
            keys = ", ".join(
                item.target + (" DESC" if item.descending else "")
                for item in self.order_by)
            parts.append(f"ORDER BY {keys}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


def parse(sql: str) -> SelectStatement:
    """Parse *sql* into a :class:`SelectStatement`."""
    return _Parser(tokenize(sql)).parse_statement()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token helpers -------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.type != TokenType.END:
            self._index += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if not token.matches(TokenType.KEYWORD, keyword):
            raise SqlSyntaxError(
                f"expected {keyword.upper()}, found {token.text!r}",
                token.position)

    def _expect_symbol(self, symbol: str) -> None:
        token = self._advance()
        if not token.matches(TokenType.SYMBOL, symbol):
            raise SqlSyntaxError(
                f"expected {symbol!r}, found {token.text!r}", token.position)

    def _accept_keyword(self, keyword: str) -> bool:
        if self._current.matches(TokenType.KEYWORD, keyword):
            self._advance()
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        if self._current.matches(TokenType.SYMBOL, symbol):
            self._advance()
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.type != TokenType.IDENT:
            raise SqlSyntaxError(
                f"expected identifier, found {token.text!r}", token.position)
        return token.text

    # -- grammar -------------------------------------------------------

    def parse_statement(self) -> SelectStatement:
        explain = self._accept_keyword("explain")
        self._expect_keyword("select")
        aggregates: list[AggregateCall] = []
        select_columns: list[str] = []
        while True:
            self._parse_select_item(aggregates, select_columns)
            if not self._accept_symbol(","):
                break
        self._expect_keyword("from")
        table = self._expect_ident()
        sample_fraction = self._parse_tablesample()
        where: BooleanExpr | None = None
        if self._accept_keyword("where"):
            where = self._parse_disjunction()
        group_by: tuple[str, ...] = ()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            columns = [self._expect_ident()]
            while self._accept_symbol(","):
                columns.append(self._expect_ident())
            group_by = tuple(columns)
        having: tuple[HavingClause, ...] = ()
        if self._accept_keyword("having"):
            if not group_by:
                raise SqlSyntaxError("HAVING requires GROUP BY")
            clauses = [self._parse_having_clause()]
            while self._accept_keyword("and"):
                clauses.append(self._parse_having_clause())
            having = tuple(clauses)
        order_by: tuple[OrderItem, ...] = ()
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            items = [self._parse_order_item()]
            while self._accept_symbol(","):
                items.append(self._parse_order_item())
            order_by = tuple(items)
        limit: int | None = None
        if self._accept_keyword("limit"):
            token = self._advance()
            if token.type != TokenType.NUMBER or any(
                    ch in token.text for ch in ".eE"):
                raise SqlSyntaxError(
                    f"LIMIT expects an integer, found {token.text!r}",
                    token.position)
            limit = int(token.text)
        self._accept_symbol(";")
        token = self._advance()
        if token.type != TokenType.END:
            raise SqlSyntaxError(
                f"unexpected trailing input {token.text!r}", token.position)
        return SelectStatement(
            table=table,
            aggregates=tuple(aggregates),
            group_by=group_by,
            where=where,
            sample_fraction=sample_fraction,
            select_columns=tuple(select_columns),
            having=having,
            order_by=order_by,
            limit=limit,
            explain=explain,
        )

    def _parse_having_clause(self) -> HavingClause:
        token = self._current
        is_agg = (token.type == TokenType.IDENT
                  and token.text.lower() in _AGG_NAMES
                  and self._tokens[self._index + 1].matches(
                      TokenType.SYMBOL, "("))
        if is_agg:
            target = self._parse_aggregate_call().to_sql().lower()
        else:
            target = self._expect_ident()
        op_token = self._advance()
        if (op_token.type != TokenType.SYMBOL
                or op_token.text not in _COMPARISON_SYMBOLS):
            raise SqlSyntaxError(
                f"expected comparison operator in HAVING, found "
                f"{op_token.text!r}", op_token.position)
        return HavingClause(target=target,
                            op=ComparisonOp(op_token.text),
                            value=self._parse_literal())

    def _parse_order_item(self) -> OrderItem:
        token = self._current
        is_agg = (token.type == TokenType.IDENT
                  and token.text.lower() in _AGG_NAMES
                  and self._tokens[self._index + 1].matches(
                      TokenType.SYMBOL, "("))
        if is_agg:
            call = self._parse_aggregate_call()
            target = call.to_sql().lower()
        else:
            target = self._expect_ident()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(target=target, descending=descending)

    def _parse_select_item(self, aggregates: list[AggregateCall],
                           select_columns: list[str]) -> None:
        token = self._current
        is_agg = (token.type == TokenType.IDENT
                  and token.text.lower() in _AGG_NAMES
                  and self._tokens[self._index + 1].matches(
                      TokenType.SYMBOL, "("))
        if is_agg:
            aggregates.append(self._parse_aggregate_call())
        else:
            select_columns.append(self._expect_ident())

    def _parse_aggregate_call(self) -> AggregateCall:
        func = AggregateFunction(self._advance().text.lower())
        self._expect_symbol("(")
        distinct = self._accept_keyword("distinct")
        if self._accept_symbol("*"):
            column: str | None = None
        else:
            column = self._expect_ident()
        self._expect_symbol(")")
        return AggregateCall(func, column, distinct)

    def _parse_tablesample(self) -> float | None:
        if not self._accept_keyword("tablesample"):
            return None
        self._expect_keyword("bernoulli")
        self._expect_symbol("(")
        token = self._advance()
        if token.type != TokenType.NUMBER:
            raise SqlSyntaxError(
                f"expected sample percentage, found {token.text!r}",
                token.position)
        percent = float(token.text)
        self._expect_symbol(")")
        if not 0.0 < percent <= 100.0:
            raise SqlSyntaxError(
                f"sample percentage {percent} outside (0, 100]",
                token.position)
        return percent / 100.0

    def _parse_disjunction(self) -> BooleanExpr:
        terms = [self._parse_conjunction()]
        while self._accept_keyword("or"):
            terms.append(self._parse_conjunction())
        if len(terms) == 1:
            return terms[0]
        return Or(tuple(terms))

    def _parse_conjunction(self) -> BooleanExpr:
        terms = [self._parse_unary()]
        while self._accept_keyword("and"):
            terms.append(self._parse_unary())
        if len(terms) == 1:
            return terms[0]
        return And(tuple(terms))

    def _parse_unary(self) -> BooleanExpr:
        if self._accept_keyword("not"):
            return Not(self._parse_unary())
        if self._accept_symbol("("):
            inner = self._parse_disjunction()
            self._expect_symbol(")")
            return inner
        return self._parse_predicate()

    def _parse_predicate(self) -> BooleanExpr:
        left_token = self._advance()
        if self._current.matches(TokenType.KEYWORD, "between"):
            if left_token.type != TokenType.IDENT:
                raise SqlSyntaxError(
                    "BETWEEN requires a column on the left-hand side",
                    left_token.position)
            self._advance()  # BETWEEN
            low = self._parse_literal()
            self._expect_keyword("and")
            high = self._parse_literal()
            return Between(left_token.text, low, high)
        if self._current.matches(TokenType.KEYWORD, "like"):
            if left_token.type != TokenType.IDENT:
                raise SqlSyntaxError(
                    "LIKE requires a column on the left-hand side",
                    left_token.position)
            self._advance()  # LIKE
            pattern_token = self._advance()
            if pattern_token.type != TokenType.STRING:
                raise SqlSyntaxError(
                    "LIKE expects a string pattern",
                    pattern_token.position)
            return Like(left_token.text, pattern_token.text)
        if self._current.matches(TokenType.KEYWORD, "in"):
            if left_token.type != TokenType.IDENT:
                raise SqlSyntaxError(
                    "IN requires a column on the left-hand side",
                    left_token.position)
            self._advance()  # IN
            self._expect_symbol("(")
            values = [self._parse_literal()]
            while self._accept_symbol(","):
                values.append(self._parse_literal())
            self._expect_symbol(")")
            return InList(left_token.text, tuple(values))

        op_token = self._advance()
        if (op_token.type != TokenType.SYMBOL
                or op_token.text not in _COMPARISON_SYMBOLS):
            raise SqlSyntaxError(
                f"expected comparison operator, found {op_token.text!r}",
                op_token.position)
        op = ComparisonOp(op_token.text)
        right_token = self._advance()

        left_is_column = left_token.type == TokenType.IDENT
        right_is_column = right_token.type == TokenType.IDENT
        if left_is_column and right_is_column:
            raise SqlSyntaxError(
                "column-to-column comparisons are not supported",
                right_token.position)
        if not left_is_column and not right_is_column:
            raise SqlSyntaxError(
                "comparison must reference a column", left_token.position)
        if left_is_column:
            return Comparison(left_token.text, op,
                              _token_literal(right_token))
        # literal <op> column: flip so the column is on the left.
        return Comparison(right_token.text, op.flipped(),
                          _token_literal(left_token))

    def _parse_literal(self):
        return _token_literal(self._advance())


def _token_literal(token: Token):
    if token.type == TokenType.STRING:
        return token.text
    if token.type == TokenType.NUMBER:
        text = token.text
        if any(ch in text for ch in ".eE"):
            return float(text)
        return int(text)
    if token.matches(TokenType.KEYWORD, "true"):
        return True
    if token.matches(TokenType.KEYWORD, "false"):
        return False
    raise SqlSyntaxError(
        f"expected literal, found {token.text!r}", token.position)
