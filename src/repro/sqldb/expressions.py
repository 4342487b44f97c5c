"""Expression AST and vectorized evaluation against columnar tables."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import NullAggregateError, TypeMismatchError
from repro.sqldb.schema import TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType, coerce_value


class ComparisonOp(enum.Enum):
    """Binary comparison operators supported in WHERE clauses."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flipped(self) -> "ComparisonOp":
        """The operator with operand sides swapped (for normalisation)."""
        return _FLIPPED[self]


_FLIPPED = {
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
}

_NUMPY_COMPARATORS = {
    ComparisonOp.EQ: np.equal,
    ComparisonOp.NE: np.not_equal,
    ComparisonOp.LT: np.less,
    ComparisonOp.LE: np.less_equal,
    ComparisonOp.GT: np.greater,
    ComparisonOp.GE: np.greater_equal,
}


class BooleanExpr:
    """Base class of boolean-valued expressions (predicates)."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Return a boolean selection mask of length ``table.num_rows``."""
        raise NotImplementedError

    def bind(self, schema: TableSchema) -> "BooleanExpr":
        """Type-check against *schema*, returning a (possibly coerced) copy."""
        raise NotImplementedError

    def referenced_columns(self) -> frozenset[str]:
        raise NotImplementedError

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(BooleanExpr):
    """``column <op> literal``.

    The parser normalises ``literal <op> column`` by flipping the operator,
    so evaluation only handles the column-on-the-left shape.
    """

    column: str
    op: ComparisonOp
    value: Any

    def bind(self, schema: TableSchema) -> "Comparison":
        column = schema.column(self.column)
        coerced = coerce_value(self.value, column.dtype)
        if (column.dtype == DataType.TEXT
                and self.op not in (ComparisonOp.EQ, ComparisonOp.NE)):
            # Allow ordered comparisons on text (lexicographic) like SQL does;
            # they are rare in our workloads but legal.
            pass
        return Comparison(column.name, self.op, coerced)

    def evaluate(self, table: Table) -> np.ndarray:
        comparator = _NUMPY_COMPARATORS[self.op]
        if self.op in (ComparisonOp.EQ, ComparisonOp.NE) and \
                table.schema.column(self.column).dtype == DataType.TEXT:
            # Equality on text runs on the dictionary encoding: one int32
            # comparison per row instead of Python-object comparisons.
            _, codes, index = table.dictionary(self.column)
            code = index.get(self.value, -1)
            mask = codes == code
            if self.op == ComparisonOp.NE:
                mask = ~mask
            return mask
        array = table.column(self.column)
        if array.dtype == object:
            value = self.value
            return np.fromiter(
                (comparator(item, value) for item in array),
                dtype=bool, count=len(array))
        return comparator(array, self.value)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset((self.column,))

    def to_sql(self) -> str:
        return f"{self.column} {self.op.value} {format_literal(self.value)}"


@dataclass(frozen=True)
class InList(BooleanExpr):
    """``column IN (v1, v2, ...)`` — the shape query merging produces."""

    column: str
    values: tuple[Any, ...]

    def bind(self, schema: TableSchema) -> "InList":
        column = schema.column(self.column)
        coerced = tuple(coerce_value(v, column.dtype) for v in self.values)
        return InList(column.name, coerced)

    def evaluate(self, table: Table) -> np.ndarray:
        if not self.values:
            return np.zeros(table.num_rows, dtype=bool)
        if table.schema.column(self.column).dtype == DataType.TEXT:
            # Membership on the dictionary: mark the wanted codes in a
            # boolean table of the (small) dictionary size and gather it
            # through the per-row codes — one O(rows) fancy-index instead
            # of ``np.isin``'s sort-based merge, which dominates merged
            # IN-group execution at candidate-set sizes.
            uniques, codes, index = table.dictionary(self.column)
            wanted = [index[v] for v in self.values if v in index]
            if not wanted:
                return np.zeros(table.num_rows, dtype=bool)
            matched = np.zeros(len(uniques), dtype=bool)
            matched[wanted] = True
            return matched[codes]
        return np.isin(table.column(self.column), np.asarray(self.values))

    def referenced_columns(self) -> frozenset[str]:
        return frozenset((self.column,))

    def to_sql(self) -> str:
        inner = ", ".join(format_literal(v) for v in self.values)
        return f"{self.column} IN ({inner})"


@dataclass(frozen=True)
class Between(BooleanExpr):
    """``column BETWEEN low AND high`` (inclusive both ends, like SQL)."""

    column: str
    low: Any
    high: Any

    def bind(self, schema: TableSchema) -> "Between":
        column = schema.column(self.column)
        return Between(column.name,
                       coerce_value(self.low, column.dtype),
                       coerce_value(self.high, column.dtype))

    def evaluate(self, table: Table) -> np.ndarray:
        array = table.column(self.column)
        if array.dtype == object:
            low, high = self.low, self.high
            return np.fromiter((low <= item <= high for item in array),
                               dtype=bool, count=len(array))
        return (array >= self.low) & (array <= self.high)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset((self.column,))

    def to_sql(self) -> str:
        return (f"{self.column} BETWEEN {format_literal(self.low)} "
                f"AND {format_literal(self.high)}")


@dataclass(frozen=True)
class Like(BooleanExpr):
    """``column LIKE pattern`` with SQL wildcards ``%`` and ``_``.

    Matching is case-sensitive, as in Postgres; patterns compile to an
    anchored regular expression once per evaluation.
    """

    column: str
    pattern: str

    def bind(self, schema: TableSchema) -> "Like":
        column = schema.column(self.column)
        if column.dtype != DataType.TEXT:
            raise TypeMismatchError(
                f"LIKE requires a text column, {column.name!r} is "
                f"{column.dtype.value}")
        return Like(column.name, self.pattern)

    def _compiled(self):
        import re
        fragments = []
        for ch in self.pattern:
            if ch == "%":
                fragments.append(".*")
            elif ch == "_":
                fragments.append(".")
            else:
                fragments.append(re.escape(ch))
        return re.compile("".join(fragments) + r"\Z")

    def evaluate(self, table: Table) -> np.ndarray:
        regex = self._compiled()
        # Match per distinct value via the dictionary, then map to rows.
        uniques, codes, _ = table.dictionary(self.column)
        matched = np.fromiter(
            (regex.match(value) is not None for value in uniques),
            dtype=bool, count=len(uniques))
        return matched[codes]

    def referenced_columns(self) -> frozenset[str]:
        return frozenset((self.column,))

    def to_sql(self) -> str:
        return f"{self.column} LIKE {format_literal(self.pattern)}"


@dataclass(frozen=True)
class And(BooleanExpr):
    """Conjunction of one or more predicates."""

    children: tuple[BooleanExpr, ...]

    def bind(self, schema: TableSchema) -> "And":
        return And(tuple(child.bind(schema) for child in self.children))

    def evaluate(self, table: Table) -> np.ndarray:
        return combine_masks(self, table, lambda leaf: leaf.evaluate(table))

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(
            *(child.referenced_columns() for child in self.children))

    def to_sql(self) -> str:
        if not self.children:
            return "TRUE"
        return " AND ".join(_parenthesize(child) for child in self.children)


@dataclass(frozen=True)
class Or(BooleanExpr):
    """Disjunction of one or more predicates."""

    children: tuple[BooleanExpr, ...]

    def bind(self, schema: TableSchema) -> "Or":
        return Or(tuple(child.bind(schema) for child in self.children))

    def evaluate(self, table: Table) -> np.ndarray:
        return combine_masks(self, table, lambda leaf: leaf.evaluate(table))

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(
            *(child.referenced_columns() for child in self.children))

    def to_sql(self) -> str:
        if not self.children:
            return "FALSE"
        return " OR ".join(_parenthesize(child) for child in self.children)


@dataclass(frozen=True)
class Not(BooleanExpr):
    """Negation."""

    child: BooleanExpr

    def bind(self, schema: TableSchema) -> "Not":
        return Not(self.child.bind(schema))

    def evaluate(self, table: Table) -> np.ndarray:
        return combine_masks(self, table, lambda leaf: leaf.evaluate(table))

    def referenced_columns(self) -> frozenset[str]:
        return self.child.referenced_columns()

    def to_sql(self) -> str:
        return f"NOT ({self.child.to_sql()})"


def combine_masks(expr: BooleanExpr, table: Table,
                  leaf: Callable[[BooleanExpr], np.ndarray]) -> np.ndarray:
    """The boolean mask of *expr*: AND/OR/NOT over the masks *leaf*
    returns for its leaf predicates.

    AND stops at an all-false mask and OR at an all-true one, leaving
    the remaining children unevaluated.  *leaf* may return shared
    arrays, and the result may be one of them (a lone leaf, a one-child
    AND or OR): callers must not mutate it in place.
    """
    if isinstance(expr, And):
        if not expr.children:
            return np.ones(table.num_rows, dtype=bool)
        mask = combine_masks(expr.children[0], table, leaf)
        for child in expr.children[1:]:
            if not mask.any():
                break
            mask = mask & combine_masks(child, table, leaf)
        return mask
    if isinstance(expr, Or):
        if not expr.children:
            return np.zeros(table.num_rows, dtype=bool)
        mask = combine_masks(expr.children[0], table, leaf)
        for child in expr.children[1:]:
            if mask.all():
                break
            mask = mask | combine_masks(child, table, leaf)
        return mask
    if isinstance(expr, Not):
        return ~combine_masks(expr.child, table, leaf)
    return leaf(expr)


def conjunction(terms: Sequence[BooleanExpr]) -> BooleanExpr | None:
    """``t1 AND t2 AND ...`` in the shape the parser produces: no clause
    for no terms, the term itself for one, one flat :class:`And` else."""
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return And(tuple(terms))


def _parenthesize(expr: BooleanExpr) -> str:
    if isinstance(expr, (And, Or)):
        return f"({expr.to_sql()})"
    return expr.to_sql()


def format_literal(value: Any) -> str:
    """Render a Python literal as SQL text (single-quoted strings)."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return str(value)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------


class AggregateFunction(enum.Enum):
    """Aggregation functions producing a single numeric value."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    @property
    def requires_numeric(self) -> bool:
        return self in (AggregateFunction.SUM, AggregateFunction.AVG)


@dataclass(frozen=True)
class AggregateCall:
    """``func([DISTINCT] column)`` or ``COUNT(*)`` (column ``None``)."""

    func: AggregateFunction
    column: str | None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.column is None and self.func != AggregateFunction.COUNT:
            raise TypeMismatchError(
                f"{self.func.value.upper()}(*) is not valid SQL")
        if self.distinct and self.column is None:
            raise TypeMismatchError("COUNT(DISTINCT *) is not valid SQL")

    def bind(self, schema: TableSchema) -> "AggregateCall":
        if self.column is None:
            return self
        column = schema.column(self.column)
        if self.func.requires_numeric and not column.dtype.is_numeric:
            raise TypeMismatchError(
                f"{self.func.value.upper()} requires a numeric column, "
                f"{column.name!r} is {column.dtype.value}")
        return AggregateCall(self.func, column.name, self.distinct)

    def compute(self, table: Table) -> float:
        """Evaluate over all rows of *table*, returning a float.

        Empty inputs follow SQL semantics loosely: ``COUNT`` is 0, other
        aggregates raise (SQL would return NULL; the MUVE pipeline treats
        that as "no bar", surfaced as an error here).
        """
        if self.column is None:
            return float(table.num_rows)
        array = table.column(self.column)
        if self.distinct:
            array = np.array(sorted(set(array.tolist())),
                             dtype=array.dtype)
        if self.func == AggregateFunction.COUNT:
            return float(len(array))
        if len(array) == 0:
            raise NullAggregateError(
                f"{self.func.value.upper()}({self.column}) over zero rows "
                "has no value (SQL NULL)")
        if array.dtype == object:
            if self.func == AggregateFunction.MIN:
                return min(array)
            if self.func == AggregateFunction.MAX:
                return max(array)
            raise TypeMismatchError(
                f"{self.func.value.upper()} not supported on text")
        if self.func == AggregateFunction.SUM:
            return float(array.sum())
        if self.func == AggregateFunction.AVG:
            return float(array.mean())
        if self.func == AggregateFunction.MIN:
            return float(array.min())
        return float(array.max())

    def to_sql(self) -> str:
        target = "*" if self.column is None else self.column
        if self.distinct:
            target = f"DISTINCT {target}"
        return f"{self.func.value.upper()}({target})"
