"""Structured aggregation queries — the query class MUVE supports.

The paper's MUVE "currently supports SQL aggregation queries with predicates
on a single table that produce a single, numerical result".
:class:`AggregateQuery` is that shape in structured form: one aggregate call
plus a conjunction of equality predicates.  The rest of the system (candidate
generation, templates, plots, merging) manipulates these objects and converts
to SQL text only at the engine boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator

from repro.sqldb.expressions import (
    AggregateCall,
    AggregateFunction,
    And,
    BooleanExpr,
    Comparison,
    ComparisonOp,
    format_literal,
)

__all__ = [
    "AggregateFunction",
    "AggregateQuery",
    "Predicate",
    "QueryElement",
]


@dataclass(frozen=True)
class Predicate:
    """An equality predicate ``column = value``."""

    column: str
    value: Any

    def to_sql(self) -> str:
        return f"{self.column} = {format_literal(self.value)}"

    def sort_key(self) -> tuple[str, str]:
        return (self.column.lower(), repr(self.value))


@dataclass(frozen=True)
class QueryElement:
    """A replaceable element of a query, for candidate generation.

    ``kind`` is one of ``"agg_func"``, ``"agg_column"``,
    ``"pred_column"``, ``"pred_value"``; ``position`` indexes the
    predicate for the latter two kinds and is ``-1`` otherwise.
    """

    kind: str
    position: int
    text: str


class AggregateQuery:
    """One aggregate over one table, filtered by equality predicates.

    Instances are immutable, hashable and canonical (predicates are
    stored sorted, exact duplicates dropped), so structurally identical
    queries compare equal — candidate deduplication relies on this.  A
    substitution that repeats a predicate (``status = 'Open' AND status
    = 'Open'``) therefore yields the query without the repeat.
    """

    __slots__ = ("table", "aggregate", "predicates", "_hash")

    def __init__(self, table: str, aggregate: AggregateCall,
                 predicates: tuple[Predicate, ...] = ()) -> None:
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "aggregate", aggregate)
        ordered = tuple(sorted(dict.fromkeys(predicates),
                               key=Predicate.sort_key))
        object.__setattr__(self, "predicates", ordered)
        object.__setattr__(
            self, "_hash", hash((table.lower(), aggregate, ordered)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("AggregateQuery is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateQuery):
            return NotImplemented
        return (self.table.lower() == other.table.lower()
                and self.aggregate == other.aggregate
                and self.predicates == other.predicates)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AggregateQuery({self.to_sql()!r})"

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, table: str, func: AggregateFunction | str,
              column: str | None,
              predicates: dict[str, Any] | None = None) -> "AggregateQuery":
        """Readable constructor used throughout tests and examples."""
        if isinstance(func, str):
            func = AggregateFunction(func.lower())
        preds = tuple(Predicate(col, val)
                      for col, val in (predicates or {}).items())
        return cls(table, AggregateCall(func, column), preds)

    # ------------------------------------------------------------------
    # SQL rendering
    # ------------------------------------------------------------------

    def to_sql(self) -> str:
        sql = f"SELECT {self.aggregate.to_sql()} FROM {self.table}"
        if self.predicates:
            conditions = " AND ".join(p.to_sql() for p in self.predicates)
            sql += f" WHERE {conditions}"
        return sql

    def where_expression(self) -> BooleanExpr:
        """The WHERE clause as an expression tree (TRUE if no predicates)."""
        return And(tuple(Comparison(p.column, ComparisonOp.EQ, p.value)
                         for p in self.predicates))

    # ------------------------------------------------------------------
    # Element access for candidate generation / templates
    # ------------------------------------------------------------------

    def elements(self) -> Iterator[QueryElement]:
        """The replaceable elements, in deterministic order."""
        yield QueryElement("agg_func", -1, self.aggregate.func.value)
        if self.aggregate.column is not None:
            yield QueryElement("agg_column", -1, self.aggregate.column)
        for index, predicate in enumerate(self.predicates):
            yield QueryElement("pred_column", index, predicate.column)
            if isinstance(predicate.value, str):
                yield QueryElement("pred_value", index, predicate.value)

    def replace_element(self, element: QueryElement,
                        replacement: str | Any) -> "AggregateQuery":
        """A new query with one element substituted."""
        return self.replace_elements(((element, replacement),))

    def replace_elements(self, substitutions) -> "AggregateQuery":
        """A new query with several ``(element, replacement)`` pairs
        substituted at once.

        Every position refers to *this* query's predicates; the result is
        canonicalised only after all substitutions, so one substitution
        re-sorting or collapsing the predicates cannot redirect the next.
        """
        func, column = self.aggregate.func, self.aggregate.column
        predicates = list(self.predicates)
        for element, replacement in substitutions:
            if element.kind == "agg_func":
                func = AggregateFunction(str(replacement).lower())
            elif element.kind == "agg_column":
                column = str(replacement)
            elif element.kind == "pred_column":
                predicates[element.position] = replace(
                    predicates[element.position], column=str(replacement))
            elif element.kind == "pred_value":
                predicates[element.position] = replace(
                    predicates[element.position], value=replacement)
            else:
                raise ValueError(f"unknown element kind {element.kind!r}")
        aggregate = self.aggregate
        if (func, column) != (aggregate.func, aggregate.column):
            aggregate = AggregateCall(func, column)
        return AggregateQuery(self.table, aggregate, tuple(predicates))

    def predicate_on(self, column: str) -> Predicate | None:
        """The predicate on *column*, or None."""
        lowered = column.lower()
        for predicate in self.predicates:
            if predicate.column.lower() == lowered:
                return predicate
        return None
