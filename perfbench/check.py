"""Output checks: every answer is well formed and every bar is right.

A bar is right when its value equals ``Database.execute`` of the bar's
query, NULL/NaN counting as equal to each other.  The serving path shows
COUNT and SUM over no rows as 0 (``repro.execution.merging._normalize``);
the check applies the same rule to the direct result.  Floating-point values
may differ in the last bits, because a merged GROUP BY adds the same rows
in another order, so they compare to a relative 1e-9 (float64 sums of a
million terms stay far inside it).

One known defect is counted as a failed ask instead of stopping the run.
A candidate with two predicates on one column (speech noise can turn
``borough = 'Bronx'`` into ``borough = 'Bronx' AND borough = 'Queens'``)
served from a merged ``pred_value`` group shows the value of its first
predicate on that column alone: the merge keys it by
``AggregateQuery.predicate_on``, which returns the first.  A wrong bar is
excused only when its query repeats a column *and* it shows exactly that
value; any other wrong bar stops the run.

The checker executes each bar as a parsed ``SelectStatement``, which skips
the statement cache, so its lookups never count in ``Muve.cache_stats()``.
Bars are checked in batches at points where the data is what the asks saw,
so the checker's queries never warm a cache a later timed ask could use:
after the timed loop, or just before an append (which drops every
statement, cost and selection cache).
"""

from __future__ import annotations

import math


def _is_null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def same_value(shown, expected) -> bool:
    if _is_null(shown) or _is_null(expected):
        return _is_null(shown) and _is_null(expected)
    return math.isclose(shown, expected, rel_tol=1e-9, abs_tol=1e-9)


def plot_signature(multiplot) -> tuple:
    """What the user sees, comparable across runs (NaN-safe)."""
    return tuple(
        tuple((plot.title,
               tuple((bar.query.to_sql(), bar.highlighted, repr(bar.value))
                     for bar in plot.bars))
              for plot in row)
        for row in multiplot.rows)


def first_per_column(query):
    """*query* keeping only the first predicate on each column (in
    ``predicate_on`` order), or None when no column repeats."""
    from repro.sqldb.query import AggregateQuery
    kept: dict = {}
    for predicate in query.predicates:
        kept.setdefault(predicate.column, predicate)
    if len(kept) == len(query.predicates):
        return None
    return AggregateQuery(query.table, query.aggregate, tuple(kept.values()))


class Checker:
    def __init__(self, database) -> None:
        self._database = database
        self._pending: list[tuple[int, object, object]] = []
        self._expected: dict = {}
        self.failures: list[str] = []
        self.bars_checked = 0

    def response(self, ask: int, response) -> tuple | None:
        """Check *response*'s shape and queue its bars; returns the plot
        signature, or None when the answer is malformed."""
        if not response.updates:
            self.failures.append(f"ask {ask}: no visualization updates")
            return None
        multiplot = response.multiplot
        if multiplot.num_bars == 0:
            self.failures.append(f"ask {ask}: empty multiplot")
            return None
        for plot in multiplot.plots():
            for bar in plot.bars:
                self._pending.append((ask, bar.query, bar.value))
        return plot_signature(multiplot)

    def verify(self) -> set[int]:
        """Compare every queued bar with a direct execution; returns the
        asks that showed a wrong value through the known defect."""
        defective: set[int] = set()
        for ask, query, shown in self._pending:
            self.bars_checked += 1
            if same_value(shown, self._value(query)):
                continue
            collapsed = first_per_column(query)
            if collapsed is not None and same_value(
                    shown, self._value(collapsed)):
                defective.add(ask)
                continue
            self.failures.append(
                f"ask {ask}: {query.to_sql()} shows {shown!r}, "
                f"Database.execute gives {self._value(query)!r}")
        self._pending.clear()
        return defective

    def _value(self, query):
        if query not in self._expected:
            self._expected[query] = self._direct(query)
        return self._expected[query]

    def _direct(self, query):
        from repro.errors import NullAggregateError
        from repro.sqldb.parser import parse
        try:
            return self._database.execute(parse(query.to_sql())).scalar()
        except NullAggregateError:  # an aggregate over no rows is NULL
            if query.aggregate.func.value in ("count", "sum"):
                return 0.0
            return None

    def data_changed(self) -> None:
        """Forget expected values (call after verify(), before a write)."""
        self._expected.clear()
