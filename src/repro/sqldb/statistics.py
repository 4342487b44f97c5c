"""Column statistics and selectivity estimation.

This mirrors the part of the Postgres planner MUVE relies on: per-column
distinct counts, min/max bounds and most-common-value lists, combined into
selectivity estimates for predicate trees.  The estimates drive
:mod:`repro.sqldb.planner` cost numbers, which in turn drive MUVE's query
merging decisions and the processing-cost-aware ILP.

A :class:`TableStatistics` reads one snapshot of its table when it is
built and analyzes each column from that snapshot the first time an
estimate reads it, at most once per column (double-checked locking):
a planner that only reads the WHERE and GROUP BY columns never pays for
the others, and rows appended after the snapshot never show.  Column
statistics are frozen dataclasses, so a statistics object is freely
shared between threads; :meth:`repro.sqldb.database.Database.statistics`
builds one per table and drops it on insert (see DESIGN.md, "Concurrency
model").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.sqldb.expressions import (
    And,
    BooleanExpr,
    Comparison,
    ComparisonOp,
    InList,
    Not,
    Or,
)
from repro.sqldb.schema import ColumnSchema
from repro.sqldb.table import Table, TableSnapshot
from repro.sqldb.types import DataType

_DEFAULT_EQ_SELECTIVITY = 0.005
_DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
_MCV_LIST_SIZE = 100


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics of one column over one table."""

    name: str
    dtype: DataType
    n_distinct: int
    min_value: float | None
    max_value: float | None
    mcv_values: tuple
    mcv_fractions: tuple[float, ...]

    @property
    def mcv_total_fraction(self) -> float:
        return float(sum(self.mcv_fractions))

    def equality_selectivity(self, value) -> float:
        """Estimated fraction of rows with column == value."""
        for mcv, fraction in zip(self.mcv_values, self.mcv_fractions):
            if mcv == value:
                return fraction
        remaining_distinct = self.n_distinct - len(self.mcv_values)
        if remaining_distinct <= 0:
            # Everything is in the MCV list and the value isn't there.
            return 0.0
        remaining_fraction = max(0.0, 1.0 - self.mcv_total_fraction)
        return remaining_fraction / remaining_distinct

    def range_selectivity(self, op: ComparisonOp, value) -> float:
        """Estimated fraction of rows satisfying ``column <op> value``."""
        if (self.min_value is None or self.max_value is None
                or not isinstance(value, (int, float))):
            return _DEFAULT_RANGE_SELECTIVITY
        lo, hi = self.min_value, self.max_value
        if hi <= lo:
            below = 0.5
        else:
            below = (float(value) - lo) / (hi - lo)
        below = min(1.0, max(0.0, below))
        if op in (ComparisonOp.LT, ComparisonOp.LE):
            return below
        return 1.0 - below


class TableStatistics:
    """Statistics for all columns of a table, each column analyzed from
    the construction-time snapshot on first read."""

    def __init__(self, table: Table, mcv_size: int = _MCV_LIST_SIZE) -> None:
        self.table_name = table.schema.name
        self._snapshot = table.snapshot()
        self.num_rows = self._snapshot.num_rows
        self._mcv_size = mcv_size
        self._schema = {column.name.lower(): column
                        for column in table.schema.columns}
        self._columns: dict[str, ColumnStatistics] = {}
        self._lock = threading.Lock()

    def column(self, name: str) -> ColumnStatistics:
        stats = self._analyzed(name)
        if stats is None:
            raise KeyError(name.lower())
        return stats

    def n_distinct(self, name: str) -> float:
        """Distinct-value count of a column (the secondary-index probe
        cost model's search-depth input); 200.0 when unanalyzed, like
        the GROUP BY estimate's default."""
        stats = self._analyzed(name)
        return float(stats.n_distinct) if stats else 200.0

    def _analyzed(self, name: str) -> ColumnStatistics | None:
        """The statistics of column *name* (None if the table has no such
        column), analyzed on the first call for that column."""
        key = name.lower()
        stats = self._columns.get(key)
        if stats is None:
            schema_column = self._schema.get(key)
            if schema_column is None:
                return None
            with self._lock:
                stats = self._columns.get(key)
                if stats is None:
                    stats = _analyze_column(self._snapshot, schema_column,
                                            self._mcv_size)
                    self._columns[key] = stats
        return stats

    # ------------------------------------------------------------------
    # Selectivity of predicate trees
    # ------------------------------------------------------------------

    def selectivity(self, expr: BooleanExpr | None) -> float:
        """Estimated selectivity of a predicate tree in [0, 1]."""
        if expr is None:
            return 1.0
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(expr)
        if isinstance(expr, InList):
            stats = self._analyzed(expr.column)
            if stats is None:
                return min(1.0, _DEFAULT_EQ_SELECTIVITY * len(expr.values))
            total = sum(stats.equality_selectivity(v) for v in expr.values)
            return min(1.0, total)
        if isinstance(expr, And):
            result = 1.0
            for child in expr.children:
                result *= self.selectivity(child)
            return result
        if isinstance(expr, Or):
            result = 0.0
            for child in expr.children:
                child_sel = self.selectivity(child)
                result = result + child_sel - result * child_sel
            return result
        if isinstance(expr, Not):
            return 1.0 - self.selectivity(expr.child)
        return _DEFAULT_RANGE_SELECTIVITY

    def _comparison_selectivity(self, expr: Comparison) -> float:
        stats = self._analyzed(expr.column)
        if stats is None:
            if expr.op == ComparisonOp.EQ:
                return _DEFAULT_EQ_SELECTIVITY
            if expr.op == ComparisonOp.NE:
                return 1.0 - _DEFAULT_EQ_SELECTIVITY
            return _DEFAULT_RANGE_SELECTIVITY
        if expr.op == ComparisonOp.EQ:
            return stats.equality_selectivity(expr.value)
        if expr.op == ComparisonOp.NE:
            return 1.0 - stats.equality_selectivity(expr.value)
        return stats.range_selectivity(expr.op, expr.value)

    def estimate_rows(self, expr: BooleanExpr | None) -> float:
        """Expected number of rows surviving the predicate."""
        return self.num_rows * self.selectivity(expr)

    def estimate_groups(self, group_columns: tuple[str, ...]) -> float:
        """Expected number of GROUP BY output groups (capped at row count).

        Uses the independence assumption: the product of per-column distinct
        counts, like Postgres before extended statistics.
        """
        if not group_columns:
            return 1.0
        product = 1.0
        for name in group_columns:
            stats = self._analyzed(name)
            product *= stats.n_distinct if stats else 200.0
        return min(float(max(self.num_rows, 1)), product)


def _analyze_column(snapshot: TableSnapshot, column: ColumnSchema,
                    mcv_size: int) -> ColumnStatistics:
    name, dtype = column.name, column.dtype
    if snapshot.num_rows == 0:
        return ColumnStatistics(name, dtype, 0, None, None, (), ())
    min_value = max_value = None
    if dtype == DataType.TEXT:
        # The dictionary holds the distinct values and the table keeps
        # the rows per code: sorting the (few) distinct values gives the
        # arrays ``np.unique(array, return_counts=True)`` returns,
        # without reading a row.
        uniques, _, _ = snapshot.dictionaries[name]
        ascending = np.argsort(uniques)
        values = uniques[ascending]
        counts = snapshot.counts[name][ascending]
    else:
        array = snapshot.columns[name]
        values, counts = _value_counts(array)
        if dtype.is_numeric:
            min_value = float(array.min())
            max_value = float(array.max())
    n_distinct = len(values)
    order = np.argsort(counts)[::-1][:mcv_size]
    total = float(snapshot.num_rows)
    mcv_values = tuple(values[order].tolist())
    mcv_fractions = tuple(float(counts[i]) / total for i in order)
    return ColumnStatistics(
        name=name,
        dtype=dtype,
        n_distinct=n_distinct,
        min_value=min_value,
        max_value=max_value,
        mcv_values=mcv_values,
        mcv_fractions=mcv_fractions,
    )


def _value_counts(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(array, return_counts=True)`` of a numeric column, read
    off one sorted copy.

    At most 24 bytes per row are held at once, where ``np.unique`` holds
    about 33.  NaNs collapse into one value counted last, as in
    ``np.unique``.
    """
    ordered = np.sort(array)
    finite = len(ordered)
    if np.isnan(ordered[-1]):
        finite = int(np.searchsorted(ordered, ordered[-1], side="left"))
    head = ordered[:finite]
    run_starts = np.empty(finite, dtype=bool)
    run_starts[:1] = True
    np.not_equal(head[1:], head[:-1], out=run_starts[1:])
    starts = np.flatnonzero(run_starts)
    del run_starts
    runs = len(starts) + (finite < len(ordered))
    values = np.empty(runs, dtype=ordered.dtype)
    np.take(head, starts, out=values[:len(starts)], mode="clip")
    values[len(starts):] = ordered[finite:finite + 1]
    del ordered, head
    counts = np.empty(runs, dtype=np.intp)
    np.subtract(starts[1:], starts[:-1], out=counts[:len(starts) - 1])
    counts[len(starts) - 1:len(starts)] = finite - starts[-1:]
    counts[len(starts):] = len(array) - finite
    return values, counts
