"""Secondary indexes: sublinear access paths for candidate queries.

The dominant statement shape in a candidate workload is an equality (or
``IN``) predicate on a TEXT or low-cardinality column plus a GROUP BY and
an aggregate.  The scan engine answers it in O(rows): one full-column
pass to build the predicate mask, another to gather the group codes.
This module gives every table two secondary structures that turn that
into O(result):

* **Inverted group indexes** — per column, ``value -> sorted row
  positions`` in CSR layout over the column's dictionary codes (TEXT
  columns reuse :meth:`Table.dictionary`; other dtypes factorize once).
  An equality predicate resolves to a postings slice; an ``IN`` list to
  the sorted union of its members' postings.
* **Sorted projections** — per numeric column, a stable argsort
  permutation plus the sorted values.  A range predicate binary-searches
  the sorted values and gathers the matching positions through the
  permutation: O(result · log result), not O(rows).  A range that
  matches more than :data:`_RANGE_POSITIONS_FRACTION` of the table
  resolves to its scan mask instead (one vectorized comparison).

All structures are built lazily on first probe under the table's
double-checked lock (the same pattern as dictionary encoding).
:meth:`Table.append_rows` publishes a fresh container
(:meth:`TableIndexes.extended`): the TEXT inverted indexes are extended
with the new rows, everything else rebuilds on its next probe.  The
database-level selection cache never serves stale postings because
every DDL/data mutation clears it.

**Bit-identity contract:** for any resolvable predicate tree,
:func:`resolve_selection` returns a selection — int64 row positions in
ascending order, or a boolean mask — that selects *exactly* the rows of
``expr.evaluate(table)``.  Production has one access path: every
resolvable tree goes through the indexes.  The full-scan reference
lives in the tests: ``tests/sqldb/scan_oracle.py`` patches the
executor's resolver to resolve no selection, so the executor builds
every mask by scanning, and the Hypothesis suite in
``tests/sqldb/test_index_differential.py`` compares the two.

Observability: builds run inside ``index.build`` spans, and process-wide
counters surface as ``index_*`` gauges (``/api/metrics``) and the
``indexes`` section of ``/api/stats``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.errors import CatalogError
from repro.observability import trace_span
from repro.sqldb.expressions import (
    And,
    Between,
    BooleanExpr,
    Comparison,
    ComparisonOp,
    InList,
    Not,
    Or,
)
from repro.sqldb.schema import TableSchema
from repro.sqldb.types import DataType

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.observability import MetricsRegistry
    from repro.sqldb.table import Dictionary, Table

__all__ = [
    "InvertedIndex",
    "SortedProjection",
    "TableIndexes",
    "and_selections",
    "index_eligible",
    "index_leaf_columns",
    "index_stats",
    "or_selections",
    "register_index_metrics",
    "reset_index_stats",
    "resolve_selection",
    "selection_size",
]


# ---------------------------------------------------------------------------
# Tuning constants
# ---------------------------------------------------------------------------

#: Beyond this matched fraction, gathering sorted positions through the
#: permutation loses to the scan mask (positions must be re-sorted, a
#: mask is one sequential comparison).
_RANGE_POSITIONS_FRACTION = 0.25


# ---------------------------------------------------------------------------
# Process-wide counters
# ---------------------------------------------------------------------------


class _IndexStats:
    """Thread-safe counters describing index effectiveness."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with getattr(self, "_lock", threading.Lock()):
            self.builds = 0
            self.probes = 0
            self.statements = 0
            self.fallbacks = 0
            self.rows_selected = 0
            self.rows_avoided = 0

    def record_build(self) -> None:
        with self._lock:
            self.builds += 1

    def record_probe(self, count: int = 1) -> None:
        with self._lock:
            self.probes += count

    def record_statement(self, selected: int, total: int) -> None:
        with self._lock:
            self.statements += 1
            self.rows_selected += selected
            self.rows_avoided += max(0, total - selected)

    def record_fallback(self) -> None:
        with self._lock:
            self.fallbacks += 1

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "builds": float(self.builds),
                "probes": float(self.probes),
                "statements": float(self.statements),
                "fallbacks": float(self.fallbacks),
                "rows_selected": float(self.rows_selected),
                "rows_avoided": float(self.rows_avoided),
            }


_STATS = _IndexStats()


def index_stats() -> dict[str, float]:
    """Process-wide index counters (the ``indexes`` section of
    ``/api/stats``)."""
    return _STATS.snapshot()


def reset_index_stats() -> None:
    _STATS.reset()


def register_index_metrics(registry: "MetricsRegistry") -> None:
    """Expose the index counters as callback gauges on *registry*."""
    for key in ("builds", "probes", "statements", "fallbacks",
                "rows_selected", "rows_avoided"):
        registry.register_gauge(f"index_{key}",
                                lambda key=key: index_stats()[key])


def record_index_statement(selected: int, total: int) -> None:
    """Count one statement served through an index access path."""
    _STATS.record_statement(selected, total)


def record_index_fallback() -> None:
    """Count one statement whose predicate could not be index-resolved."""
    _STATS.record_fallback()


# ---------------------------------------------------------------------------
# Index structures
# ---------------------------------------------------------------------------


class InvertedIndex:
    """``value -> sorted row positions`` in CSR layout.

    ``order`` is a stable argsort of the per-row dictionary codes, so the
    positions of one code form a contiguous slice *in ascending row
    order* — exactly ``np.nonzero(column == value)[0]``, which is what
    the bit-identity contract requires.  Positions are stored as int32
    and handed out as int64.
    """

    def __init__(self, array: np.ndarray | None,
                 dictionary: Dictionary | None = None,
                 counts: np.ndarray | None = None) -> None:
        """Index *array*'s values, or the codes of a TEXT column's
        *dictionary* (then *array* is not read).  *counts* are the rows
        per code when the caller already holds them (the table keeps a
        TEXT column's, see :meth:`~repro.sqldb.table.Table.snapshot`);
        they are counted here otherwise."""
        if dictionary is not None:
            uniques, codes, lookup = dictionary
            self._lookup: dict[Any, int] | None = lookup
            self._uniques = uniques
        else:
            assert array is not None
            self._uniques, codes = np.unique(array, return_inverse=True)
            self._lookup = None
        self._order = np.argsort(codes, kind="stable").astype(np.int32)
        if counts is None:
            counts = np.bincount(codes, minlength=len(self._uniques))
        self._starts = _starts(counts)

    def extended(self, dictionary: Dictionary,
                 counts: np.ndarray) -> "InvertedIndex":
        """This dictionary-coded index over the table after an append.

        *dictionary* is the column's extended encoding and *counts* its
        rows per code.  The new rows hold the largest positions, so each
        code's postings are its old slice followed by its new positions:
        one ``np.insert`` of the (stably code-sorted) new positions at
        the ends of their codes' slices, with no sort over the old rows.
        A code new to the dictionary has no slice yet; its rows go after
        every old one.  Equal to building the index from *dictionary*
        afresh.
        """
        uniques, codes, lookup = dictionary
        old_rows = len(self._order)
        added = codes[old_rows:]
        arrival = np.argsort(added, kind="stable")
        known = len(self._starts) - 1
        slice_ends = self._starts[np.minimum(added[arrival] + 1, known)]
        index = InvertedIndex.__new__(InvertedIndex)
        index._lookup = lookup
        index._uniques = uniques
        index._order = np.insert(self._order, slice_ends,
                                 (arrival + old_rows).astype(np.int32))
        index._starts = _starts(counts)
        return index

    @property
    def n_distinct(self) -> int:
        return len(self._uniques)

    def estimated_bytes(self) -> int:
        return int(self._order.nbytes + self._starts.nbytes)

    def _code_of(self, value: Any) -> int | None:
        if self._lookup is not None:
            return self._lookup.get(value)
        if isinstance(value, float) and value != value:
            return None  # NaN never equals anything, matching the scan
        position = int(np.searchsorted(self._uniques, value))
        if position < len(self._uniques) \
                and self._uniques[position] == value:
            return position
        return None

    def postings(self, value: Any) -> np.ndarray:
        """Row positions with ``column == value``, ascending (possibly
        empty — absent values are a normal, cheap probe)."""
        code = self._code_of(value)
        if code is None:
            return np.empty(0, dtype=np.int64)
        return self._order[self._starts[code]:self._starts[code + 1]] \
            .astype(np.int64)

    def postings_for_values(self, values: Iterable[Any]) -> np.ndarray:
        """Sorted union of postings over *values* (the ``IN`` shape).

        Distinct codes have disjoint postings, so the union is a plain
        concatenate-and-sort; duplicate values are collapsed first to
        keep positions unique.
        """
        codes = {self._code_of(value) for value in values}
        codes.discard(None)
        if not codes:
            return np.empty(0, dtype=np.int64)
        merged = np.concatenate(
            [self._order[self._starts[code]:self._starts[code + 1]]
             for code in sorted(codes)], dtype=np.int64)
        if len(codes) > 1:
            merged.sort()
        return merged


def _starts(counts: np.ndarray) -> np.ndarray:
    """CSR slice bounds from rows per code: code *c*'s postings are
    ``order[starts[c]:starts[c + 1]]``."""
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


class SortedProjection:
    """Sorted copy of a numeric column + permutation.

    Range predicates binary-search the sorted values; the matching rows
    are ``sort(order[lo:hi])``.  NaNs sort to the end and are excluded
    from the searchable region, matching the scan path (every comparison
    against NaN is false).
    """

    def __init__(self, array: np.ndarray) -> None:
        self._order = np.argsort(array, kind="stable")
        self._values = array[self._order]
        if self._values.dtype.kind == "f":
            self._finite = int(len(self._values)
                               - np.count_nonzero(np.isnan(self._values)))
        else:
            self._finite = len(self._values)

    def estimated_bytes(self) -> int:
        return int(self._order.nbytes + self._values.nbytes)

    def _bounds(self, low: Any, high: Any, low_strict: bool,
                high_strict: bool) -> tuple[int, int]:
        """[lo, hi) over the sorted finite values matching the range."""
        searchable = self._values[:self._finite]
        lo = 0
        hi = self._finite
        if low is not None:
            side = "right" if low_strict else "left"
            lo = int(np.searchsorted(searchable, low, side=side))
        if high is not None:
            side = "left" if high_strict else "right"
            hi = int(np.searchsorted(searchable, high, side=side))
        return lo, max(lo, hi)

    def matched_fraction(self, low: Any, high: Any, low_strict: bool,
                         high_strict: bool) -> float:
        lo, hi = self._bounds(low, high, low_strict, high_strict)
        total = max(1, len(self._values))
        return (hi - lo) / total

    def range_positions(self, low: Any, high: Any, low_strict: bool,
                        high_strict: bool) -> np.ndarray:
        """Ascending row positions inside the range."""
        lo, hi = self._bounds(low, high, low_strict, high_strict)
        return np.sort(self._order[lo:hi])


class TableIndexes:
    """Lazily-built secondary indexes of one table.

    One instance per table snapshot; :meth:`Table.append_rows` replaces
    it with :meth:`extended`, so a structure can never mix old and new
    rows.  Builds are serialised by a per-container lock
    (double-checked, like dictionary encoding) so concurrent first
    probes share one build.
    """

    def __init__(self, table: "Table") -> None:
        self._table = table
        self._lock = threading.Lock()
        self._inverted: dict[str, InvertedIndex] = {}
        self._projections: dict[str, SortedProjection] = {}

    def inverted(self, name: str) -> InvertedIndex:
        key = name.lower()
        index = self._inverted.get(key)
        if index is not None:
            return index
        with self._lock:
            index = self._inverted.get(key)
            if index is not None:
                return index
            table = self._table
            column = table.schema.column(name)
            with trace_span("index.build") as span:
                span.set_attribute("table", table.schema.name)
                span.set_attribute("column", column.name)
                span.set_attribute("kind", "inverted")
                span.set_attribute("rows", table.num_rows)
                if column.dtype == DataType.TEXT:
                    snapshot = table.snapshot()
                    index = InvertedIndex(
                        None, dictionary=snapshot.dictionaries[column.name],
                        counts=snapshot.counts[column.name])
                else:
                    index = InvertedIndex(table.column(column.name))
                span.set_attribute("distinct", index.n_distinct)
            _STATS.record_build()
            self._inverted[key] = index
            return index

    def sorted_projection(self, name: str) -> SortedProjection:
        key = name.lower()
        projection = self._projections.get(key)
        if projection is not None:
            return projection
        with self._lock:
            projection = self._projections.get(key)
            if projection is not None:
                return projection
            table = self._table
            column = table.schema.column(name)
            with trace_span("index.build") as span:
                span.set_attribute("table", table.schema.name)
                span.set_attribute("column", column.name)
                span.set_attribute("kind", "sorted_projection")
                span.set_attribute("rows", table.num_rows)
                projection = SortedProjection(table.column(column.name))
            _STATS.record_build()
            self._projections[key] = projection
            return projection

    def extended(self, table: "Table",
                 dictionaries: "dict[str, Dictionary]",
                 counts: "dict[str, np.ndarray]") -> "TableIndexes":
        """A fresh container for *table* after an append.

        *dictionaries* maps each TEXT column to its extended encoding and
        *counts* to its rows per code.
        The built TEXT inverted indexes carry over, extended with the new
        rows; sorted projections and numeric inverted indexes
        are left to rebuild lazily on their next probe.
        """
        fresh = TableIndexes(table)
        # A copy, not the lock: the caller holds the table's lock, which
        # a first build takes inside this container's lock.
        built = dict(self._inverted)
        for column, dictionary in dictionaries.items():
            index = built.get(column.lower())
            if index is not None:
                fresh._inverted[column.lower()] = index.extended(
                    dictionary, counts[column])
        return fresh

    def estimated_bytes(self) -> int:
        with self._lock:
            return (sum(i.estimated_bytes()
                        for i in self._inverted.values())
                    + sum(p.estimated_bytes()
                          for p in self._projections.values()))


# ---------------------------------------------------------------------------
# Selection algebra (positions <-> masks)
# ---------------------------------------------------------------------------


def selection_size(selection: np.ndarray) -> int:
    """Selected row count of a positions array or a boolean mask."""
    if selection.dtype == np.bool_:
        return int(selection.sum())
    return len(selection)


def and_selections(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Intersection of two selections (either representation)."""
    left_bool = left.dtype == np.bool_
    right_bool = right.dtype == np.bool_
    if left_bool and right_bool:
        return left & right
    if not left_bool and not right_bool:
        return np.intersect1d(left, right, assume_unique=True)
    positions, mask = (right, left) if left_bool else (left, right)
    return positions[mask[positions]]


def or_selections(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Union of two selections (either representation)."""
    left_bool = left.dtype == np.bool_
    right_bool = right.dtype == np.bool_
    if left_bool and right_bool:
        return left | right
    if not left_bool and not right_bool:
        return np.union1d(left, right)
    positions, mask = (right, left) if left_bool else (left, right)
    combined = mask.copy()
    combined[positions] = True
    return combined


# ---------------------------------------------------------------------------
# Predicate resolution
# ---------------------------------------------------------------------------

_RANGE_OPS = {
    ComparisonOp.LT: (None, "high", True),
    ComparisonOp.LE: (None, "high", False),
    ComparisonOp.GT: ("low", None, True),
    ComparisonOp.GE: ("low", None, False),
}


def _range_selection(expr: BooleanExpr, table: "Table", column: str,
                     low: Any, high: Any, low_strict: bool,
                     high_strict: bool) -> np.ndarray:
    """Sorted positions of a narrow range, the scan mask of a wide one."""
    projection = table.indexes().sorted_projection(column)
    _STATS.record_probe()
    fraction = projection.matched_fraction(low, high, low_strict,
                                           high_strict)
    if fraction <= _RANGE_POSITIONS_FRACTION:
        return projection.range_positions(low, high, low_strict,
                                          high_strict)
    return expr.evaluate(table)


def resolve_leaf(expr: BooleanExpr, table: "Table") -> np.ndarray | None:
    """Index-resolve one leaf predicate, or None when no index applies.

    The returned selection (int64 ascending positions, or a boolean
    mask) selects exactly the rows of ``expr.evaluate(table)``.
    """
    if isinstance(expr, Comparison):
        dtype = table.schema.column(expr.column).dtype
        if expr.op == ComparisonOp.EQ:
            _STATS.record_probe()
            return table.indexes().inverted(expr.column).postings(
                expr.value)
        if expr.op in _RANGE_OPS and dtype in (DataType.INT,
                                               DataType.FLOAT):
            low_kind, high_kind, strict = _RANGE_OPS[expr.op]
            low = expr.value if low_kind else None
            high = expr.value if high_kind else None
            return _range_selection(expr, table, expr.column, low, high,
                                    strict if low_kind else False,
                                    strict if high_kind else False)
        return None
    if isinstance(expr, InList):
        _STATS.record_probe()
        return table.indexes().inverted(expr.column).postings_for_values(
            expr.values)
    if isinstance(expr, Between):
        dtype = table.schema.column(expr.column).dtype
        if dtype in (DataType.INT, DataType.FLOAT):
            return _range_selection(expr, table, expr.column, expr.low,
                                    expr.high, False, False)
        return None
    return None


def resolve_selection(
        expr: BooleanExpr, table: "Table",
        leaf_cache: "Callable[[BooleanExpr, Table], np.ndarray | None] | None" = None,
) -> np.ndarray | None:
    """Resolve a predicate tree to a selection through the table's
    secondary indexes, or None when any leaf lacks an index path.

    ``leaf_cache`` is an optional callable ``(expr, table) -> selection
    | None`` used for leaves instead of :func:`resolve_leaf` — the
    executor passes a lookup in the database's selection cache, so
    shared candidate predicates probe once until the data changes.
    """
    if isinstance(expr, And):
        if not expr.children:
            return np.ones(table.num_rows, dtype=bool)
        combined: np.ndarray | None = None
        for child in expr.children:
            selection = resolve_selection(child, table, leaf_cache)
            if selection is None:
                return None
            combined = (selection if combined is None
                        else and_selections(combined, selection))
        return combined
    if isinstance(expr, Or):
        if not expr.children:
            return np.zeros(table.num_rows, dtype=bool)
        combined = None
        for child in expr.children:
            selection = resolve_selection(child, table, leaf_cache)
            if selection is None:
                return None
            combined = (selection if combined is None
                        else or_selections(combined, selection))
        return combined
    if isinstance(expr, Not):
        # Complementing a selection is O(rows) either way; the scan
        # path's vectorized ~mask is already optimal.
        return None
    if leaf_cache is not None:
        return leaf_cache(expr, table)
    return resolve_leaf(expr, table)


# ---------------------------------------------------------------------------
# Static eligibility (the cost model's view; never builds an index)
# ---------------------------------------------------------------------------


def index_eligible(expr: BooleanExpr | None,
                   schema: TableSchema) -> bool:
    """Whether every leaf of *expr* has an index access path.

    Mirrors :func:`resolve_selection` structurally but consults only the
    schema, so the planner can cost probe-vs-scan without touching (or
    building) any index.
    """
    return expr is not None and index_leaf_columns(expr, schema) is not None


def index_leaf_columns(expr: BooleanExpr,
                       schema: TableSchema) -> list[str] | None:
    """The indexed column of every leaf, or None if any leaf is not
    index-servable (used for probe costing: one search per leaf)."""
    try:
        if isinstance(expr, (And, Or)):
            if not expr.children:
                return []
            columns: list[str] = []
            for child in expr.children:
                sub = index_leaf_columns(child, schema)
                if sub is None:
                    return None
                columns.extend(sub)
            return columns
        if isinstance(expr, Comparison):
            dtype = schema.column(expr.column).dtype
            if expr.op == ComparisonOp.EQ:
                return [expr.column]
            if expr.op in _RANGE_OPS and dtype in (DataType.INT,
                                                   DataType.FLOAT):
                return [expr.column]
            return None
        if isinstance(expr, InList):
            schema.column(expr.column)
            return [expr.column]
        if isinstance(expr, Between):
            if schema.column(expr.column).dtype in (DataType.INT,
                                                    DataType.FLOAT):
                return [expr.column]
            return None
        return None
    except CatalogError:
        return None
