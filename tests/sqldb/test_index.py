"""Unit tests for the secondary-index layer (:mod:`repro.sqldb.index`).

Each structure is checked against the scan-path ground truth it must
reproduce bit for bit: inverted postings against ``np.nonzero``, sorted
projections and range leaves against the vectorized comparisons, the
selection algebra against boolean set operations.  The Hypothesis suite
in ``test_index_differential.py`` covers whole statements; this file
pins the building blocks and the operational surface (lazy builds,
invalidation, the scan oracle, counters, EXPLAIN).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_nyc311_table
from repro.sqldb.database import Database
from repro.sqldb.expressions import (
    And,
    Between,
    Comparison,
    ComparisonOp,
    InList,
    Not,
    Or,
)
from repro.sqldb.index import (
    InvertedIndex,
    SortedProjection,
    and_selections,
    index_eligible,
    index_leaf_columns,
    index_stats,
    or_selections,
    reset_index_stats,
    resolve_leaf,
    resolve_selection,
    selection_size,
)
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType
from tests.sqldb.scan_oracle import full_scan


def _table(rows=1200, seed=3) -> Table:
    return make_nyc311_table(num_rows=rows, seed=seed)


def _as_mask(selection: np.ndarray, num_rows: int) -> np.ndarray:
    if selection.dtype == np.bool_:
        return selection
    mask = np.zeros(num_rows, dtype=bool)
    mask[selection] = True
    return mask


class TestInvertedIndex:
    def test_text_postings_match_nonzero(self):
        table = _table()
        column = table.column("borough")
        index = InvertedIndex(column, dictionary=table.dictionary("borough"))
        for value in np.unique(column):
            expected = np.nonzero(column == value)[0]
            np.testing.assert_array_equal(index.postings(value), expected)

    def test_absent_value_is_empty_postings(self):
        table = _table()
        index = InvertedIndex(table.column("borough"),
                              dictionary=table.dictionary("borough"))
        postings = index.postings("Atlantis")
        assert postings.dtype == np.int64
        assert len(postings) == 0

    def test_in_list_union_dedupes_and_sorts(self):
        table = _table()
        column = table.column("borough")
        index = InvertedIndex(column, dictionary=table.dictionary("borough"))
        values = ["Bronx", "Queens", "Bronx", "Atlantis"]
        expected = np.nonzero(np.isin(column, values))[0]
        got = index.postings_for_values(values)
        np.testing.assert_array_equal(got, expected)

    def test_numeric_index_ignores_nan_probe(self):
        array = np.array([1.0, np.nan, 2.0, 1.0])
        index = InvertedIndex(array)
        np.testing.assert_array_equal(index.postings(1.0), [0, 3])
        # NaN never equals anything on the scan path either.
        assert len(index.postings(float("nan"))) == 0


class TestSortedProjection:
    def _array(self, n=3 * 8192 + 257, nan_every=97):
        rng = np.random.default_rng(11)
        array = rng.normal(0.0, 10.0, n)
        array[::nan_every] = np.nan
        return array

    @pytest.mark.parametrize("low,high,low_strict,high_strict", [
        (None, 2.5, None, True),     # <
        (None, 2.5, None, False),    # <=
        (-1.0, None, True, None),    # >
        (-1.0, None, False, None),   # >=
        (-3.0, 3.0, False, False),   # BETWEEN
    ])
    def test_range_positions_match_scan(self, low, high, low_strict,
                                        high_strict):
        array = self._array()
        projection = SortedProjection(array)
        expected = np.ones(len(array), dtype=bool)
        with np.errstate(invalid="ignore"):
            if low is not None:
                expected &= (array > low) if low_strict else (array >= low)
            if high is not None:
                expected &= ((array < high) if high_strict
                             else (array <= high))
        positions = projection.range_positions(low, high,
                                               bool(low_strict),
                                               bool(high_strict))
        np.testing.assert_array_equal(positions, np.nonzero(expected)[0])
        # The leaf resolves to positions below the fraction cut-off and
        # to its scan mask above it; both select the same rows.
        schema = TableSchema("t", (ColumnSchema("x", DataType.FLOAT),))
        table = Table(schema, {"x": array})
        if low is not None and high is not None:
            leaf = Between("x", low, high)
        elif low is not None:
            leaf = Comparison("x", ComparisonOp.GT if low_strict
                              else ComparisonOp.GE, low)
        else:
            leaf = Comparison("x", ComparisonOp.LT if high_strict
                              else ComparisonOp.LE, high)
        selection = resolve_leaf(leaf, table)
        np.testing.assert_array_equal(_as_mask(selection, len(array)),
                                      expected)

    def test_wide_range_takes_the_scan_mask(self):
        schema = TableSchema("t", (ColumnSchema("x", DataType.FLOAT),))
        table = Table(schema, {"x": self._array()})
        narrow = resolve_leaf(Between("x", -0.5, 0.5), table)  # ~4%
        wide = resolve_leaf(Comparison("x", ComparisonOp.GE, -1.0),
                            table)  # ~54%
        assert narrow.dtype != np.bool_
        assert wide.dtype == np.bool_

    def test_empty_column(self):
        projection = SortedProjection(np.empty(0, dtype=np.float64))
        assert len(projection.range_positions(0.0, 1.0, False, False)) == 0


class TestSelectionAlgebra:
    MASK_A = np.array([True, False, True, True, False])
    MASK_B = np.array([True, True, False, True, False])
    POS_A = np.nonzero(MASK_A)[0]
    POS_B = np.nonzero(MASK_B)[0]

    @pytest.mark.parametrize("left,right", [
        ("MASK_A", "MASK_B"), ("MASK_A", "POS_B"),
        ("POS_A", "MASK_B"), ("POS_A", "POS_B"),
    ])
    def test_and_or_match_boolean_algebra(self, left, right):
        lhs = getattr(self, left)
        rhs = getattr(self, right)
        np.testing.assert_array_equal(
            _as_mask(and_selections(lhs, rhs), 5), self.MASK_A & self.MASK_B)
        np.testing.assert_array_equal(
            _as_mask(or_selections(lhs, rhs), 5), self.MASK_A | self.MASK_B)

    def test_selection_size(self):
        assert selection_size(self.MASK_A) == 3
        assert selection_size(self.POS_A) == 3


class TestResolveSelection:
    def _check(self, table, expr):
        selection = resolve_selection(expr, table)
        assert selection is not None, expr.to_sql()
        np.testing.assert_array_equal(
            _as_mask(selection, table.num_rows), expr.evaluate(table),
            err_msg=expr.to_sql())

    def test_leaves_and_trees_match_evaluate(self):
        table = _table()
        eq = Comparison("borough", ComparisonOp.EQ, "Bronx")
        in_list = InList("agency", ("NYPD", "HPD", "XYZ"))
        rng = Comparison("resolution_hours", ComparisonOp.GE, 24.0)
        between = Between("num_calls", 1, 3)
        for expr in (eq, in_list, rng, between,
                     And((eq, rng)), Or((eq, in_list)),
                     And((Or((eq, between)), in_list))):
            self._check(table, expr)

    def test_empty_connectives_match_evaluate(self):
        table = _table(rows=50)
        self._check(table, And(()))
        self._check(table, Or(()))

    def test_not_falls_back_to_scan(self):
        table = _table(rows=50)
        expr = Not(Comparison("borough", ComparisonOp.EQ, "Bronx"))
        assert resolve_selection(expr, table) is None

    def test_eligibility_mirrors_resolution(self):
        table = _table(rows=50)
        eq = Comparison("borough", ComparisonOp.EQ, "Bronx")
        assert index_eligible(eq, table.schema)
        assert index_leaf_columns(And((eq, eq)), table.schema) == [
            "borough", "borough"]
        assert not index_eligible(Not(eq), table.schema)
        assert not index_eligible(None, table.schema)
        missing = Comparison("nope", ComparisonOp.EQ, 1)
        assert index_leaf_columns(missing, table.schema) is None


class TestInvalidation:
    def test_indexes_container_is_cached(self):
        table = _table(rows=100)
        assert table.indexes() is table.indexes()

    def test_append_rows_drops_indexes(self):
        schema = TableSchema("t", (
            ColumnSchema("city", DataType.TEXT),
            ColumnSchema("v", DataType.INT),
        ))
        table = Table.from_rows(schema, [("nyc", 1), ("sf", 2)])
        before = table.indexes()
        np.testing.assert_array_equal(
            before.inverted("city").postings("nyc"), [0])
        table.append_rows([("nyc", 3)])
        after = table.indexes()
        assert after is not before
        np.testing.assert_array_equal(
            after.inverted("city").postings("nyc"), [0, 2])


class TestFlagAndStats:
    def test_statement_counters_move(self):
        db = Database(seed=0)
        db.register_table(_table(rows=400))
        reset_index_stats()
        db.execute("SELECT COUNT(*) FROM nyc311 WHERE borough = 'Bronx'")
        stats = index_stats()
        assert stats["statements"] == 1.0
        assert stats["rows_avoided"] > 0.0
        # LIKE has no index path: the statement counts as a fallback.
        db.execute("SELECT COUNT(*) FROM nyc311 WHERE borough LIKE 'B%'")
        assert index_stats()["fallbacks"] == 1.0

    def test_disabled_indexes_keep_results_identical(self):
        db = Database(seed=0)
        db.register_table(_table(rows=400))
        sql = ("SELECT borough, COUNT(*) FROM nyc311 "
               "WHERE borough IN ('Bronx', 'Queens') GROUP BY borough")
        indexed = db.execute(sql).rows
        scanned = full_scan(db, lambda twin: twin.execute(sql).rows)
        assert indexed == scanned


class TestPlannerIntegration:
    def test_explain_prefers_index_at_scale(self):
        db = Database(seed=0)
        db.register_table(_table(rows=2000))
        plan = db.explain(
            "SELECT COUNT(*) FROM nyc311 WHERE borough = 'Bronx'").render()
        assert "Index Scan on nyc311" in plan
        assert "Index Cond: borough = 'Bronx'" in plan

    def test_explain_keeps_seq_scan_on_tiny_tables(self):
        db = Database(seed=0)
        db.register_table(_table(rows=30))
        plan = db.explain(
            "SELECT COUNT(*) FROM nyc311 WHERE borough = 'Bronx'").render()
        assert "Seq Scan on nyc311" in plan


@pytest.mark.slow
class TestMillionRowWorkload:
    def test_indexed_equals_scan_and_wins_at_1m_rows(self):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parents[2]
                               / "scripts"))
        from bench_serving import measure_row_scaling
        entry = measure_row_scaling([1_000_000], requests=4,
                                    candidates=50, rounds=2)[0]
        # measure_row_scaling asserts bit-identity before timing; here
        # we additionally require the sublinear path to actually win.
        assert entry["speedup_p50"] > 2.0, entry
