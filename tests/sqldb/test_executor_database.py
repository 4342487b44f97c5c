"""Tests for query execution and the Database façade."""

import struct

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery
from repro.sqldb.types import DataType


class TestScalarAggregates:
    def test_count_star(self, emp_db):
        assert emp_db.execute("SELECT COUNT(*) FROM emp").scalar() == 6.0

    def test_count_with_filter(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp WHERE dept = 'sales'")
        assert result.scalar() == 2.0

    def test_sum(self, emp_db):
        assert emp_db.execute(
            "SELECT SUM(salary) FROM emp").scalar() == 755.0

    def test_avg(self, emp_db):
        result = emp_db.execute(
            "SELECT AVG(salary) FROM emp WHERE city = 'nyc'")
        assert result.scalar() == pytest.approx((100 + 150 + 90) / 3)

    def test_min_max(self, emp_db):
        assert emp_db.execute("SELECT MIN(age) FROM emp").scalar() == 28.0
        assert emp_db.execute("SELECT MAX(salary) FROM emp").scalar() == 200.0

    def test_multiple_aggregates_one_query(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp")
        assert result.rows[0] == (6.0, 90.0, 200.0)

    def test_empty_filter_count_zero(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp WHERE dept = 'missing'")
        assert result.scalar() == 0.0

    def test_empty_filter_avg_raises(self, emp_db):
        with pytest.raises(ExecutionError):
            emp_db.execute("SELECT AVG(salary) FROM emp WHERE dept = 'zz'")

    def test_in_predicate(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp WHERE dept IN ('sales', 'hr')")
        assert result.scalar() == 4.0

    def test_numeric_range(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp WHERE age >= 40")
        assert result.scalar() == 3.0

    def test_or_predicate(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp WHERE dept = 'hr' OR city = 'sf'")
        assert result.scalar() == 3.0

    def test_not_predicate(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp WHERE NOT dept = 'eng'")
        assert result.scalar() == 4.0


class TestGroupBy:
    def test_single_column_groups(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept")
        as_map = {row[0]: row[1] for row in result.rows}
        assert as_map == {"sales": 2.0, "eng": 2.0, "hr": 2.0}

    def test_group_by_with_filter(self, emp_db):
        result = emp_db.execute(
            "SELECT city, SUM(salary) FROM emp "
            "WHERE dept IN ('sales', 'hr') GROUP BY city")
        as_map = {row[0]: row[1] for row in result.rows}
        assert as_map == {"nyc": 190.0, "boston": 215.0}

    def test_group_by_two_columns(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, city, COUNT(*) FROM emp GROUP BY dept, city")
        assert len(result.rows) == 6  # every (dept, city) pair is unique

    def test_group_by_avg(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, AVG(salary) FROM emp GROUP BY dept")
        as_map = {row[0]: row[1] for row in result.rows}
        assert as_map["eng"] == pytest.approx(175.0)

    def test_group_by_min_max_text(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, MIN(city), MAX(city) FROM emp GROUP BY dept")
        as_map = {row[0]: (row[1], row[2]) for row in result.rows}
        assert as_map["sales"] == ("boston", "nyc")

    def test_group_by_empty_input(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, COUNT(*) FROM emp WHERE age > 999 GROUP BY dept")
        assert result.rows == ()

    def test_group_keys_are_python_values(self, emp_db):
        result = emp_db.execute(
            "SELECT age, COUNT(*) FROM emp GROUP BY age")
        assert all(isinstance(row[0], int) for row in result.rows)


class TestNanExtremes:
    """Grouped MIN/MAX agree with the scalar path when measures hold NaN:
    any NaN in a group (an all-NaN group included) gives NaN."""

    GROUPS = {"mixed": [1.0, float("nan"), -2.0],
              "all_nan": [float("nan"), float("nan")],
              "clean": [4.0, 3.0, 5.0],
              "single_nan": [float("nan")]}

    @pytest.fixture()
    def nan_db(self):
        db = Database()
        db.create_table("m", [("g", DataType.TEXT), ("v", DataType.FLOAT)])
        db.insert_rows("m", [(group, value)
                             for group, values in self.GROUPS.items()
                             for value in values])
        return db

    @staticmethod
    def _bits(value):
        return struct.pack("<d", value)

    @pytest.mark.parametrize("func", ["MIN", "MAX"])
    def test_grouped_equals_scalar(self, nan_db, func):
        grouped = {row[0]: row[1] for row in nan_db.execute(
            f"SELECT g, {func}(v) FROM m GROUP BY g").rows}
        assert set(grouped) == set(self.GROUPS)
        for group in self.GROUPS:
            scalar = nan_db.execute(
                f"SELECT {func}(v) FROM m WHERE g = '{group}'").scalar()
            assert self._bits(grouped[group]) == self._bits(scalar), group
        assert np.isnan(grouped["all_nan"])
        assert np.isnan(grouped["mixed"])
        assert grouped["clean"] == (3.0 if func == "MIN" else 5.0)

    @pytest.mark.parametrize("maximize", [False, True])
    def test_group_extreme_matches_per_group_reduction(self, maximize):
        """The grouped kernel keeps the NaN propagation of a per-group
        ``max``/``min`` over each group's values."""
        from repro.sqldb import executor as kernels
        rng = np.random.default_rng(0)
        values = rng.normal(size=40)
        values[rng.random(40) < 0.3] = np.nan
        row_groups = rng.integers(0, 5, size=40)
        values[row_groups == 4] = np.nan  # one all-NaN group
        grouped = kernels._group_extreme(row_groups, values, 5, maximize)
        reduce = np.max if maximize else np.min
        expected = np.array([reduce(values[row_groups == g])
                             for g in range(5)])
        assert grouped.tobytes() == expected.tobytes()
        assert np.isnan(grouped[4])


class TestSampling:
    def test_full_sample_exact(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp TABLESAMPLE BERNOULLI (100)")
        assert result.scalar() == 6.0

    def test_sample_bounded(self, emp_db):
        result = emp_db.execute(
            "SELECT COUNT(*) FROM emp TABLESAMPLE BERNOULLI (50)")
        assert 0.0 <= result.scalar() <= 6.0

    def test_sample_statistically_reasonable(self):
        db = Database(seed=3)
        db.create_table("big", [("k", DataType.TEXT), ("v", DataType.INT)])
        db.insert_rows("big", [("a", i) for i in range(10_000)])
        count = db.execute(
            "SELECT COUNT(*) FROM big TABLESAMPLE BERNOULLI (10)").scalar()
        assert 700 <= count <= 1300


class TestDatabaseFacade:
    def test_create_table_with_type_names(self):
        db = Database()
        schema = db.create_table("t", [("a", "text"), ("b", "bigint")])
        assert schema.column("b").dtype == DataType.INT

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", [("a", DataType.INT)])
        with pytest.raises(CatalogError):
            db.create_table("t", [("a", DataType.INT)])

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Database().execute("SELECT COUNT(*) FROM ghost")

    def test_unknown_column(self, emp_db):
        with pytest.raises(CatalogError):
            emp_db.execute("SELECT COUNT(*) FROM emp WHERE ghost = 1")

    def test_drop_table(self, emp_db):
        emp_db.drop_table("emp")
        with pytest.raises(CatalogError):
            emp_db.execute("SELECT COUNT(*) FROM emp")

    def test_execute_accepts_aggregate_query(self, emp_db):
        query = AggregateQuery.build("emp", "max", "salary",
                                     {"dept": "eng"})
        assert emp_db.execute(query).scalar() == 200.0

    def test_insert_invalidates_statistics(self, emp_db):
        before = emp_db.statistics("emp").num_rows
        emp_db.insert_rows("emp", [("sales", "nyc", 130.0, 33)])
        after = emp_db.statistics("emp").num_rows
        assert after == before + 1

    def test_explain_does_not_execute(self, emp_db):
        plan = emp_db.explain("SELECT COUNT(*) FROM emp WHERE dept = 'hr'")
        assert plan.cost.total > 0
        assert "Seq Scan" in plan.render()

    def test_estimated_cost_scales_with_data(self):
        db = Database()
        db.create_table("t", [("k", DataType.TEXT), ("v", DataType.INT)])
        db.insert_rows("t", [("a", 1)] * 100)
        small = db.estimated_cost("SELECT COUNT(*) FROM t")
        db.insert_rows("t", [("a", 1)] * 9900)
        large = db.estimated_cost("SELECT COUNT(*) FROM t")
        assert large > small * 10

    def test_vocabulary_contains_schema_and_values(self, emp_db):
        vocab = emp_db.vocabulary("emp")
        assert "emp" in vocab
        assert "salary" in vocab
        assert "sales" in vocab and "nyc" in vocab

    def test_result_elapsed_positive(self, emp_db):
        result = emp_db.execute("SELECT COUNT(*) FROM emp")
        assert result.elapsed_seconds > 0

    def test_scalar_on_multirow_raises(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept")
        with pytest.raises(ExecutionError):
            result.scalar()

    def test_column_index_lookup(self, emp_db):
        result = emp_db.execute(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept")
        assert result.column_index("count(*)") == 1
        with pytest.raises(ExecutionError):
            result.column_index("ghost")
