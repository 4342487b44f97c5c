"""Tests for the structured AggregateQuery form."""

import pytest

from repro.sqldb.expressions import AggregateCall, AggregateFunction
from repro.sqldb.query import AggregateQuery, Predicate


class TestConstruction:
    def test_build_helper(self):
        query = AggregateQuery.build("t", "avg", "x", {"a": "v"})
        assert query.aggregate.func == AggregateFunction.AVG
        assert query.aggregate.column == "x"
        assert query.predicates == (Predicate("a", "v"),)

    def test_predicates_canonically_sorted(self):
        q1 = AggregateQuery.build("t", "count", None,
                                  {"b": "2", "a": "1"})
        q2 = AggregateQuery.build("t", "count", None,
                                  {"a": "1", "b": "2"})
        assert q1.predicates == q2.predicates
        assert q1 == q2

    def test_exact_duplicate_predicates_dropped(self):
        call = AggregateCall(AggregateFunction.COUNT, None)
        repeated = AggregateQuery("t", call, (
            Predicate("s", "Open"), Predicate("a", "x"),
            Predicate("s", "Open")))
        assert repeated.predicates == (Predicate("a", "x"),
                                       Predicate("s", "Open"))
        assert repeated == AggregateQuery.build(
            "t", "count", None, {"a": "x", "s": "Open"})

    def test_immutable(self):
        query = AggregateQuery.build("t", "count", None)
        with pytest.raises(AttributeError):
            query.table = "other"

    def test_hashable_and_deduplicable(self):
        q1 = AggregateQuery.build("t", "sum", "x", {"a": "v"})
        q2 = AggregateQuery.build("t", "sum", "x", {"a": "v"})
        assert len({q1, q2}) == 1

    def test_table_name_case_insensitive_equality(self):
        q1 = AggregateQuery.build("T", "count", None)
        q2 = AggregateQuery.build("t", "count", None)
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_inequality_different_aggregate(self):
        q1 = AggregateQuery.build("t", "min", "x")
        q2 = AggregateQuery.build("t", "max", "x")
        assert q1 != q2


class TestSqlRendering:
    def test_no_predicates(self):
        query = AggregateQuery.build("t", "count", None)
        assert query.to_sql() == "SELECT COUNT(*) FROM t"

    def test_with_predicates(self):
        query = AggregateQuery.build("t", "avg", "x",
                                     {"city": "nyc", "dept": "eng"})
        assert query.to_sql() == (
            "SELECT AVG(x) FROM t WHERE city = 'nyc' AND dept = 'eng'")

    def test_numeric_predicate_value(self):
        query = AggregateQuery("t",
                               AggregateCall(AggregateFunction.COUNT, None),
                               (Predicate("year", 2020),))
        assert "year = 2020" in query.to_sql()

    def test_where_expression_matches_sql(self):
        query = AggregateQuery.build("t", "count", None, {"a": "v"})
        assert query.where_expression().to_sql() == "a = 'v'"


class TestElements:
    def test_element_enumeration(self):
        query = AggregateQuery.build("t", "avg", "x", {"a": "v", "b": "w"})
        kinds = [e.kind for e in query.elements()]
        assert kinds == ["agg_func", "agg_column", "pred_column",
                         "pred_value", "pred_column", "pred_value"]

    def test_count_star_has_no_agg_column_element(self):
        query = AggregateQuery.build("t", "count", None, {"a": "v"})
        kinds = [e.kind for e in query.elements()]
        assert "agg_column" not in kinds

    def test_numeric_predicate_value_not_replaceable(self):
        query = AggregateQuery("t",
                               AggregateCall(AggregateFunction.COUNT, None),
                               (Predicate("year", 2020),))
        kinds = [e.kind for e in query.elements()]
        assert "pred_value" not in kinds

    def test_replace_agg_func(self):
        query = AggregateQuery.build("t", "avg", "x")
        element = next(e for e in query.elements() if e.kind == "agg_func")
        replaced = query.replace_element(element, "max")
        assert replaced.aggregate.func == AggregateFunction.MAX
        assert replaced.aggregate.column == "x"

    def test_replace_agg_column(self):
        query = AggregateQuery.build("t", "avg", "x")
        element = next(e for e in query.elements()
                       if e.kind == "agg_column")
        assert query.replace_element(element, "y").aggregate.column == "y"

    def test_replace_pred_value(self):
        query = AggregateQuery.build("t", "count", None, {"a": "old"})
        element = next(e for e in query.elements()
                       if e.kind == "pred_value")
        replaced = query.replace_element(element, "new")
        assert replaced.predicate_on("a").value == "new"

    def test_replace_pred_column(self):
        query = AggregateQuery.build("t", "count", None, {"a": "v"})
        element = next(e for e in query.elements()
                       if e.kind == "pred_column")
        replaced = query.replace_element(element, "b")
        assert replaced.predicate_on("b") is not None
        assert replaced.predicate_on("a") is None

    def test_replace_elements_positions_refer_to_the_original(self):
        """Renaming the first predicate's column re-sorts the result; the
        second substitution must still hit the predicate it named."""
        query = AggregateQuery.build("t", "count", None,
                                     {"agency": "x", "borough": "y"})
        elements = list(query.elements())
        rename = next(e for e in elements
                      if e.kind == "pred_column" and e.text == "agency")
        revalue = next(e for e in elements
                       if e.kind == "pred_value" and e.text == "y")
        replaced = query.replace_elements([(rename, "status"),
                                           (revalue, "z")])
        assert replaced == AggregateQuery.build(
            "t", "count", None, {"status": "x", "borough": "z"})

    def test_replace_does_not_mutate_original(self):
        query = AggregateQuery.build("t", "count", None, {"a": "v"})
        element = next(e for e in query.elements()
                       if e.kind == "pred_value")
        query.replace_element(element, "w")
        assert query.predicate_on("a").value == "v"

    def test_predicate_on_case_insensitive(self):
        query = AggregateQuery.build("t", "count", None, {"City": "nyc"})
        assert query.predicate_on("city") is not None
