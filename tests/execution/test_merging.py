"""Tests for query merging (Section 8.1)."""

import pytest

from repro.errors import NullAggregateError
from repro.execution.merging import _normalize, plan_execution
from repro.sqldb.expressions import AggregateCall, AggregateFunction
from repro.sqldb.query import AggregateQuery, Predicate


def q(func, column, preds) -> AggregateQuery:
    return AggregateQuery.build("emp", func, column, preds)


class TestPlanning:
    def test_value_variants_merge(self, emp_db):
        queries = [q("count", None, {"dept": d})
                   for d in ("sales", "eng", "hr")]
        plan = plan_execution(emp_db, queries)
        merged = [g for g in plan.groups if g.is_merged]
        assert len(merged) == 1
        assert len(merged[0].queries) == 3
        assert "IN (" in merged[0].sql
        assert "GROUP BY dept" in merged[0].sql

    def test_aggregate_variants_merge(self, emp_db):
        queries = [q(f, "salary", {"dept": "eng"})
                   for f in ("min", "max", "avg")]
        plan = plan_execution(emp_db, queries)
        merged = [g for g in plan.groups if g.is_merged]
        assert len(merged) == 1
        assert merged[0].sql.count("(salary)") == 3

    def test_merge_disabled(self, emp_db):
        queries = [q("count", None, {"dept": d}) for d in ("sales", "eng")]
        plan = plan_execution(emp_db, queries, merge=False)
        assert all(not g.is_merged for g in plan.groups)
        assert len(plan.groups) == 2

    def test_merged_plan_cheaper(self, emp_db):
        queries = [q("count", None, {"dept": d})
                   for d in ("sales", "eng", "hr")]
        merged = plan_execution(emp_db, queries, merge=True)
        separate = plan_execution(emp_db, queries, merge=False)
        assert merged.estimated_cost < separate.estimated_cost
        assert merged.unmerged_cost == pytest.approx(
            separate.estimated_cost)

    def test_unmergeable_queries_run_alone(self, emp_db):
        queries = [q("count", None, {"dept": "sales"}),
                   q("avg", "salary", {"city": "nyc"})]
        plan = plan_execution(emp_db, queries)
        assert all(not g.is_merged for g in plan.groups)

    def test_duplicates_deduplicated(self, emp_db):
        query = q("count", None, {"dept": "sales"})
        plan = plan_execution(emp_db, [query, query])
        assert sum(len(g.queries) for g in plan.groups) == 1

    def test_every_query_covered_exactly_once(self, emp_db):
        queries = ([q("count", None, {"dept": d})
                    for d in ("sales", "eng", "hr")]
                   + [q("max", "salary", {"dept": "sales"})]
                   + [q("avg", "age", {"city": c})
                      for c in ("nyc", "sf")])
        plan = plan_execution(emp_db, queries)
        covered = [query for group in plan.groups
                   for query in group.queries]
        assert sorted(x.to_sql() for x in covered) == \
            sorted(x.to_sql() for x in queries)


class TestExecution:
    def test_merged_results_match_separate(self, emp_db):
        queries = ([q("count", None, {"dept": d})
                    for d in ("sales", "eng", "hr")]
                   + [q(f, "salary", {"city": "nyc"})
                      for f in ("min", "max", "avg")])
        merged = plan_execution(emp_db, queries, merge=True)
        separate = plan_execution(emp_db, queries, merge=False)
        merged_results = merged.run(emp_db)
        separate_results = separate.run(emp_db)
        assert set(merged_results) == set(separate_results)
        for query in queries:
            assert merged_results[query] == pytest.approx(
                separate_results[query])

    def test_missing_value_count_is_zero(self, emp_db):
        queries = [q("count", None, {"dept": "sales"}),
                   q("count", None, {"dept": "ghost_dept"})]
        results = plan_execution(emp_db, queries).run(emp_db)
        assert results[queries[1]] == 0.0

    def test_missing_value_avg_is_none(self, emp_db):
        queries = [q("avg", "salary", {"dept": "sales"}),
                   q("avg", "salary", {"dept": "ghost_dept"})]
        results = plan_execution(emp_db, queries).run(emp_db)
        assert results[queries[0]] is not None
        assert results[queries[1]] is None

    def test_singleton_empty_filter_handled(self, emp_db):
        queries = [q("avg", "salary", {"city": "ghost_city"})]
        results = plan_execution(emp_db, queries).run(emp_db)
        assert results[queries[0]] is None

    def test_sampled_run_bounded(self, emp_db):
        queries = [q("count", None, {"dept": d})
                   for d in ("sales", "eng", "hr")]
        plan = plan_execution(emp_db, queries)
        results = plan.run(emp_db, sample_fraction=0.5)
        for query in queries:
            assert 0.0 <= results[query] <= 6.0

    def test_repeated_predicate_column_values_are_exact(self, nyc_db):
        """A query filtering one column twice (speech noise can produce
        ``agency = 'DOT' AND agency = 'NYPD'``) must not be answered
        from the GROUP BY row of its first predicate's value: every
        member's value equals executing that query on its own."""
        def two_on_agency(func, column, first, second):
            return AggregateQuery(
                "nyc311", AggregateCall(AggregateFunction(func), column),
                (Predicate("agency", first), Predicate("agency", second)))

        def direct(query):
            try:
                value = nyc_db.execute(query).scalar()
            except NullAggregateError:
                value = None
            return _normalize(query, value)

        agencies = ("DOT", "NYPD", "HPD")
        queries = []
        for func, column in (("count", None),
                             ("avg", "resolution_hours"),
                             ("sum", "num_calls")):
            queries += [AggregateQuery.build("nyc311", func, column,
                                             {"agency": agency})
                        for agency in agencies]
            queries += [two_on_agency(func, column, "DOT", second)
                        for second in agencies]
        plan = plan_execution(nyc_db, queries, merge=True)
        assert any(g.is_merged for g in plan.groups)
        results = plan.run(nyc_db)
        for query in queries:
            expected = direct(query)
            if expected is None:
                assert results[query] is None, query.to_sql()
            else:
                assert results[query] == pytest.approx(expected), \
                    query.to_sql()
        for group in plan.groups:
            assert len(set(group.queries)) == len(group.queries)

    def test_larger_merged_batch(self, nyc_db, nyc_candidates):
        queries = [c.query for c in nyc_candidates]
        merged = plan_execution(nyc_db, queries, merge=True)
        separate = plan_execution(nyc_db, queries, merge=False)
        merged_results = merged.run(nyc_db)
        separate_results = separate.run(nyc_db)
        for query in queries:
            left, right = merged_results[query], separate_results[query]
            if left is None or right is None:
                assert left == right
            else:
                assert left == pytest.approx(right)
        assert len(merged.groups) < len(separate.groups)
