"""Tests for the domain caches: query results and planner outputs."""

import pytest

from repro.caching import PlanCache, QueryResultCache
from repro.core.model import ScreenGeometry
from repro.core.problem import MultiplotSelectionProblem
from repro.execution.merging import sampled
from repro.nlq.candidates import CandidateQuery
from repro.sqldb.parser import parse
from repro.sqldb.query import AggregateQuery


def make_problem(probabilities=(0.6, 0.4), geometry=None):
    boroughs = ["Brooklyn", "Queens", "Bronx", "Manhattan"]
    candidates = tuple(
        CandidateQuery(
            AggregateQuery.build("nyc311", "avg", "resolution_hours",
                                 {"borough": boroughs[i]}),
            probability)
        for i, probability in enumerate(probabilities))
    return MultiplotSelectionProblem(
        candidates, geometry=geometry or ScreenGeometry())


class TestQueryResultCache:
    """The cache is keyed on the statement (the parse tree), so two SQL
    spellings share an entry exactly when they parse to equal statements."""

    def test_hit_skips_execution(self):
        cache = QueryResultCache(capacity=16)
        executed = []

        def execute(statement):
            executed.append(statement)
            return ("result-of", statement)

        statement = parse("SELECT COUNT(*) FROM nyc311")
        first = cache.get_or_execute(statement, execute)
        second = cache.get_or_execute(statement, execute)
        assert first == second
        assert len(executed) == 1, "second lookup must not re-execute"
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1

    def test_equivalent_spellings_share_one_entry(self):
        cache = QueryResultCache(capacity=16)
        executed = []

        def execute(statement):
            executed.append(statement)
            return "result"

        cache.get_or_execute(parse("SELECT COUNT(*) FROM t"), execute)
        cache.get_or_execute(parse("select   count(*)\n from t"), execute)
        cache.get_or_execute(parse("SELECT COUNT(*) FROM t;"), execute)
        cache.get_or_execute(
            AggregateQuery.build("t", "count", None).to_statement(),
            execute)
        assert len(executed) == 1
        assert len(cache) == 1
        assert cache.stats.hits == 3

    def test_literal_case_not_conflated(self):
        cache = QueryResultCache(capacity=16)
        executed = []

        def execute(statement):
            executed.append(statement)
            return statement

        cache.get_or_execute(
            parse("SELECT COUNT(*) FROM t WHERE b = 'Brooklyn'"), execute)
        cache.get_or_execute(
            parse("SELECT COUNT(*) FROM t WHERE b = 'brooklyn'"), execute)
        assert len(executed) == 2

    def test_execute_receives_original_sql(self):
        cache = QueryResultCache(capacity=16)
        seen = []
        original = parse("SELECT  COUNT(*)  FROM T")
        cache.get_or_execute(original, lambda statement: seen.append(
            statement))
        assert len(seen) == 1 and seen[0] is original

    def test_sampled_statement_is_its_own_entry(self):
        cache = QueryResultCache(capacity=16)
        executed = []
        exact = parse("SELECT COUNT(*) FROM t")
        for statement in (exact, sampled(exact, 0.25), exact):
            cache.get_or_execute(statement,
                                 lambda s: executed.append(s) or "r")
        assert executed == [exact, sampled(exact, 0.25)]

    def test_clear_forces_reexecution(self):
        cache = QueryResultCache(capacity=16)
        executed = []
        statement = parse("SELECT COUNT(*) FROM t")
        cache.get_or_execute(statement, lambda s: executed.append(s))
        cache.clear()
        cache.get_or_execute(statement, lambda s: executed.append(s))
        assert len(executed) == 2

    def test_capacity_zero_never_stores(self):
        cache = QueryResultCache(capacity=0)
        executed = []
        statement = parse("SELECT COUNT(*) FROM t")
        for _ in range(3):
            cache.get_or_execute(statement,
                                 lambda s: executed.append(s) or "r")
        assert len(executed) == 3
        assert len(cache) == 0


class TestPlanCacheKey:
    def test_same_problem_same_key(self):
        assert PlanCache.problem_key(make_problem()) == \
            PlanCache.problem_key(make_problem())

    def test_probabilities_distinguish(self):
        assert PlanCache.problem_key(make_problem((0.6, 0.4))) != \
            PlanCache.problem_key(make_problem((0.5, 0.5)))

    def test_geometry_distinguishes(self):
        narrow = make_problem(geometry=ScreenGeometry(width_pixels=800))
        wide = make_problem(geometry=ScreenGeometry(width_pixels=2400))
        assert PlanCache.problem_key(narrow) != \
            PlanCache.problem_key(wide)

    def test_key_is_hashable(self):
        hash(PlanCache.problem_key(make_problem()))

    def test_get_and_put_count_lookups(self):
        """``get`` counts a hit or a miss; ``put`` is not a lookup."""
        cache = PlanCache(capacity=8)
        key = PlanCache.problem_key(make_problem())
        assert cache.get(key) is None
        cache.put(key, "plan")
        assert [cache.get(key), cache.get(key)] == ["plan", "plan"]
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1


def fail_ilp_once(planner):
    """Make the planner's ILP solver raise :class:`SolverError` on its
    next call only (no deadline, no fault plan)."""
    from repro.errors import SolverError
    solve = planner._ilp.solve
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise SolverError("injected solver failure")
        return solve(*args, **kwargs)

    planner._ilp.solve = flaky


class TestNoDegradedEntries:
    """A degradation rung that fires once must not be served again from
    a cache once the cause is gone: the next identical ask re-plans."""

    def test_planner_replans_after_degraded_plan(self):
        from repro.core.planner import VisualizationPlanner
        planner = VisualizationPlanner(strategy="best",
                                       plan_cache=PlanCache())
        fail_ilp_once(planner)
        problem = make_problem()
        degraded = planner.plan(problem)
        assert degraded.solver_name == "greedy"
        assert degraded.ilp_cost is None
        assert len(planner.plan_cache) == 0
        again = planner.plan(problem)
        assert again.ilp_cost is not None
        assert again.open_bound is not None
        assert planner.plan_cache.stats.misses == 2
        assert planner.plan(problem) is again  # the clean plan is cached

    def test_server_replans_after_degraded_answer(self):
        from repro import Database, Muve, ScreenGeometry
        from repro.datasets import make_nyc311_table
        from repro.demo import MuveDemoServer
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=1500, seed=2))
        muve = Muve(db, "nyc311", seed=1,
                    geometry=ScreenGeometry(width_pixels=1125, num_rows=1))
        demo = MuveDemoServer(muve, port=0)
        demo.start()
        try:
            fail_ilp_once(muve.planner)
            payload = {"question": "count of requests for borough Queens"}
            first = demo.handle_ask(payload)
            assert first["degraded"] is True
            assert [event["action"] for event in first["degradations"]] \
                == ["ilp_to_greedy"]
            second = demo.handle_ask(payload)
            assert second is not first
            assert second["degraded"] is False
            assert second["degradations"] == []
            assert demo.handle_ask(payload) is second
        finally:
            demo.shutdown()


class TestMuveCacheWiring:
    """Counter-based proof that a repeated question skips executor and
    planner work on a real pipeline."""

    @pytest.fixture(scope="class")
    def muve(self):
        from repro import Database, Muve
        from repro.datasets import make_nyc311_table
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=1500, seed=2))
        return Muve(db, "nyc311", seed=1)

    def test_repeat_question_hits_both_caches(self, muve):
        muve.invalidate_caches()
        question = "average resolution hours for borough Brooklyn"
        first = muve.ask(question)
        cold = muve.cache_stats()
        assert cold["query_results"]["hits"] == 0
        assert cold["query_results"]["misses"] > 0
        second = muve.ask(question)
        warm = muve.cache_stats()
        assert warm["query_results"]["hits"] > 0
        assert warm["plans"]["hits"] > 0
        # No additional executions or plans happened on the warm pass.
        assert warm["query_results"]["misses"] == \
            cold["query_results"]["misses"]
        assert warm["plans"]["misses"] == cold["plans"]["misses"]
        assert second.to_text() == first.to_text()

    def test_disabled_caching_has_no_caches(self):
        from repro import Database, Muve
        from repro.datasets import make_nyc311_table
        db = Database(seed=0)
        db.register_table(make_nyc311_table(num_rows=800, seed=2))
        muve = Muve(db, "nyc311", enable_caching=False)
        muve.ask("count of requests for borough Queens")
        stats = muve.cache_stats()
        # Pipeline-level caches are off; only the database-level
        # statement/cost/selection caches and the process-wide phonetic
        # caches (which live outside the pipeline) still report counters.
        assert "query_results" not in stats
        assert "plans" not in stats
        assert set(stats) == {"statements", "plan_costs", "selections",
                              "phonetic_probes", "phonetic_indexes"}
        assert muve.result_cache is None
