"""Differential tests: shared plan execution equals per-group runs.

:meth:`ExecutionPlan.run` shares leaf selections across a plan's groups
through the database's selection cache (:mod:`repro.execution.batch`)
and claims results *identical* to executing every group on its own — the
test-side oracle :func:`tests.execution.oracle.run_per_group`, on a
database that keeps no leaf selection — not
approximately equal: both paths run the same kernels on the same
filtered arrays, so every float must match bit for bit, NULL/zero-row
normalisation included, and TABLESAMPLE draws must pick the same rows
(both derive their generator from the statement's SQL rendering).  Hypothesis
generates candidate-style workloads and the tests compare the two paths
with plain ``==``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import QueryResultCache
from repro.datasets import make_nyc311_table
from repro.errors import ExecutionError, NullAggregateError
from repro.execution import batch as batch_executor
from repro.execution.merging import plan_execution
from repro.sqldb import database as database_module
from repro.sqldb.database import Database
from repro.sqldb.query import AggregateQuery
from tests.execution.oracle import run_per_group
from tests.sqldb import scan_oracle

_DB = Database(seed=0)
_DB.register_table(make_nyc311_table(num_rows=1500, seed=9))

_BOROUGHS = ["Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island",
             "Atlantis"]  # includes a value absent from the data
_AGENCIES = ["NYPD", "HPD", "DOT", "XYZ"]
_FUNCS = ["count", "sum", "avg", "min", "max"]
_MEASURES = ["resolution_hours", "num_calls"]


@st.composite
def query_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    queries = []
    for _ in range(n):
        func = draw(st.sampled_from(_FUNCS))
        column = (None if func == "count"
                  else draw(st.sampled_from(_MEASURES)))
        predicates = {}
        if draw(st.booleans()):
            predicates["borough"] = draw(st.sampled_from(_BOROUGHS))
        if draw(st.booleans()):
            predicates["agency"] = draw(st.sampled_from(_AGENCIES))
        queries.append(AggregateQuery.build("nyc311", func, column,
                                            predicates))
    return queries


def _assert_identical(batch, legacy):
    assert set(batch) == set(legacy)
    for query, expected in legacy.items():
        got = batch[query]
        if expected is None:
            assert got is None, query.to_sql()
        else:
            # Bit-for-bit, not approx: both paths run identical kernels
            # on identical filtered arrays.
            assert got == expected, query.to_sql()


@given(query_sets(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_batch_equals_per_group_exactly(queries, merge):
    plan = plan_execution(_DB, queries, merge=merge)
    _assert_identical(plan.run(_DB), run_per_group(plan, _DB))


@given(query_sets(),
       st.sampled_from([0.05, 0.25, 0.5, 0.9]))
@settings(max_examples=25, deadline=None)
def test_batch_equals_per_group_under_sampling(queries, fraction):
    """TABLESAMPLE: both paths derive the rng from the statement's SQL, so
    they must draw the same rows and report the same sampled results."""
    plan = plan_execution(_DB, queries, merge=True)
    _assert_identical(
        plan.run(_DB, sample_fraction=fraction),
        run_per_group(plan, _DB, sample_fraction=fraction))


@given(query_sets())
@settings(max_examples=15, deadline=None)
def test_batch_and_legacy_share_result_cache_entries(queries):
    """A shared run populates the result cache with entries a later
    per-group run hits (both key on the same group statement)."""
    cache = QueryResultCache()
    plan = plan_execution(_DB, queries, merge=True)
    first = plan.run(_DB, cache=cache)
    misses_after_batch = cache.stats.misses
    second = run_per_group(plan, _DB, cache=cache)
    _assert_identical(first, second)
    # Groups whose aggregate raised NullAggregateError are never cached
    # (on either path), so only they may miss again on the rerun.  Bound
    # them from above by the groups whose every member normalised to
    # None/0.0.
    possibly_null = sum(
        1 for group in plan.groups
        if all(first[q] in (None, 0.0) for q in group.queries))
    assert cache.stats.misses - misses_after_batch <= possibly_null, (
        "per-group rerun missed the cache on a group the batch run "
        "already executed and cached")
    assert cache.stats.hits >= len(plan.groups) - possibly_null


def test_null_aggregate_normalisation_on_batch_path():
    """AVG/MIN/MAX over zero rows map to None, COUNT/SUM to 0.0 — the
    same NULL normalisation the per-group path applies."""
    queries = [
        AggregateQuery.build("nyc311", "avg", "resolution_hours",
                             {"borough": "Atlantis"}),
        AggregateQuery.build("nyc311", "min", "num_calls",
                             {"borough": "Atlantis"}),
        AggregateQuery.build("nyc311", "count", None,
                             {"borough": "Atlantis"}),
        AggregateQuery.build("nyc311", "sum", "num_calls",
                             {"borough": "Atlantis"}),
    ]
    results = plan_execution(_DB, queries, merge=False).run(_DB)
    assert results[queries[0]] is None
    assert results[queries[1]] is None
    assert results[queries[2]] == 0.0
    assert results[queries[3]] == 0.0


def _fresh_database() -> Database:
    db = Database(seed=0)
    db.register_table(make_nyc311_table(num_rows=1500, seed=9))
    return db


def _selection_counts(db: Database) -> tuple[float, float]:
    stats = db.selection_cache_stats
    return stats["hits"], stats["misses"]


_SHARED_AGENCY = [
    AggregateQuery.build("nyc311", "avg", "resolution_hours",
                         {"agency": "NYPD", "borough": borough})
    for borough in ("Brooklyn", "Bronx", "Queens", "Manhattan")
]


def test_batch_reuses_masks_across_groups():
    """Candidates sharing a fixed predicate build its selection once.

    One group per query (``merge=False``): on the index path the four
    groups probe the shared agency predicate once and reuse it three
    times; sampled, the groups take the mask path and scan it once."""
    db = _fresh_database()
    plan = plan_execution(db, _SHARED_AGENCY, merge=False)
    plan.run(db)
    # Four borough leaves and one agency leaf built; the agency leaf
    # reused by the three later groups.
    assert _selection_counts(db) == (3, 5)
    assert db.selection_cache_stats["entries"] == 5

    plan.run(db, sample_fraction=0.5)
    # Five scan masks built, the agency mask reused three times.
    assert _selection_counts(db) == (6, 10)
    assert db.selection_cache_stats["entries"] == 10


def test_lone_statement_reuses_a_plan_selection():
    """A plain ``Database.execute`` after a plan run takes the plan's
    leaf selections from the same cache."""
    db = _fresh_database()
    plan_execution(db, _SHARED_AGENCY, merge=False).run(db)
    hits, misses = _selection_counts(db)
    db.execute("SELECT COUNT(*) FROM nyc311 "
               "WHERE agency = 'NYPD' AND borough = 'Queens'")
    assert _selection_counts(db) == (hits + 2, misses)


def test_misses_count_the_leaves_built():
    """A leaf with no index path is looked up under the index key on
    every execution and never stored there: only its scan mask, built
    once, counts as a miss."""
    db = _fresh_database()
    sql = "SELECT COUNT(*) FROM nyc311 WHERE borough LIKE 'B%'"
    counts = []
    for _ in range(3):
        db.execute(sql)
        counts.append(_selection_counts(db))
    assert counts == [(0, 1), (1, 1), (2, 1)]
    assert db.selection_cache_stats["entries"] == 1


def test_insert_drops_a_plan_selection():
    """An append drops the plan's leaf selections: the next lone
    statement builds its leaves again, and counts the new row."""
    db = _fresh_database()
    plan = plan_execution(db, _SHARED_AGENCY[:1], merge=False)
    plan.run(db)
    sql = ("SELECT COUNT(*) FROM nyc311 "
           "WHERE agency = 'NYPD' AND borough = 'Brooklyn'")
    before = db.execute(sql).scalar()
    table = db.table("nyc311")
    names = list(table.schema.column_names)
    row = [table.column(name)[0] for name in names]
    row[names.index("agency")] = "NYPD"
    row[names.index("borough")] = "Brooklyn"
    db.insert_rows("nyc311", [row])
    assert db.selection_cache_stats["entries"] == 0
    hits, misses = _selection_counts(db)
    assert db.execute(sql).scalar() == before + 1
    assert _selection_counts(db) == (hits, misses + 2)


def test_oracle_databases_hold_no_leaf_selection(monkeypatch):
    """Both oracles run on memo-free twins of the database they check:
    after a differential run, production's database holds the plan's
    leaves and no twin holds or ever read one."""
    twins = []
    make_twin = scan_oracle.memo_free

    def recording(database):
        twin = make_twin(database)
        twins.append(twin)
        return twin

    monkeypatch.setattr(scan_oracle, "memo_free", recording)
    db = _fresh_database()
    plan = plan_execution(db, _SHARED_AGENCY, merge=False)
    _assert_identical(plan.run(db), run_per_group(plan, db))
    _assert_identical(plan.run(db), scan_oracle.full_scan(db, plan.run))
    assert db.selection_cache_stats["entries"] == 5
    assert len(twins) == 2
    for twin in twins:
        assert twin is not db
        stats = twin.selection_cache_stats
        assert stats["entries"] == 0 and stats["hits"] == 0


class TestCrossRequestMaskCache:
    """Leaf masks persist across requests but never outlive the data."""

    def _fresh(self, **kwargs):
        db = Database(seed=0, **kwargs)
        db.register_table(make_nyc311_table(num_rows=200, seed=3))
        query = AggregateQuery.build("nyc311", "count", None,
                                     {"borough": "Brooklyn"})
        return db, query

    def test_data_mutation_drops_cached_masks(self):
        db, query = self._fresh()
        plan = plan_execution(db, [query], merge=False)
        first = plan.run(db)[query]
        table = db.table("nyc311")
        names = list(table.schema.column_names)
        row = [table.column(name)[0] for name in names]
        row[names.index("borough")] = "Brooklyn"
        db.insert_rows("nyc311", [row])
        # A stale mask would keep the old row count.
        assert plan.run(db)[query] == first + 1

    def test_zero_budget_disables_cross_request_reuse(self):
        db, query = self._fresh(mask_cache_bytes=0)
        plan = plan_execution(db, [query], merge=False)
        expected = run_per_group(plan, db)[query]
        assert plan.run(db)[query] == expected
        assert plan.run(db)[query] == expected

    def test_tiny_budget_still_correct(self):
        # Smaller than one mask: every store trips clear-all eviction.
        db, query = self._fresh(mask_cache_bytes=8)
        plan = plan_execution(db, [query], merge=False)
        assert plan.run(db)[query] == run_per_group(plan, db)[query]


class TestRealFailuresPropagate:
    """Genuine execution failures must not be folded into "zero rows".

    The plan runner treats :class:`NullAggregateError` (an aggregate over
    no qualifying rows) as SQL NULL; any *other* :class:`ExecutionError`
    is a bug or an environmental failure and must reach the caller, both
    from the plan loop itself (``run_plan``) and through
    ``ExecutionPlan.run`` and its degradation rung.
    """

    def _plan(self):
        query = AggregateQuery.build("nyc311", "avg", "resolution_hours",
                                     {"borough": "Brooklyn"})
        return plan_execution(_DB, [query], merge=False)

    def test_per_group_path_propagates(self, monkeypatch):
        plan = self._plan()

        def boom(sql, rng=None):
            raise ExecutionError("injected engine failure")

        monkeypatch.setattr(_DB, "execute", boom)
        with pytest.raises(ExecutionError, match="injected"):
            batch_executor.run_plan(plan, _DB)

    def test_batch_path_propagates(self, monkeypatch):
        plan = self._plan()

        def boom(bound, table, rng, selections, epoch):
            raise ExecutionError("injected engine failure")

        monkeypatch.setattr(database_module, "execute_bound", boom)
        with pytest.raises(ExecutionError, match="injected"):
            plan.run(_DB)

    def test_null_aggregate_is_still_normalised(self):
        query = AggregateQuery.build("nyc311", "max", "num_calls",
                                     {"borough": "Atlantis"})
        plan = plan_execution(_DB, [query], merge=False)
        assert plan.run(_DB) == {query: None}
        assert batch_executor.run_plan(plan, _DB) == {query: None}
        assert run_per_group(plan, _DB) == {query: None}

    def test_null_aggregate_error_is_an_execution_error(self):
        # Backward compatibility: older callers catching ExecutionError
        # still treat zero-row aggregates as a handled condition.
        assert issubclass(NullAggregateError, ExecutionError)
