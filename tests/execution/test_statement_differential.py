"""Differential tests: group statements equal the parsed group SQL.

Plans hand the engine parse trees built by
:func:`repro.execution.merging.group_statement`; the reference is the
SQL text the string builders in :mod:`tests.execution.oracle` render for
the same group, parsed.  Equal statements cost, bind and run the same,
and equal renderings seed the same TABLESAMPLE draws, so each group must
match its reference both as a tree (``==``) and as text (``to_sql()``),
exact and under every sample fraction approximate processing uses: the
fixed App-D fractions and dynamic ones computed by
``ApproximateProcessing`` from a pinned engine throughput.

Workloads: seeded candidate sets over nyc311, DOB and ads (phonetic
candidates of random target queries, as the pipeline produces them) and
the Figure 7 workload (DOB, 10 queries x 50 single-variation
candidates, seed 0).
"""

from __future__ import annotations

import pytest

from repro.datasets import make_ads_table, make_dob_table, make_nyc311_table
from repro.datasets.workload import WorkloadGenerator
from repro.execution.merging import plan_execution, sampled
from repro.execution.progressive import ApproximateProcessing
from repro.nlq.candidates import CandidateGenerator
from repro.sqldb.database import Database
from repro.sqldb.parser import parse
from repro.sqldb.planner import plan_select
from tests.execution.oracle import group_sql

#: The fixed App-D sample fractions, plus awkward values that exercise
#: the six-decimal rounding of the percentage.
FIXED_FRACTIONS = (0.01, 0.05, 0.1, 0.25, 0.5, 1 / 3, 0.123456789,
                   0.0049999999, 0.9999999)
#: Engine throughputs (rows/s) the dynamic fraction is computed from.
THROUGHPUTS = (1_000.0, 7_777.0, 33_333.3)


def _database(make_table, rows: int, seed: int) -> Database:
    database = Database(seed=0)
    database.register_table(make_table(num_rows=rows, seed=seed))
    return database


def _candidate_sets(database: Database, table: str, targets: int,
                    k: int, seed: int, **generator_args):
    workload = WorkloadGenerator(database.table(table), seed=seed)
    generator = CandidateGenerator(database, table, k=k, **generator_args)
    for _ in range(targets):
        target = workload.random_query(max_predicates=3)
        yield [c.query for c in generator.candidates(target, k)]


WORKLOADS = {
    "nyc311": lambda: (_database(make_nyc311_table, 3000, 7), "nyc311",
                       dict(targets=12, k=30, seed=1)),
    "dob": lambda: (_database(make_dob_table, 3000, 11), "dob",
                    dict(targets=12, k=30, seed=2)),
    "ads": lambda: (_database(make_ads_table, 3000, 2), "ads",
                    dict(targets=12, k=30, seed=3)),
    "fig7": lambda: (_database(make_dob_table, 50_000, 11), "dob",
                     dict(targets=10, k=50, seed=0, max_simultaneous=1)),
}


def _assert_same(statement, sql: str) -> None:
    reference = parse(sql)
    assert statement == reference, sql
    assert statement.to_sql() == reference.to_sql(), sql


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    database, table, args = WORKLOADS[request.param]()
    return database, list(_candidate_sets(database, table, **args))


def _dynamic_fractions(database, queries, monkeypatch) -> set[float]:
    fractions = set()
    for throughput in THROUGHPUTS:
        monkeypatch.setattr(ApproximateProcessing, "_calibrate",
                            lambda self, db, table, t=throughput: t)
        fractions.add(ApproximateProcessing(fraction=None)
                      ._dynamic_fraction(database, queries))
    return fractions


def test_group_statements_equal_parsed_group_sql(workload, monkeypatch):
    database, candidate_sets = workload
    merged_groups = 0
    for queries in candidate_sets:
        fractions = set(FIXED_FRACTIONS)
        fractions |= _dynamic_fractions(database, queries, monkeypatch)
        for merge in (True, False):
            plan = plan_execution(database, queries, merge=merge)
            merged_groups += sum(g.is_merged for g in plan.groups)
            for group in plan.groups:
                _assert_same(group.statement, group_sql(group))
                for fraction in fractions:
                    if fraction < 1.0:
                        _assert_same(sampled(group.statement, fraction),
                                     group_sql(group, fraction))
    assert merged_groups > 0, "workload produced no merged group"


def test_plans_cost_the_same_through_text(workload):
    """The optimizer estimate of every group equals that of its SQL
    text, to the bit (the merge decision compares these numbers)."""
    database, candidate_sets = workload
    for queries in candidate_sets:
        plan = plan_execution(database, queries)
        for group in plan.groups:
            reference = parse(group_sql(group))
            table = database.table(reference.table)
            expected = plan_select(reference, table,
                                   database.statistics(reference.table))
            assert group.estimated_cost == expected.cost.total
