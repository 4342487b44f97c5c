"""Property-style round-trip tests: SQL rendering is canonical.

Sampled execution seeds its draw from the rendering and the test oracles
execute rendered SQL, so the rendering produced by
``SelectStatement.to_sql`` / ``AggregateQuery.to_sql`` must be a fixed
point of the parser: ``parse(sql).to_sql() == sql``.  These tests sweep
every candidate query the generator produces over the seed datasets plus
the extended-SQL surface (GROUP BY / HAVING / ORDER BY / LIMIT /
TABLESAMPLE / EXPLAIN).
"""

import pytest

from repro.datasets.generators import DATASET_GENERATORS
from repro.datasets.workload import WorkloadGenerator
from repro.nlq.candidates import CandidateGenerator
from repro.sqldb.database import Database
from repro.sqldb.parser import parse


@pytest.mark.parametrize("dataset", sorted(DATASET_GENERATORS))
def test_candidate_queries_round_trip(dataset):
    """For every query the candidate generator produces over a seed
    dataset: parse(q.to_sql()).to_sql() == q.to_sql()."""
    db = Database(seed=0)
    db.register_table(DATASET_GENERATORS[dataset](num_rows=1200, seed=4))
    table = db.table(dataset)
    workload = WorkloadGenerator(table, seed=7)
    generator = CandidateGenerator(db, dataset)
    checked = 0
    for _ in range(6):
        seed_query = workload.random_query()
        for candidate in generator.candidates(seed_query, 20):
            sql = candidate.query.to_sql()
            statement = parse(sql)
            assert statement.to_sql() == sql, (
                f"rendering of {sql!r} is not a parser fixed point")
            checked += 1
    assert checked >= 6, f"generator produced too few candidates: {checked}"


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) FROM nyc311",
    "SELECT AVG(resolution_hours) FROM nyc311 WHERE borough = 'Brooklyn'",
    ("SELECT MAX(num_calls) FROM nyc311 "
     "WHERE agency = 'NYPD' AND borough = 'Queens'"),
    "SELECT borough, COUNT(*) FROM nyc311 GROUP BY borough",
    ("SELECT borough, AVG(resolution_hours) FROM nyc311 "
     "GROUP BY borough ORDER BY avg(resolution_hours) DESC LIMIT 3"),
    "SELECT borough, COUNT(*) FROM nyc311 GROUP BY borough HAVING count(*) > 10",
    "SELECT COUNT(*) FROM nyc311 TABLESAMPLE BERNOULLI (5)",
    "EXPLAIN SELECT COUNT(*) FROM nyc311",
    "SELECT SUM(num_calls) FROM nyc311 WHERE complaint = 'O''Hare noise'",
])
def test_rendered_statement_is_parser_fixed_point(sql):
    """to_sql() output parses back to an equal statement, and re-rendering
    that statement is idempotent."""
    statement = parse(sql)
    rendered = statement.to_sql()
    reparsed = parse(rendered)
    assert reparsed == statement
    assert reparsed.to_sql() == rendered


def test_round_trip_preserves_sampling_seed():
    statement = parse(
        "SELECT COUNT(*) FROM t TABLESAMPLE BERNOULLI (2.5)")
    assert statement.sample_fraction == pytest.approx(0.025)
    again = parse(statement.to_sql())
    assert again.sample_fraction == pytest.approx(0.025)
