"""Differential tests: index access paths vs the scan oracle.

The secondary-index layer claims results *identical* to the full-scan
engine — not approximately equal: a resolved selection picks exactly the
rows of ``where.evaluate(table)``, so every aggregate downstream must
match bit for bit, NULL normalisation, empty postings, HAVING and
ORDER BY/LIMIT included.  Hypothesis generates statements over a mixed
TEXT/FLOAT(+NaN)/INT table and candidate-style batch workloads, and the
tests compare the two modes with plain ``==`` — including when the
predicate misses every row, when rows are appended mid-stream, when the
cross-request selection cache is in play, and when fault injection or an
exhausted deadline degrades the batch path.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_nyc311_table
from repro.errors import ReproError
from repro.execution.merging import plan_execution
from repro.resilience import deadline_scope
from repro.sqldb.database import Database
from repro.sqldb.index import set_indexes_enabled
from repro.sqldb.query import AggregateQuery
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType
from repro.testing.faults import inject_faults
from tests.execution.oracle import run_per_group

_CITIES = ["nyc", "sf", "la", "boston", "austin"]
_DEPTS = ["sales", "eng", "hr"]
_BOROUGHS = ["Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island",
             "Atlantis"]  # includes a value absent from the data
_AGENCIES = ["NYPD", "HPD", "DOT", "XYZ"]
_FUNCS = ["count", "sum", "avg", "min", "max"]
_MEASURES = ["resolution_hours", "num_calls"]


def make_metrics_table(num_rows: int = 1200, seed: int = 7) -> Table:
    """Mixed-type table with NaNs in the FLOAT column (NULL semantics)."""
    rng = np.random.default_rng(seed)
    cities = np.array(_CITIES, dtype=object)
    depts = np.array(_DEPTS, dtype=object)
    values = rng.normal(50.0, 20.0, num_rows)
    values[rng.random(num_rows) < 0.08] = np.nan
    schema = TableSchema("metrics", (
        ColumnSchema("city", DataType.TEXT),
        ColumnSchema("dept", DataType.TEXT),
        ColumnSchema("v", DataType.FLOAT),
        ColumnSchema("n", DataType.INT),
    ))
    return Table(schema, {
        "city": cities[rng.integers(0, len(cities), num_rows)],
        "dept": depts[rng.integers(0, len(depts), num_rows)],
        "v": values,
        "n": rng.poisson(3.0, num_rows) + 1,
    })


_DB = Database(seed=0)
_DB.register_table(make_metrics_table())
_DB.register_table(make_nyc311_table(num_rows=1500, seed=9))


def _canon_rows(rows):
    """Rows with floats replaced by their IEEE-754 bit patterns.

    Plain ``==`` rejects NaN == NaN; the bit-identity contract is about
    the stored bits, so compare exactly those.
    """
    return tuple(
        tuple(struct.pack("<d", value) if isinstance(value, float)
              else value for value in row)
        for row in rows)


def _outcome(fn):
    """Result or exception identity — both modes must agree on either."""
    try:
        return ("ok", fn())
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def _both_modes(fn):
    indexed = _outcome(fn)
    try:
        set_indexes_enabled(False)
        scanned = _outcome(fn)
    finally:
        set_indexes_enabled(True)
    return indexed, scanned


# ---------------------------------------------------------------------------
# SQL statement generation
# ---------------------------------------------------------------------------


@st.composite
def predicates(draw):
    def leaf():
        kind = draw(st.sampled_from(
            ["city_eq", "dept_in", "v_range", "v_between", "n_range"]))
        if kind == "city_eq":
            # 'atlantis' is absent: the empty-postings path.
            value = draw(st.sampled_from(_CITIES + ["atlantis"]))
            return f"city = '{value}'"
        if kind == "dept_in":
            values = draw(st.lists(
                st.sampled_from(_DEPTS + ["zzz"]),
                min_size=1, max_size=4))
            body = ", ".join(f"'{v}'" for v in values)
            return f"dept IN ({body})"
        if kind == "v_range":
            op = draw(st.sampled_from(["<", "<=", ">", ">="]))
            value = draw(st.integers(min_value=-20, max_value=120))
            return f"v {op} {value}.0"
        if kind == "v_between":
            low = draw(st.integers(min_value=-20, max_value=100))
            high = low + draw(st.integers(min_value=0, max_value=60))
            return f"v BETWEEN {low}.0 AND {high}.0"
        low = draw(st.integers(min_value=0, max_value=8))
        return f"n BETWEEN {low} AND {low + draw(st.integers(0, 4))}"

    leaves = [leaf() for _ in range(draw(st.integers(1, 3)))]
    if len(leaves) == 1:
        return leaves[0]
    connective = draw(st.sampled_from([" AND ", " OR "]))
    return connective.join(leaves)


@st.composite
def statements(draw):
    function = draw(st.sampled_from(
        ["COUNT(*)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(v)", "SUM(n)"]))
    where = draw(st.one_of(st.none(), predicates()))
    suffix = f" WHERE {where}" if where else ""
    if not draw(st.booleans()):
        return f"SELECT {function} FROM metrics{suffix}"
    key = draw(st.sampled_from(["city", "dept"]))
    sql = f"SELECT {key}, {function} FROM metrics{suffix} GROUP BY {key}"
    if draw(st.booleans()):
        sql += f" HAVING COUNT(*) > {draw(st.integers(0, 5))}"
    if draw(st.booleans()):
        target = draw(st.sampled_from([key, function]))
        direction = draw(st.sampled_from(["", " DESC"]))
        sql += f" ORDER BY {target}{direction}"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(1, 4))}"
    return sql


@st.composite
def query_sets(draw):
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        func = draw(st.sampled_from(_FUNCS))
        column = (None if func == "count"
                  else draw(st.sampled_from(_MEASURES)))
        selections = {}
        if draw(st.booleans()):
            selections["borough"] = draw(st.sampled_from(_BOROUGHS))
        if draw(st.booleans()):
            selections["agency"] = draw(st.sampled_from(_AGENCIES))
        queries.append(AggregateQuery.build("nyc311", func, column,
                                            selections))
    return queries


# ---------------------------------------------------------------------------
# Statement-level equivalence
# ---------------------------------------------------------------------------


@given(statements())
@settings(max_examples=60, deadline=None)
def test_execute_indexed_equals_scan(sql):
    indexed, scanned = _both_modes(
        lambda: _canon_rows(_DB.execute(sql).rows))
    assert indexed == scanned, sql


@given(statements(), st.sampled_from([10, 50]))
@settings(max_examples=20, deadline=None)
def test_sampling_bypasses_indexes_identically(sql, percent):
    """TABLESAMPLE keeps the mask path on both modes: same rng seed
    derivation, same rows, same answers."""
    sampled = sql.replace(
        "FROM metrics", f"FROM metrics TABLESAMPLE BERNOULLI ({percent})", 1)
    indexed, scanned = _both_modes(
        lambda: _canon_rows(_DB.execute(sampled).rows))
    assert indexed == scanned, sampled


# ---------------------------------------------------------------------------
# Batch-execution equivalence (candidate workloads)
# ---------------------------------------------------------------------------


@given(query_sets(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_batch_indexed_equals_scan(queries, merge):
    plan = plan_execution(_DB, queries, merge=merge)
    indexed, scanned = _both_modes(lambda: plan.run(_DB))
    assert indexed == scanned


@given(query_sets())
@settings(max_examples=15, deadline=None)
def test_batch_indexed_equals_legacy_per_group(queries):
    """Cross both axes at once: indexed shared run vs the per-group
    full-scan oracle."""
    plan = plan_execution(_DB, queries, merge=True)
    indexed_batch = _outcome(lambda: plan.run(_DB))
    try:
        set_indexes_enabled(False)
        legacy = _outcome(lambda: run_per_group(plan, _DB))
    finally:
        set_indexes_enabled(True)
    assert indexed_batch == legacy


@given(query_sets(), st.sampled_from([0, 64, 1 << 20]))
@settings(max_examples=15, deadline=None)
def test_selection_cache_interaction(queries, budget):
    """Replaying a plan must reuse cached selections without changing a
    single value — across tight, tiny, and roomy cache budgets."""
    db = Database(seed=0, mask_cache_bytes=budget)
    db.register_table(make_nyc311_table(num_rows=600, seed=9))
    plan = plan_execution(db, queries, merge=True)
    first = _outcome(lambda: plan.run(db))
    second = _outcome(lambda: plan.run(db))
    try:
        set_indexes_enabled(False)
        scanned = _outcome(lambda: plan.run(db))
    finally:
        set_indexes_enabled(True)
    assert first == second == scanned


# ---------------------------------------------------------------------------
# Invalidation, faults, deadlines
# ---------------------------------------------------------------------------


class TestAppendInvalidation:
    SQL = ("SELECT city, COUNT(*) FROM metrics "
           "WHERE city = 'nyc' OR v >= 60.0 GROUP BY city")

    def test_mid_stream_appends_never_serve_stale_postings(self):
        db = Database(seed=0)
        db.register_table(make_metrics_table(num_rows=300))
        for batch_no in range(3):
            indexed, scanned = _both_modes(
                lambda: db.execute(self.SQL).rows)
            assert indexed == scanned, f"after append #{batch_no}"
            db.insert_rows("metrics", [
                ("nyc", "eng", 75.0 + batch_no, 2),
                ("atlantis", "hr", float("nan"), 1),
            ])


class TestFaultsAndDeadlines:
    QUERIES = [
        AggregateQuery.build("nyc311", "count", None,
                             {"borough": "Bronx"}),
        AggregateQuery.build("nyc311", "avg", "resolution_hours",
                             {"borough": "Brooklyn"}),
        AggregateQuery.build("nyc311", "sum", "num_calls",
                             {"agency": "NYPD"}),
    ]

    def test_batch_fault_fallback_identical_under_indexes(self):
        """The batch->per-group degradation rung stays lossless with
        indexes on: same fault plan, same answers, both modes."""
        plan = plan_execution(_DB, self.QUERIES, merge=True)
        baseline = plan.run(_DB)

        def degraded_run():
            with inject_faults("executor.batch:error"):
                return plan.run(_DB)

        indexed, scanned = _both_modes(degraded_run)
        assert indexed == scanned == ("ok", baseline)

    def test_exhausted_deadline_identical_under_indexes(self):
        """At the plan level an exhausted deadline surfaces as
        DeadlineExceeded before any data access; the indexes must not
        change that (degradation accounting stays with ``muve.ask``)."""
        plan = plan_execution(_DB, self.QUERIES, merge=True)

        def degraded_run():
            with inject_faults("executor.batch:exhaust_deadline"):
                with deadline_scope(60_000):
                    return plan.run(_DB)

        indexed, scanned = _both_modes(degraded_run)
        assert indexed == scanned
        assert indexed[0] == "DeadlineExceeded"
