"""Differential tests: shared execution is bit-identical to per-group.

The shared path (one request context memoising leaf masks, index
selections and numeric GROUP BY factorisations across groups) must
reproduce the per-group oracle in :mod:`tests.execution.oracle` —
every group alone through ``Database.execute`` — *exactly*: plain
``==`` on floats, no ``approx``.  Hypothesis generates the candidate
workloads, and ``MORSEL_ROWS`` is shrunk so the module-sized tables
span many chunks of the fixed-chunk SUM/AVG kernel and its chunk
boundaries are actually exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_nyc311_table
from repro.execution.batch import request_context
from repro.execution.merging import plan_execution
from repro.sqldb import executor as _kernels
from repro.sqldb.database import Database
from repro.sqldb.index import indexes_enabled, set_indexes_enabled
from repro.sqldb.query import AggregateQuery
from repro.sqldb.types import DataType
from tests.execution.oracle import run_per_group

#: Shrunk chunk size (real default 65536): the 1500-row table below
#: spans six chunks, so the ordered SUM/AVG reduction engages,
#: including ragged final chunks.
_SMALL_CHUNK = 256

_DB = Database(seed=0)
_DB.register_table(make_nyc311_table(num_rows=1500, seed=9))

_BOROUGHS = ["Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island",
             "Atlantis"]  # includes a value absent from the data
_AGENCIES = ["NYPD", "HPD", "DOT", "XYZ"]
_FUNCS = ["count", "sum", "avg", "min", "max"]
_MEASURES = ["resolution_hours", "num_calls"]


@pytest.fixture(scope="module", autouse=True)
def _small_chunks():
    original = _kernels.MORSEL_ROWS
    _kernels.MORSEL_ROWS = _SMALL_CHUNK
    yield
    _kernels.MORSEL_ROWS = original


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


def _run(plan, database, sample_fraction=None):
    """The shared path: one fresh request context for the plan."""
    return plan.run(database, sample_fraction=sample_fraction,
                    request_ctx=request_context(database))


def _assert_identical(shared, oracle):
    assert set(shared) == set(oracle)
    for query, expected in oracle.items():
        got = shared[query]
        if expected is None:
            assert got is None, query.to_sql()
        else:
            # Bit-for-bit: both paths run the same kernels, with the
            # same fixed chunk order for SUM/AVG.
            assert got == expected, query.to_sql()


@given(query_sets(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_shared_equals_per_group_exactly(queries, merge):
    plan = plan_execution(_DB, queries, merge=merge)
    _assert_identical(_run(plan, _DB), run_per_group(plan, _DB))


@given(query_sets(), st.sampled_from([0.05, 0.25, 0.5, 0.9]))
@settings(max_examples=15, deadline=None)
def test_shared_equals_per_group_under_sampling(queries, fraction):
    """TABLESAMPLE: the Bernoulli draw is keyed on the statement text,
    so both paths must select the same rows in the same order."""
    plan = plan_execution(_DB, queries, merge=True)
    _assert_identical(_run(plan, _DB, sample_fraction=fraction),
                      run_per_group(plan, _DB, sample_fraction=fraction))


@given(query_sets())
@settings(max_examples=15, deadline=None)
def test_shared_equals_per_group_on_the_scan_path(queries):
    """With secondary indexes off, every leaf predicate takes the
    full-scan mask path (memoised per request on the shared path)."""
    plan = plan_execution(_DB, queries, merge=True)
    assert indexes_enabled()
    set_indexes_enabled(False)
    try:
        _assert_identical(_run(plan, _DB), run_per_group(plan, _DB))
    finally:
        set_indexes_enabled(True)


@pytest.mark.parametrize("rows", [
    _SMALL_CHUNK - 1,          # single partial chunk
    _SMALL_CHUNK,              # exactly one chunk
    _SMALL_CHUNK + 1,          # one chunk + a 1-row tail
    4 * _SMALL_CHUNK,          # exact multiple
    4 * _SMALL_CHUNK + 37,     # many chunks + ragged tail
])
def test_chunk_boundaries_are_exact(rows):
    """Row counts straddling chunk boundaries — the off-by-one surface
    of the fixed partitioning — agree with per-group execution for
    every aggregate."""
    db = Database(seed=2)
    db.register_table(make_nyc311_table(num_rows=rows, seed=rows))
    queries = [AggregateQuery.build("nyc311", func,
                                    None if func == "count" else measure,
                                    {"borough": "Brooklyn"})
               for func in _FUNCS
               for measure in _MEASURES]
    plan = plan_execution(db, queries, merge=True)
    _assert_identical(_run(plan, db), run_per_group(plan, db))


def test_float_summation_order_is_pinned():
    """SUM over values of wildly different magnitudes: any re-association
    of the additions would visibly change the result, so equality here
    proves both paths perform the same additions in the same order (the
    fixed-chunk kernel they share)."""
    rows = 4 * _SMALL_CHUNK + 7
    rng = np.random.default_rng(5)
    magnitudes = rng.choice([1e-8, 1.0, 1e8, 1e16], size=rows)
    values = magnitudes * rng.normal(size=rows)
    cities = rng.choice(["a", "b", "c"], size=rows)
    db = Database(seed=3)
    db.create_table("t", [("city", DataType.TEXT),
                          ("v", DataType.FLOAT)])
    db.insert_rows("t", list(zip(cities.tolist(), values.tolist())))
    queries = [AggregateQuery.build("t", func, "v", {"city": city})
               for func in ("sum", "avg")
               for city in ("a", "b", "c")]
    plan = plan_execution(db, queries, merge=True)
    oracle = run_per_group(plan, db)
    _assert_identical(_run(plan, db), oracle)
    # Sanity: the chunked kernel stays close to a single np.sum over
    # the same values.
    for city in ("a", "b", "c"):
        chunked = oracle[AggregateQuery.build("t", "sum", "v",
                                              {"city": city})]
        assert chunked == pytest.approx(float(values[cities == city].sum()),
                                        rel=1e-6)


def test_shared_context_across_plans_stays_identical():
    """Progressive strategies reuse one request context across several
    ``run_plan`` calls; cached leaf masks must not perturb results."""
    queries = [AggregateQuery.build("nyc311", "avg", "resolution_hours",
                                    {"borough": b, "agency": "NYPD"})
               for b in ("Brooklyn", "Bronx", "Queens")]
    plan = plan_execution(_DB, queries, merge=False)
    ctx = request_context(_DB)
    first = plan.run(_DB, request_ctx=ctx)
    second = plan.run(_DB, request_ctx=ctx)
    _assert_identical(first, run_per_group(plan, _DB))
    _assert_identical(second, first)
