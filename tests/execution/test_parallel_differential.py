"""Differential tests: parallel execution is bit-identical to serial.

The determinism contract of :mod:`repro.execution.parallel`: morsel
boundaries are fixed (independent of worker count) and every reduction
combines partials in morsel order, so scattering leaf masks, gathers and
grouped-aggregate kernels across the pool must reproduce the serial
engine *exactly* — plain ``==`` on floats, no ``approx``.  The serial
path stays behind ``MUVE_PARALLEL=0`` / ``parallel=False`` as the
oracle; these tests pin the equivalence with Hypothesis-generated
candidate workloads, with ``MORSEL_ROWS`` shrunk so the module-sized
tables span many morsels and chunk boundaries are actually exercised.
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

#: Shrunk morsel size (real default 65536): the 1500-row table below
#: spans six morsels, so scatters, concatenations and ordered
#: reductions all engage, including ragged final chunks.
_SMALL_MORSEL = 256

_DB = Database(seed=0)
_DB.register_table(make_nyc311_table(num_rows=1500, seed=9))

_BOROUGHS = ["Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island",
             "Atlantis"]  # includes a value absent from the data
_AGENCIES = ["NYPD", "HPD", "DOT", "XYZ"]
_FUNCS = ["count", "sum", "avg", "min", "max"]
_MEASURES = ["resolution_hours", "num_calls"]


@pytest.fixture(scope="module", autouse=True)
def _small_morsels():
    original = _kernels.MORSEL_ROWS
    _kernels.MORSEL_ROWS = _SMALL_MORSEL
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


def _run(plan, database, parallel, sample_fraction=None):
    ctx = request_context(database, parallel=parallel)
    return plan.run(database, sample_fraction=sample_fraction,
                    request_ctx=ctx)


def _assert_identical(parallel, serial):
    assert set(parallel) == set(serial)
    for query, expected in serial.items():
        got = parallel[query]
        if expected is None:
            assert got is None, query.to_sql()
        else:
            # Bit-for-bit: fixed morsel boundaries + ordered reductions
            # mean both paths perform the same float operations in the
            # same order.
            assert got == expected, query.to_sql()


@given(query_sets(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_parallel_equals_serial_exactly(queries, merge):
    plan = plan_execution(_DB, queries, merge=merge)
    _assert_identical(_run(plan, _DB, parallel=True),
                      _run(plan, _DB, parallel=False))


@given(query_sets(), st.sampled_from([0.05, 0.25, 0.5, 0.9]))
@settings(max_examples=15, deadline=None)
def test_parallel_equals_serial_under_sampling(queries, fraction):
    """TABLESAMPLE: the Bernoulli draw is keyed on the statement text,
    so parallel and serial runs must select the same rows and gather
    them in the same order."""
    plan = plan_execution(_DB, queries, merge=True)
    _assert_identical(
        _run(plan, _DB, parallel=True, sample_fraction=fraction),
        _run(plan, _DB, parallel=False, sample_fraction=fraction))


@given(query_sets())
@settings(max_examples=15, deadline=None)
def test_parallel_equals_serial_on_the_scan_path(queries):
    """With secondary indexes off, every leaf predicate takes the
    morsel-scattered full-scan mask path."""
    plan = plan_execution(_DB, queries, merge=True)
    assert indexes_enabled()
    set_indexes_enabled(False)
    try:
        scattered = _run(plan, _DB, parallel=True)
    finally:
        set_indexes_enabled(True)
    _assert_identical(scattered, _run(plan, _DB, parallel=False))


@pytest.mark.parametrize("rows", [
    _SMALL_MORSEL - 1,          # single partial morsel
    _SMALL_MORSEL,              # exactly one morsel
    _SMALL_MORSEL + 1,          # one morsel + a 1-row tail
    4 * _SMALL_MORSEL,          # exact multiple
    4 * _SMALL_MORSEL + 37,     # many morsels + ragged tail
])
def test_chunk_boundaries_are_exact(rows):
    """Row counts straddling morsel boundaries — the off-by-one surface
    of the fixed partitioning — agree with serial for every aggregate."""
    db = Database(seed=2)
    db.register_table(make_nyc311_table(num_rows=rows, seed=rows))
    queries = [AggregateQuery.build("nyc311", func,
                                    None if func == "count" else measure,
                                    {"borough": "Brooklyn"})
               for func in _FUNCS
               for measure in _MEASURES]
    plan = plan_execution(db, queries, merge=True)
    _assert_identical(_run(plan, db, parallel=True),
                      _run(plan, db, parallel=False))


def test_float_summation_order_is_pinned():
    """SUM over values of wildly different magnitudes: any re-association
    of the additions would visibly change the result, so equality here
    proves serial and parallel perform the same additions in the same
    order (the fixed-chunk kernel both paths share)."""
    rows = 4 * _SMALL_MORSEL + 7
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
    parallel = _run(plan, db, parallel=True)
    serial = _run(plan, db, parallel=False)
    _assert_identical(parallel, serial)
    # Sanity: this workload is genuinely order-sensitive — a single
    # np.sum over the same values disagrees with the chunked kernel.
    for city in ("a", "b", "c"):
        chunked = serial[AggregateQuery.build("t", "sum", "v",
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
    ctx = request_context(_DB, parallel=True)
    first = plan.run(_DB, request_ctx=ctx)
    second = plan.run(_DB, request_ctx=ctx)
    _assert_identical(first, _run(plan, _DB, parallel=False))
    _assert_identical(second, first)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=25, deadline=None)
def test_parallel_gather_differential(seed, density):
    """Morsel-chunked gathers equal a single fancy index for arbitrary
    masks and position arrays (gathering is a pure copy)."""
    from repro.execution.parallel import get_pool, parallel_gather
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6 * _SMALL_MORSEL))
    array = rng.normal(size=n)
    mask = rng.random(n) < density
    runner = lambda thunks: get_pool().run_tasks(thunks)
    assert np.array_equal(parallel_gather(array, mask, runner),
                          array[mask])
    positions = np.flatnonzero(mask)
    assert np.array_equal(parallel_gather(array, positions, runner),
                          array[positions])
