"""Serving-path measurements shared by the execution gates and tests.

:func:`build_requests` replays the Figure 7 microbenchmark workload —
random target queries, each expanded to its phonetically-similar
candidate set and planned with cost-based merging — and :func:`measure`
times a set of plans through ``ExecutionPlan.run``, on the database
itself (leaf selections shared through its selection cache), on a twin
that keeps no leaf selection (per-group), or through the full-scan
oracle (``tests/sqldb/scan_oracle.py``).  :func:`plan_scan_counts`
counts the full-table mask builds a plan needs with and without shared
leaves.  ``scripts/check_batch_speedup.py`` gates shared against
per-group on them.

:func:`measure_row_scaling` replays a grouped-equality candidate
workload — the shape secondary indexes target — at given table sizes,
once through the index access paths and once through the scan oracle,
after asserting both give identical results.
``scripts/check_index_speedup.py`` gates on it at 1M rows.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

from repro.datasets.generators import DATASET_GENERATORS
from repro.datasets.workload import WorkloadGenerator
from repro.execution.merging import plan_execution
from repro.nlq.candidates import CandidateGenerator
from repro.sqldb.database import Database
from repro.sqldb.expressions import And, Not, Or
from repro.sqldb.query import AggregateQuery
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from tests.sqldb.scan_oracle import full_scan, memo_free, scan_only


def build_requests(rows: int, count: int, candidates: int, seed: int = 0):
    """(database, plans): one merged execution plan per request."""
    database = Database(seed=seed)
    table = DATASET_GENERATORS["nyc311"](num_rows=rows, seed=seed)
    database.register_table(table)
    workload = WorkloadGenerator(database.table("nyc311"), seed=seed)
    generator = CandidateGenerator(database, "nyc311", k=candidates,
                                   max_simultaneous=1)
    plans = []
    for _ in range(count):
        target = workload.random_query(max_predicates=3)
        queries = [c.query
                   for c in generator.candidates(target, candidates)]
        plans.append(plan_execution(database, queries, merge=True))
    return database, plans


def plan_scan_counts(plan, database: Database,
                     sample_fraction: float | None = None,
                     ) -> tuple[int, int]:
    """``(per_group, shared)`` full-table mask builds this plan needs.

    The per-group count charges every group for each of its leaf
    predicates (plus one TABLESAMPLE draw when sampling); the shared
    count charges each *distinct* leaf once.  Structural: nothing is
    executed.
    """
    sampling = sample_fraction is not None and sample_fraction < 1.0
    per_group = samples = 0
    distinct: set = set()
    for group in plan.groups:
        samples += sampling
        bound = database.bound_statement(group.statement)
        table = bound.statement.table.lower()
        stack = [bound.where] if bound.where is not None else []
        while stack:
            expr = stack.pop()
            if isinstance(expr, (And, Or)):
                stack.extend(expr.children)
            elif isinstance(expr, Not):
                stack.append(expr.child)
            else:
                per_group += 1
                distinct.add((table, expr))
    return per_group + samples, len(distinct) + samples


def measure(database: Database, plans, rounds: int,
            per_group: bool = False, scan: bool = False) -> dict:
    """Latency/throughput over all requests in one mode.

    ``per_group`` times the plans on a twin of *database* that keeps no
    leaf selection (every group builds its own), and ``scan`` on
    *database* with every WHERE tree scanned (the full-scan oracle's
    access path), instead of :meth:`ExecutionPlan.run` on *database*.

    An untimed warmup pass first: both modes then run with warm
    statement/cost caches and touched table columns, so the timed pass
    compares execution strategies, not cache state.  Each request keeps
    its best latency across *rounds* passes — per-request minima are the
    standard way to strip scheduler noise from microsecond-scale
    measurements (scan work only ever adds time).
    """
    target = memo_free(database) if per_group else database

    def run(plan):
        if scan:
            with scan_only():
                return plan.run(target)
        return plan.run(target)

    for plan in plans:
        run(plan)
    best = [float("inf")] * len(plans)
    best_wall = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        for index, plan in enumerate(plans):
            start = time.perf_counter()
            run(plan)
            best[index] = min(best[index],
                              (time.perf_counter() - start) * 1000.0)
        best_wall = min(best_wall, time.perf_counter() - begin)
    latencies = sorted(best)
    return {
        "requests": len(plans),
        "p50_ms": round(statistics.median(latencies), 4),
        "p95_ms": round(latencies[int(0.95 * (len(latencies) - 1))], 4),
        "mean_ms": round(statistics.fmean(latencies), 4),
        "queries_per_second": round(len(plans) / best_wall, 2),
    }


def make_events_table(num_rows: int, seed: int = 0,
                      n_categories: int = 1000,
                      n_regions: int = 8) -> Table:
    """A synthetic event-log table for the grouped-equality workload.

    ``cat`` is the candidate predicate column (~1000 distinct values, so
    each equality matches ~0.1% of rows), ``region`` the GROUP BY
    dimension, ``value`` the aggregated measure.  Built columnar-first so
    the 1M-row sweep point loads in milliseconds.
    """
    rng = np.random.default_rng(seed)
    categories = np.array([f"cat_{i:04d}" for i in range(n_categories)],
                          dtype=object)
    regions = np.array([f"region_{i}" for i in range(n_regions)],
                       dtype=object)
    schema = TableSchema("events", (
        ColumnSchema("cat", DataType.TEXT),
        ColumnSchema("region", DataType.TEXT),
        ColumnSchema("value", DataType.FLOAT),
    ))
    return Table(schema, {
        "cat": categories[rng.integers(0, n_categories, num_rows)],
        "region": regions[rng.integers(0, n_regions, num_rows)],
        "value": rng.lognormal(1.0, 0.5, num_rows),
    })


def build_grouped_equality_requests(rows: int, count: int,
                                    candidates: int, seed: int = 0):
    """(database, plans) for the secondary-index target workload.

    Each request is *candidates* equality candidates on ``events.cat``
    merged by the cost-based planner — typically into one
    ``WHERE cat IN (...) GROUP BY cat`` statement, the dominant
    candidate-query shape the inverted group indexes accelerate.

    The database keeps no leaf selections (``mask_cache_bytes=0``), so
    every run of a plan probes the indexes or scans the column; with
    the cache on, :func:`measure`'s warm-up would store each request's
    selection and the timed rounds would only gather cached rows.
    """
    database = Database(seed=seed, mask_cache_bytes=0)
    database.register_table(make_events_table(rows, seed=seed))
    n_categories = len(np.unique(database.table("events").column("cat")))
    rng = np.random.default_rng(seed + 1)
    plans = []
    for _ in range(count):
        chosen = rng.choice(n_categories, size=min(candidates,
                                                   n_categories),
                            replace=False)
        queries = [AggregateQuery.build("events", "sum", "value",
                                        {"cat": f"cat_{code:04d}"})
                   for code in chosen]
        plans.append(plan_execution(database, queries, merge=True))
    return database, plans


def measure_row_scaling(rows_list, requests: int, candidates: int,
                        rounds: int, seed: int = 0) -> list[dict]:
    """Indexed vs scan-oracle latency per table size.

    Both modes run the batch executor over identical plans; the scan
    mode only resolves no WHERE tree through the indexes, so the
    comparison isolates probe-vs-scan data access.  The database caches
    no leaf selections, so every timed round probes or scans (statement
    and cost caches stay warm).  Results are asserted
    identical before timing — the scan path stays the differential
    oracle even in the benchmark.
    """
    entries = []
    for rows in rows_list:
        database, plans = build_grouped_equality_requests(
            rows, requests, candidates, seed)
        for plan in plans:
            assert plan.run(database) == full_scan(database, plan.run), \
                "indexed and scan results diverged"
        scan = measure(database, plans, rounds=rounds, scan=True)
        indexed = measure(database, plans, rounds=rounds)
        entries.append({
            "rows": rows,
            "indexed": indexed,
            "scan": scan,
            "speedup_p50": round(
                scan["p50_ms"] / max(indexed["p50_ms"], 1e-9), 2),
        })
    return entries
