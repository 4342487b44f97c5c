"""Serving benchmark: batch vs per-group execution (``make bench-serve``).

Replays the Figure 7 microbenchmark workload — random target queries,
each expanded to its phonetically-similar candidate set and planned with
cost-based merging — through both execution paths and writes
``BENCH_serving.json`` with per-request latency percentiles, throughput,
and table scans per request for each mode.

A "scan" is one full pass over a base-table column to build a boolean
mask (a leaf predicate or a TABLESAMPLE draw); the per-group path pays
one per leaf per group, the batch path one per *distinct* leaf per
request (see :func:`repro.execution.batch.plan_scan_counts`).

The report also carries a ``candidate_generation`` section: end-to-end
:meth:`CandidateGenerator.candidates` latency over a large synthetic
vocabulary (pruned phonetic retrieval is the dominant cost there), both
cold (probe cache cleared per round) and warm.

The ``row_scaling`` section replays a dedicated grouped-equality
candidate workload — the shape secondary indexes target — across a
``--rows`` sweep (default 20k/200k/1M), once with index access paths and
once with full scans (``set_indexes_enabled(False)``), so scan-bound
O(rows) cost is visible instead of hidden by a small table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from repro.caching.phonetic import phonetic_probe_cache
from repro.datasets.generators import DATASET_GENERATORS
from repro.datasets.workload import WorkloadGenerator
from repro.execution.batch import plan_scan_counts, run_plan
from repro.execution.merging import plan_execution
from repro.nlq.candidates import CandidateGenerator
from repro.sqldb.database import Database
from repro.sqldb.index import set_indexes_enabled
from repro.sqldb.query import AggregateQuery
from repro.sqldb.schema import ColumnSchema, TableSchema
from repro.sqldb.table import Table
from repro.sqldb.types import DataType

REQUESTS = 30
ROWS = 20000
CANDIDATES = 50
#: measurement rounds, best kept
ROUNDS = 5
#: vocabulary size of the candidate-generation section
VOCABULARY = 50000
#: requests per row-scaling sweep point
SCALING_REQUESTS = 8
OUTPUT = "BENCH_serving.json"


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


def measure(database: Database, plans, rounds: int,
            per_group: bool = False) -> dict:
    """Latency/throughput over all requests in one mode.

    ``per_group`` times the per-group rung (:func:`run_plan` without a
    request context: every group alone through ``Database.execute``)
    instead of the shared path, :meth:`ExecutionPlan.run`.

    An untimed warmup pass first: both modes then run with warm
    statement/cost caches and touched table columns, so the timed pass
    compares execution strategies, not cache state.  Each request keeps
    its best latency across *rounds* passes — per-request minima are the
    standard way to strip scheduler noise from microsecond-scale
    measurements (scan work only ever adds time).
    """
    def run(plan):
        if per_group:
            return run_plan(plan, database)
        return plan.run(database)

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
    """
    database = Database(seed=seed)
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
    """Indexed vs forced-scan latency per table size.

    Both modes run the batch executor over identical plans; only the
    index flag differs, so the comparison isolates probe-vs-scan data
    access.  Results are asserted identical before timing — the scan
    path stays the differential oracle even in the benchmark.
    """
    entries = []
    for rows in rows_list:
        database, plans = build_grouped_equality_requests(
            rows, requests, candidates, seed)
        reference = [plan.run(database) for plan in plans]
        set_indexes_enabled(False)
        try:
            for plan, expected in zip(plans, reference):
                assert plan.run(database) == expected, \
                    "indexed and scan results diverged"
            scan = measure(database, plans, rounds=rounds)
        finally:
            set_indexes_enabled(True)
        indexed = measure(database, plans, rounds=rounds)
        entries.append({
            "rows": rows,
            "indexed": indexed,
            "scan": scan,
            "speedup_p50": round(
                scan["p50_ms"] / max(indexed["p50_ms"], 1e-9), 2),
        })
    return entries


def measure_candidate_generation(vocabulary_size: int, requests: int,
                                 rounds: int, k: int = 20,
                                 seed: int = 0) -> dict:
    """End-to-end candidate-generation latency on a large vocabulary.

    Builds a table whose predicate column holds *vocabulary_size*
    distinct text values, so every request's alternatives come from
    pruned top-k retrieval over a vocabulary far past the point where
    the old exhaustive scan was interactive.  "Cold" clears the probe
    cache each round (every lookup runs the pruned search); "warm"
    repeats the same requests with the cache intact.
    """
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_phonetics import synthetic_vocabulary
    terms = synthetic_vocabulary(vocabulary_size)
    database = Database(seed=seed)
    database.create_table("bigvocab", [("term", "text"),
                                       ("value", "double")])
    database.insert_rows(
        "bigvocab",
        [(term, float(position % 97))
         for position, term in enumerate(terms)])
    begin = time.perf_counter()
    generator = CandidateGenerator(database, "bigvocab", k=k,
                                   max_simultaneous=1)
    build_seconds = time.perf_counter() - begin
    workload = WorkloadGenerator(database.table("bigvocab"), seed=seed)
    targets = [workload.random_query(max_predicates=1)
               for _ in range(requests)]

    def run(clear_cache: bool) -> dict:
        best = [float("inf")] * len(targets)
        for _ in range(rounds):
            if clear_cache:
                phonetic_probe_cache().clear()
            for position, target in enumerate(targets):
                start = time.perf_counter()
                generator.candidates(target, k)
                best[position] = min(
                    best[position],
                    (time.perf_counter() - start) * 1000.0)
        latencies = sorted(best)
        return {
            "p50_ms": round(statistics.median(latencies), 4),
            "p95_ms": round(
                latencies[int(0.95 * (len(latencies) - 1))], 4),
            "mean_ms": round(statistics.fmean(latencies), 4),
        }

    cold = run(clear_cache=True)
    warm = run(clear_cache=False)
    return {
        "vocabulary_terms": len(terms),
        "requests": len(targets),
        "k": k,
        "index_build_seconds": round(build_seconds, 3),
        "cold": cold,
        "warm": warm,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", default="20000,200000,1000000",
        help="comma-separated table sizes for the row_scaling sweep "
             "(grouped-equality workload, indexed vs full scans)")
    args = parser.parse_args(argv)
    sweep = [int(token) for token in str(args.rows).split(",") if token]

    database, plans = build_requests(ROWS, REQUESTS, CANDIDATES)
    legacy_scans = []
    batch_scans = []
    for plan in plans:
        legacy, batch = plan_scan_counts(plan, database)
        legacy_scans.append(legacy)
        batch_scans.append(batch)

    legacy = measure(database, plans, rounds=ROUNDS, per_group=True)
    legacy["scans_per_request"] = round(statistics.fmean(legacy_scans), 2)
    batched = measure(database, plans, rounds=ROUNDS)
    batched["scans_per_request"] = round(statistics.fmean(batch_scans), 2)

    report = {
        "workload": {
            "dataset": "nyc311",
            "rows": ROWS,
            "requests": REQUESTS,
            "candidates_per_request": CANDIDATES,
            "groups_per_request": round(statistics.fmean(
                len(plan.groups) for plan in plans), 2),
        },
        "batch": batched,
        "legacy": legacy,
        "speedup_p50": round(legacy["p50_ms"] / batched["p50_ms"], 2),
        "scan_reduction": round(
            legacy["scans_per_request"]
            / max(batched["scans_per_request"], 1e-9), 2),
        "candidate_generation": measure_candidate_generation(
            VOCABULARY, REQUESTS, max(2, ROUNDS - 2)),
        "row_scaling": {
            "workload": {
                "dataset": "events",
                "requests": SCALING_REQUESTS,
                "candidates_per_request": CANDIDATES,
            },
            "sweep": measure_row_scaling(sweep, SCALING_REQUESTS,
                                         CANDIDATES,
                                         max(2, ROUNDS - 2)),
        },
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"wrote {OUTPUT}")
    print(f"  workload: {REQUESTS} requests x {CANDIDATES} candidates "
          f"on {ROWS} rows "
          f"({report['workload']['groups_per_request']} groups/request)")
    for mode in ("legacy", "batch"):
        entry = report[mode]
        print(f"  {mode:>6}: p50 {entry['p50_ms']:.2f} ms, "
              f"p95 {entry['p95_ms']:.2f} ms, "
              f"{entry['queries_per_second']:.0f} req/s, "
              f"{entry['scans_per_request']:.1f} scans/request")
    print(f"  speedup p50: {report['speedup_p50']}x, "
          f"scan reduction: {report['scan_reduction']}x")
    generation = report["candidate_generation"]
    print(f"  candidate generation over "
          f"{generation['vocabulary_terms']} terms: "
          f"cold p50 {generation['cold']['p50_ms']:.2f} ms, "
          f"warm p50 {generation['warm']['p50_ms']:.2f} ms")
    print("  row scaling (grouped-equality, indexed vs scan):")
    for entry in report["row_scaling"]["sweep"]:
        print(f"    {entry['rows']:>9} rows: "
              f"indexed p50 {entry['indexed']['p50_ms']:.3f} ms, "
              f"scan p50 {entry['scan']['p50_ms']:.3f} ms "
              f"({entry['speedup_p50']}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
