"""Parallel-execution scaling benchmark (``make bench-parallel``).

Replays the Figure 7 merged-candidate workload through the batch
executor serially (``MUVE_PARALLEL=0`` semantics) and with the shared
worker pool at 1/2/4/8 workers, across a 200k/1M row sweep, and merges
a ``parallel_scaling`` section into ``BENCH_serving.json`` (the rest of
the report, written by ``make bench-serve``, is preserved).

Secondary indexes are disabled for every mode: with index probes on,
requests are sub-millisecond and the measurement would time the probe
path, not the morsel-scattered scans/gathers/aggregates this sweep is
about.  Serial and parallel run the identical scan plans, so the
comparison isolates the pool.  Results are asserted bit-identical to
serial before any timing.

On a single-core host the sweep still runs (and still proves
bit-identity); the speedups it reports just measure scheduling overhead
rather than parallelism — ``check_parallel_speedup.py`` is the gate
that knows when speedup may be enforced.

Environment knobs::

    MUVE_PARALLEL_ROW_SWEEP   sweep sizes (default "200000,1000000")
    MUVE_PARALLEL_WORKER_SWEEP  worker counts (default "1,2,4,8")
    MUVE_PARALLEL_REQUESTS    requests per sweep point (default 6)
    MUVE_PARALLEL_CANDIDATES  candidates per request (default 50)
    MUVE_PARALLEL_ROUNDS      measurement rounds, best kept (default 3)
    MUVE_BENCH_OUTPUT         report path (default BENCH_serving.json)
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_serving import build_requests, measure

from repro.execution.parallel import (
    configure_pool,
    reset_pool,
)
from repro.flags import env_int, env_str
from repro.sqldb.index import set_indexes_enabled


def measure_parallel_scaling(rows_list, workers_list, requests: int,
                             candidates: int, rounds: int,
                             seed: int = 0) -> list[dict]:
    """Serial vs pooled latency per (table size, worker count)."""
    entries = []
    set_indexes_enabled(False)
    try:
        for rows in rows_list:
            database, plans = build_requests(rows, requests, candidates,
                                             seed)
            reference = [plan.run(database, parallel=False)
                         for plan in plans]
            serial = measure(database, plans, rounds=rounds,
                             parallel=False)
            by_workers = {}
            for workers in workers_list:
                # parallel=True forces the pool even at one worker (auto
                # mode would skip it), so the 1-worker arm measures pure
                # scheduling overhead.
                configure_pool(workers)
                for plan, expected in zip(plans, reference):
                    assert plan.run(database, parallel=True) == expected, \
                        f"parallel ({workers} workers) diverged from serial"
                timing = measure(database, plans, rounds=rounds,
                                 parallel=True)
                timing["speedup_p50"] = round(
                    serial["p50_ms"] / max(timing["p50_ms"], 1e-9), 2)
                by_workers[str(workers)] = timing
            entries.append({
                "rows": rows,
                "serial": serial,
                "workers": by_workers,
            })
    finally:
        set_indexes_enabled(True)
        reset_pool()
    return entries


def merge_into_report(path: str, section: dict) -> None:
    """Read-modify-write: keep every other section of the report."""
    report = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    report["parallel_scaling"] = section
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def main() -> int:
    row_sweep = env_str("MUVE_PARALLEL_ROW_SWEEP", "200000,1000000")
    rows_list = [int(t) for t in row_sweep.split(",") if t]
    worker_sweep = env_str("MUVE_PARALLEL_WORKER_SWEEP", "1,2,4,8")
    workers_list = [int(t) for t in worker_sweep.split(",") if t]
    requests = env_int("MUVE_PARALLEL_REQUESTS", 6)
    candidates = env_int("MUVE_PARALLEL_CANDIDATES", 50)
    rounds = env_int("MUVE_PARALLEL_ROUNDS", 3)
    output = env_str("MUVE_BENCH_OUTPUT", "BENCH_serving.json")

    sweep = measure_parallel_scaling(rows_list, workers_list, requests,
                                     candidates, rounds)
    section = {
        "workload": {
            "dataset": "nyc311",
            "requests": requests,
            "candidates_per_request": candidates,
            "indexes": False,
        },
        "cpu_count": os.cpu_count() or 1,
        "sweep": sweep,
    }
    merge_into_report(output, section)

    print(f"merged parallel_scaling into {output} "
          f"(host has {section['cpu_count']} CPU(s))")
    for entry in sweep:
        print(f"  {entry['rows']:>9} rows: "
              f"serial p50 {entry['serial']['p50_ms']:.2f} ms")
        for workers, timing in entry["workers"].items():
            print(f"    {workers:>2} worker(s): "
                  f"p50 {timing['p50_ms']:.2f} ms "
                  f"({timing['speedup_p50']}x)")
    print("  all modes bit-identical to the serial oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
