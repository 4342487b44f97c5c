"""Parallel-execution gate (``make profile``).

Two checks, in order:

1. **Bit-identity (always enforced).**  Every plan of the Figure 7
   merged-candidate workload must produce results *exactly* equal to
   the ``MUVE_PARALLEL=0`` serial oracle when executed on the worker
   pool — the determinism contract of the morsel scheme (fixed
   boundaries, ordered reductions).  Any divergence fails the gate,
   on any machine.

2. **Speedup (enforced on capable hosts).**  With
   ``MUVE_PARALLEL_GATE_WORKERS`` workers on a
   ``MUVE_PARALLEL_ROWS``-row table, pooled p50 per-request latency
   must beat serial by ``MUVE_PARALLEL_SPEEDUP_FACTOR``.  A host with
   fewer than ``MUVE_PARALLEL_MIN_CPUS`` cores cannot physically show
   data-parallel speedup, so the timing check is skipped (explicitly,
   on stdout) — the identity check above still ran.

Secondary indexes are disabled throughout so both modes run the same
morsel-scattered scan plans (see ``bench_parallel.py``); the index path
has its own gate.

Environment knobs::

    MUVE_PARALLEL_ROWS            table rows (default 1000000)
    MUVE_PARALLEL_GATE_WORKERS    pool size (default 4)
    MUVE_PARALLEL_SPEEDUP_FACTOR  required p50 speedup (default 2)
    MUVE_PARALLEL_MIN_CPUS        cores needed to enforce timing
                                  (default 4)
    MUVE_PARALLEL_REQUESTS        requests per round (default 6)
    MUVE_PARALLEL_CANDIDATES      candidates per request (default 50)
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_serving import build_requests, measure

from repro.execution.parallel import (
    configure_pool,
    reset_pool,
)
from repro.flags import env_float, env_int
from repro.sqldb.index import set_indexes_enabled

ROUNDS = 3


def main() -> int:
    rows = env_int("MUVE_PARALLEL_ROWS", 1000000)
    workers = env_int("MUVE_PARALLEL_GATE_WORKERS", 4)
    factor = env_float("MUVE_PARALLEL_SPEEDUP_FACTOR", 2)
    min_cpus = env_int("MUVE_PARALLEL_MIN_CPUS", 4)
    requests = env_int("MUVE_PARALLEL_REQUESTS", 6)
    candidates = env_int("MUVE_PARALLEL_CANDIDATES", 50)
    cpus = os.cpu_count() or 1

    print(f"figure-7 workload: {requests} requests x {candidates} "
          f"candidates on {rows} rows, pool of {workers} "
          f"(host has {cpus} CPU(s))")

    database, plans = build_requests(rows, requests, candidates)
    set_indexes_enabled(False)
    try:
        reference = [plan.run(database, parallel=False)
                     for plan in plans]
        configure_pool(workers)
        for index, (plan, expected) in enumerate(zip(plans, reference)):
            got = plan.run(database, parallel=True)
            if got != expected:
                diverged = sorted(
                    q.to_sql() for q in expected
                    if got.get(q) != expected[q])
                print(f"FAIL: request {index} diverged from the serial "
                      f"oracle on {len(diverged)} queries, e.g. "
                      f"{diverged[0]}", file=sys.stderr)
                return 1
        print(f"  bit-identity: {len(plans)} requests, parallel == "
              f"serial exactly")

        if cpus < min_cpus:
            print(f"SKIP: speedup check needs >= {min_cpus} CPUs to be "
                  f"physically satisfiable; this host has {cpus}. "
                  f"Bit-identity was still enforced.")
            return 0

        serial = measure(database, plans, rounds=ROUNDS,
                         parallel=False)
        pooled = measure(database, plans, rounds=ROUNDS,
                         parallel=True)
    finally:
        set_indexes_enabled(True)
        reset_pool()

    speedup = serial["p50_ms"] / max(pooled["p50_ms"], 1e-9)
    print(f"  p50 per request (best of {ROUNDS}): "
          f"serial {serial['p50_ms']:.3f} ms, "
          f"parallel {pooled['p50_ms']:.3f} ms "
          f"({speedup:.2f}x, required {factor:.2f}x)")
    if speedup < factor:
        print(f"FAIL: the worker pool does not deliver a {factor:.1f}x "
              f"p50 speedup at {rows} rows with {workers} workers",
              file=sys.stderr)
        return 1
    print("OK: parallel execution beats the serial path and matches it "
          "bit for bit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
