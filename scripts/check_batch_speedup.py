"""Batch-execution speedup gate (``make profile``).

Replays a merged-candidate workload (the Figure 7 shape: each request is
one target query expanded to its phonetically-similar candidate set and
planned with cost-based merging) through the shared plan execution
(``ExecutionPlan.run``) and the per-group rung of the degradation ladder
(``run_plan`` without a request context), and fails (exit 1) if either

* the batch path's mean per-request latency is slower than the
  per-group path's (beyond ``MUVE_BATCH_TOLERANCE``), or
* the batch path does not cut table scans per request by at least
  ``MUVE_BATCH_SCAN_FACTOR``.

The latency comparison averages per-request best-of-round minima (scan
work only ever adds time, so minima strip scheduler noise, and the mean
over all requests is far steadier than any single quantile); the scan
counts are structural and deterministic.

Environment knobs::

    MUVE_BATCH_TOLERANCE      allowed fractional slowdown (default 0.02)
    MUVE_BATCH_SCAN_FACTOR    required scan reduction (default 1.5)
    MUVE_BATCH_REQUESTS       requests per round (default 30)
    MUVE_BATCH_ROWS           table rows (default 20000)
    MUVE_BATCH_CANDIDATES     candidates per request (default 50)
"""

from __future__ import annotations

import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_serving import build_requests, measure

from repro.execution.batch import plan_scan_counts
from repro.flags import env_float, env_int

ROUNDS = 3


def main() -> int:
    tolerance = env_float("MUVE_BATCH_TOLERANCE", 0.02)
    scan_factor = env_float("MUVE_BATCH_SCAN_FACTOR", 1.5)
    requests = env_int("MUVE_BATCH_REQUESTS", 30)
    rows = env_int("MUVE_BATCH_ROWS", 20000)
    candidates = env_int("MUVE_BATCH_CANDIDATES", 50)

    database, plans = build_requests(rows, requests, candidates)
    scans = [plan_scan_counts(plan, database) for plan in plans]
    legacy_scans = statistics.fmean(s[0] for s in scans)
    batch_scans = statistics.fmean(s[1] for s in scans)
    reduction = legacy_scans / max(batch_scans, 1e-9)

    legacy = measure(database, plans, rounds=ROUNDS, per_group=True)
    batched = measure(database, plans, rounds=ROUNDS)

    print(f"merged-candidate workload: {requests} requests x "
          f"{candidates} candidates on {rows} rows")
    print(f"  mean per request (best of {ROUNDS}): "
          f"per-group {legacy['mean_ms']:.3f} ms, "
          f"batch {batched['mean_ms']:.3f} ms "
          f"({legacy['mean_ms'] / batched['mean_ms']:.2f}x)")
    print(f"  scans per request: per-group {legacy_scans:.1f}, "
          f"batch {batch_scans:.1f} ({reduction:.2f}x, "
          f"required {scan_factor:.2f}x)")

    failed = False
    if batched["mean_ms"] > legacy["mean_ms"] * (1.0 + tolerance):
        print("FAIL: batch execution is slower than the per-group loop "
              f"(tolerance {tolerance:.0%})", file=sys.stderr)
        failed = True
    if reduction < scan_factor:
        print("FAIL: batch execution does not cut scans per request by "
              f"{scan_factor:.2f}x", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: batch execution is no slower and cuts scans per request")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
