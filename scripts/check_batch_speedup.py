"""Batch-execution speedup gate (``make profile``).

Replays a merged-candidate workload (the Figure 7 shape: each request is
one target query expanded to its phonetically-similar candidate set and
planned with cost-based merging) through the shared plan execution
(``ExecutionPlan.run``) and the per-group rung of the degradation ladder
(``run_plan`` without a request context), and fails (exit 1) if either

* the batch path's mean per-request latency is slower than the
  per-group path's (beyond ``TOLERANCE``, 2%), or
* the batch path does not cut table scans per request by at least
  ``SCAN_FACTOR`` (1.5x).

The latency comparison averages per-request best-of-round minima (scan
work only ever adds time, so minima strip scheduler noise, and the mean
over all requests is far steadier than any single quantile); the scan
counts are structural and deterministic, and
``tests/execution/test_batch_scan_gate.py`` pins the same ratio on the
same workload.
"""

from __future__ import annotations

import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_serving import build_requests, measure

from repro.execution.batch import plan_scan_counts

ROUNDS = 3
TOLERANCE = 0.02
SCAN_FACTOR = 1.5
REQUESTS = 30
ROWS = 20000
CANDIDATES = 50


def main() -> int:

    database, plans = build_requests(ROWS, REQUESTS, CANDIDATES)
    scans = [plan_scan_counts(plan, database) for plan in plans]
    legacy_scans = statistics.fmean(s[0] for s in scans)
    batch_scans = statistics.fmean(s[1] for s in scans)
    reduction = legacy_scans / max(batch_scans, 1e-9)

    legacy = measure(database, plans, rounds=ROUNDS, per_group=True)
    batched = measure(database, plans, rounds=ROUNDS)

    print(f"merged-candidate workload: {REQUESTS} requests x "
          f"{CANDIDATES} candidates on {ROWS} rows")
    print(f"  mean per request (best of {ROUNDS}): "
          f"per-group {legacy['mean_ms']:.3f} ms, "
          f"batch {batched['mean_ms']:.3f} ms "
          f"({legacy['mean_ms'] / batched['mean_ms']:.2f}x)")
    print(f"  scans per request: per-group {legacy_scans:.1f}, "
          f"batch {batch_scans:.1f} ({reduction:.2f}x, "
          f"required {SCAN_FACTOR:.2f}x)")

    failed = False
    if batched["mean_ms"] > legacy["mean_ms"] * (1.0 + TOLERANCE):
        print("FAIL: batch execution is slower than the per-group loop "
              f"(tolerance {TOLERANCE:.0%})", file=sys.stderr)
        failed = True
    if reduction < SCAN_FACTOR:
        print("FAIL: batch execution does not cut scans per request by "
              f"{SCAN_FACTOR:.2f}x", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: batch execution is no slower and cuts scans per request")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
