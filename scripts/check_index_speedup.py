"""Secondary-index speedup gate (``make profile``).

Replays the grouped-equality candidate workload — *requests* per round,
each a merged ``WHERE cat IN (...) GROUP BY cat`` statement over the
synthetic events table — once through the secondary-index access paths
and once through the full-scan oracle (``tests/sqldb/scan_oracle.py``,
which resolves no WHERE tree through the indexes), and fails (exit 1)
if the indexed p50 per-request latency is not at least
``SPEEDUP_FACTOR`` (5) times faster at ``ROWS`` (1M) rows.

Results are asserted bit-identical between the two modes before any
timing (see :func:`bench_serving.measure_row_scaling`), so a passing
gate also re-confirms the scan path as differential oracle.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_serving import measure_row_scaling

ROUNDS = 3
ROWS = 1_000_000
SPEEDUP_FACTOR = 5.0
REQUESTS = 8
CANDIDATES = 50


def main() -> int:

    entry = measure_row_scaling([ROWS], REQUESTS, CANDIDATES, ROUNDS)[0]
    indexed = entry["indexed"]
    scan = entry["scan"]
    speedup = entry["speedup_p50"]

    print(f"grouped-equality workload: {REQUESTS} requests x "
          f"{CANDIDATES} candidates on {ROWS} rows")
    print(f"  p50 per request (best of {ROUNDS}): "
          f"scan {scan['p50_ms']:.3f} ms, "
          f"indexed {indexed['p50_ms']:.3f} ms "
          f"({speedup:.2f}x, required {SPEEDUP_FACTOR:.2f}x)")

    if speedup < SPEEDUP_FACTOR:
        print(f"FAIL: secondary indexes do not deliver a "
              f"{SPEEDUP_FACTOR:.1f}x p50 speedup at {ROWS} rows",
              file=sys.stderr)
        return 1
    print("OK: secondary indexes beat the scan path and match it "
          "bit for bit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
