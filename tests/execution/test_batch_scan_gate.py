"""The deterministic half of the batch-execution gate.

``scripts/check_batch_speedup.py`` times plans on a database that
shares leaf selections against the same plans on a memo-free twin, and
also requires the sharing to cut full-table mask builds per request by
``SCAN_FACTOR``.  Scan counts are structural, so
that half needs no timing: this test replays the script's workload
(its own constants) and asserts the same ratio.
"""

import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                "scripts"))
from bench_serving import build_requests, plan_scan_counts
from check_batch_speedup import CANDIDATES, REQUESTS, ROWS, SCAN_FACTOR


def test_batch_cuts_scans_per_request():
    database, plans = build_requests(ROWS, REQUESTS, CANDIDATES)
    scans = [plan_scan_counts(plan, database) for plan in plans]
    per_group = statistics.fmean(legacy for legacy, _ in scans)
    batch = statistics.fmean(shared for _, shared in scans)
    assert per_group / batch >= SCAN_FACTOR, (per_group, batch)
