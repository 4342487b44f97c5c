"""Phonetic retrieval speedup gate (``make profile``).

Builds the 100k-term synthetic vocabulary from ``bench_phonetics`` and
fails (exit 1) if pruned exact top-k retrieval

* is not at least ``SPEEDUP_FACTOR`` (5) times faster than the
  exhaustive scan (mean per probe), or
* exceeds ``P50_BUDGET_MS`` (10) milliseconds median per-probe latency,
  or
* disagrees with the exhaustive oracle on any probed ranking.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_phonetics import bench_scale

ROUNDS = 3
EXHAUSTIVE_PROBES = 4
SPEEDUP_FACTOR = 5.0
P50_BUDGET_MS = 10.0
TERMS = 100_000
PROBES = 20


def main() -> int:
    entry = bench_scale(TERMS, PROBES, ROUNDS, EXHAUSTIVE_PROBES)
    pruned = entry["pruned"]
    exhaustive = entry["exhaustive"]
    print(f"phonetic retrieval at {entry['terms']} terms "
          f"({entry['distinct_codes']} codes):")
    print(f"  pruned p50 {pruned['p50_ms']:.2f} ms "
          f"(budget {P50_BUDGET_MS:.1f} ms), "
          f"mean {pruned['mean_ms']:.2f} ms")
    print(f"  exhaustive mean {exhaustive['mean_ms']:.1f} ms, "
          f"speedup {entry['speedup_mean']}x "
          f"(required {SPEEDUP_FACTOR:.1f}x)")

    failed = False
    if exhaustive["mismatches"]:
        print("FAIL: pruned ranking differs from the exhaustive oracle",
              file=sys.stderr)
        failed = True
    if entry["speedup_mean"] < SPEEDUP_FACTOR:
        print(f"FAIL: pruned retrieval is not {SPEEDUP_FACTOR:.1f}x "
              "faster than the exhaustive scan", file=sys.stderr)
        failed = True
    if pruned["p50_ms"] > P50_BUDGET_MS:
        print(f"FAIL: pruned p50 exceeds {P50_BUDGET_MS:.1f} ms",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: pruned retrieval is exact, fast, and within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
