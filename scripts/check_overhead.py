"""Overhead gates for the serving path (``make profile``).

Two gates, both exit 1 on violation:

1. **Tracing**: the same load-test workload runs twice in-process —
   tracing enabled and tracing disabled — and the enabled run must not
   be more than 5% slower.  This pins the observability layer's core
   promise: the disabled tracer is a no-op.

2. **Resilience**: the workload runs once more with an ample (never
   expiring) request deadline armed, and must not be more than 5%
   slower than the deadline-free run.  This pins the resilience
   layer's no-fault promise: deadline polls, fault probes, and the
   degradation collector cost nothing measurable when nothing is
   failing.

Each configuration runs on a **fresh pipeline** (fresh caches) so all
measure identical cold-cache work, and takes the best of three rounds so
scheduler noise does not fail the gate spuriously.
"""

from __future__ import annotations

import sys
import time

from repro.core.model import ScreenGeometry
from repro.core.planner import VisualizationPlanner
from repro.datasets.generators import DATASET_GENERATORS
from repro.datasets.workload import WorkloadGenerator
from repro.experiments.robustness import _speak
from repro.muve import Muve
from repro.observability import (
    get_trace_log,
    render_profile,
    set_tracing_enabled,
    tracing_enabled,
)
from repro.resilience import deadline_scope
from repro.sqldb.database import Database

ROUNDS = 3
#: allowed fractional overhead of tracing and of the armed deadline
THRESHOLD = 0.05
REQUESTS = 50
ROWS = 5000


def build_muve(rows: int, seed: int = 0) -> Muve:
    database = Database(seed=seed)
    generator = DATASET_GENERATORS["nyc311"]
    database.register_table(generator(num_rows=rows, seed=seed))
    # The greedy planner keeps rounds fast; the tracer's relative cost is
    # what is under test, not the solver.
    return Muve(database, "nyc311", seed=seed,
                geometry=ScreenGeometry(),
                planner=VisualizationPlanner(strategy="greedy"))


def questions_for(muve: Muve, count: int, seed: int = 0) -> list[str]:
    table = muve.database.table(muve.table_name)
    workload = WorkloadGenerator(table, seed=seed)
    pool = [_speak(workload.random_query(exact_predicates=1))
            for _ in range(min(count, 20))]
    return [pool[i % len(pool)] for i in range(count)]


#: ample enough that the deadline never fires during the gate — only the
#: bookkeeping (polls, remaining-budget arithmetic) is being measured.
AMPLE_DEADLINE_MS = 3_600_000.0


def timed_round(rows: int, count: int,
                deadline_ms: float | None = None) -> float:
    """One cold-cache round: build, ask every question, report seconds."""
    muve = build_muve(rows)
    questions = questions_for(muve, count)
    begin = time.perf_counter()
    for question in questions:
        with deadline_scope(deadline_ms):
            muve.ask(question)
    return time.perf_counter() - begin


def best_of(rounds: int, rows: int, count: int,
            deadline_ms: float | None = None) -> float:
    return min(timed_round(rows, count, deadline_ms)
               for _ in range(rounds))


def main() -> int:
    previous = tracing_enabled()
    try:
        set_tracing_enabled(True)
        get_trace_log().clear()
        traced = best_of(ROUNDS, ROWS, REQUESTS)
        profile = render_profile()
        set_tracing_enabled(False)
        untraced = best_of(ROUNDS, ROWS, REQUESTS)
        with_deadline = best_of(ROUNDS, ROWS, REQUESTS,
                                AMPLE_DEADLINE_MS)
    finally:
        set_tracing_enabled(previous)

    overhead = traced / untraced - 1.0 if untraced > 0 else 0.0
    resilience = (with_deadline / untraced - 1.0
                  if untraced > 0 else 0.0)
    print(profile)
    print()
    print(f"wall-clock for {REQUESTS} requests (best of {ROUNDS}): "
          f"traced {traced * 1000:.1f} ms, "
          f"untraced {untraced * 1000:.1f} ms, "
          f"deadline-armed {with_deadline * 1000:.1f} ms")
    print(f"tracing overhead: {overhead:+.1%} "
          f"(budget {THRESHOLD:.0%})")
    print(f"resilience overhead (no faults): {resilience:+.1%} "
          f"(budget {THRESHOLD:.0%})")
    failed = False
    if overhead > THRESHOLD:
        print("FAIL: tracing overhead exceeds the budget",
              file=sys.stderr)
        failed = True
    if resilience > THRESHOLD:
        print("FAIL: resilience overhead exceeds the budget",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: tracing and resilience overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
