"""Plan execution for candidate workloads (Section 8.1).

An :class:`~repro.execution.merging.ExecutionPlan` answers a whole
candidate set with a handful of merged statements that are
near-duplicates: their predicates differ in a single constant.
:func:`run_plan` is the one loop that executes a plan's groups.  Every
group statement goes through :meth:`~repro.sqldb.database.Database.execute`
and so through :func:`~repro.sqldb.executor.execute_bound`, the one
statement executor, and shares work with the other groups there:

* **Statement binding** — every group statement arrives as a parse tree
  and resolves through the database's bound-statement cache (keyed on
  the statement), so a repeated statement is bound once; no SQL text is
  rendered or parsed.
* **Leaf selections** — leaf predicates (``borough = 'Brooklyn'``,
  ``agency IN (...)``) are probed or scanned once and kept in the
  database's selection cache, the one memo for them: every later group,
  plan, request or lone statement that references a leaf takes it from
  there until the data changes.  AND/OR/NOT combine the cached leaves.
  Since candidates share their fixed predicates, a plan that would
  build a leaf once per group instead builds each distinct column
  comparison once.

Execution is single-threaded: a plan's groups run in order on the
calling thread.  Each group runs inside one ``executor.group`` span,
which holds a ``sqldb.execute`` span unless the result cache answered;
the selection cache's counters are ``Muve.cache_stats()["selections"]``
(``/api/stats``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import NullAggregateError
from repro.observability import trace_span
from repro.resilience import current_deadline
from repro.sqldb.database import Database, QueryResult
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.caching import QueryResultCache
    from repro.execution.merging import ExecutionPlan
    from repro.sqldb.parser import SelectStatement
    from repro.sqldb.query import AggregateQuery

__all__ = ["run_plan"]


def run_plan(plan: "ExecutionPlan", database: Database,
             sample_fraction: float | None = None,
             cache: "QueryResultCache | None" = None,
             ) -> dict["AggregateQuery", float | None]:
    """Answer every group of *plan*: the one loop over a plan's groups.

    Each group statement runs through ``Database.execute`` behind the
    ``executor.group`` fault point, its leaf selections from the
    database's selection cache.  Results are those of executing each
    group alone, bit for bit, including TABLESAMPLE draws (the rng
    derives from the statement's SQL rendering), NULL/zero-row
    normalisation and result-cache entries (keyed on the group
    statement).  The request deadline is polled per group.
    """
    from repro.execution.merging import (
        _extract_group_results,
        _normalize,
        sampled,
    )

    results: dict["AggregateQuery", float | None] = {}
    for group in plan.groups:
        fault_point("executor.group")
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("executor.group")
        statement = group.statement
        if sample_fraction is not None and sample_fraction < 1.0:
            statement = sampled(statement, sample_fraction)
        with trace_span("executor.group") as span:
            span.set_attribute("queries", len(group.queries))
            span.set_attribute("merged", group.is_merged)
            span.set_attribute("estimated_cost",
                               round(group.estimated_cost, 3))
            executed = True

            def execute(statement: "SelectStatement") -> QueryResult:
                nonlocal executed
                executed = True
                return database.execute(statement)

            try:
                if cache is not None:
                    executed = False
                    outcome = cache.get_or_execute(statement, execute)
                    span.set_attribute(
                        "cache", "miss" if executed else "hit")
                else:
                    outcome = execute(statement)
            except NullAggregateError:
                # Aggregate over zero qualifying rows (SQL NULL): report
                # every member query as missing/zero.  Other
                # ExecutionErrors are genuine failures (bad SQL, a
                # dropped table, an unsupported aggregate) and propagate
                # to the caller instead of being folded into "no data".
                span.set_attribute("null_result", True)
                for query in group.queries:
                    results[query] = _normalize(query, None)
                continue
            if executed:
                # Cost-model estimation error: the optimizer's EXPLAIN
                # estimate (abstract units) vs. the measured runtime.
                # Cache hits skip this — their elapsed time belongs to
                # the original execution.
                actual_ms = outcome.elapsed_seconds * 1000.0
                span.set_attribute("actual_ms", round(actual_ms, 4))
                if group.estimated_cost > 0:
                    span.set_attribute(
                        "ms_per_cost_unit",
                        round(actual_ms / group.estimated_cost, 6))
        _extract_group_results(group, outcome, results)
    return results
