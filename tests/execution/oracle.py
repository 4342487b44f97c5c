"""The per-group reference oracle for plan execution.

Production answers a plan through one loop with request-shared work
(:func:`repro.execution.batch.run_plan`).  The reference it must match
bit for bit is the plainest possible execution: every group's SQL
through :meth:`Database.execute` on its own, rows mapped back to the
member queries by the same ``_extract_group_results`` production uses.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import NullAggregateError
from repro.execution.merging import (
    ExecutionPlan,
    _extract_group_results,
    _normalize,
    _with_sample,
)


def run_per_group(plan, database, sample_fraction=None, cache=None):
    """Execute *plan* one group at a time; returns per-query results."""
    results = {}
    for group in plan.groups:
        sql = group.sql
        if sample_fraction is not None and sample_fraction < 1.0:
            sql = _with_sample(sql, sample_fraction)
        try:
            if cache is None:
                outcome = database.execute(sql)
            else:
                outcome = cache.get_or_execute(sql, database.execute)
        except NullAggregateError:
            for query in group.queries:
                results[query] = _normalize(query, None)
            continue
        _extract_group_results(group, outcome, results)
    return results


@contextmanager
def per_group_plans(monkeypatch):
    """Route every ``ExecutionPlan.run`` (progressive strategies
    included) through :func:`run_per_group` inside the block."""
    with monkeypatch.context() as patch:
        patch.setattr(
            ExecutionPlan, "run",
            lambda self, database, sample_fraction=None, cache=None,
            request_ctx=None: run_per_group(
                self, database, sample_fraction, cache))
        yield
