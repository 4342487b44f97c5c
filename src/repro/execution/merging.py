"""Query merging (Section 8.1).

Candidate queries are near-duplicates of each other, so MUVE shares work
between them: queries that differ only in one predicate's constant become a
single ``IN`` + ``GROUP BY`` query; queries that differ only in the
aggregate (function or column) share one scan with several output
aggregates.  The merge decision is cost-based, using the engine's optimizer
estimates ("we use the cost model of the Postgres optimizer"): a group is
merged only when the merged plan is estimated cheaper than running its
members separately.

The grouping structure is exactly the template structure of
:mod:`repro.nlq.templates`: queries sharing a ``pred_value`` template merge
by IN/GROUP BY, queries sharing an ``agg_func``/``agg_column`` template
merge by multi-aggregate select.  ``pred_column`` templates do not merge
(their members filter different columns).

This module plans; :meth:`ExecutionPlan.run` executes through
:func:`repro.execution.batch.run_plan`, the one loop over a plan's
groups, and keeps the batch→per-group rung of the degradation ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ExecutionError, TransientError
from repro.resilience import (
    current_deadline,
    exception_reason,
    record_degradation,
)
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.caching import QueryResultCache
from repro.nlq.templates import QueryTemplate, templates_of
from repro.sqldb.database import Database
from repro.sqldb.expressions import format_literal
from repro.sqldb.query import AggregateQuery

_MERGEABLE_KINDS = ("pred_value", "agg_func", "agg_column")


@dataclass(frozen=True)
class MergedGroup:
    """One execution unit: either a merged query or a singleton."""

    sql: str
    queries: tuple[AggregateQuery, ...]
    template: QueryTemplate | None
    estimated_cost: float

    @property
    def is_merged(self) -> bool:
        return len(self.queries) > 1


@dataclass(frozen=True)
class ExecutionPlan:
    """All groups needed to answer a set of candidate queries."""

    groups: tuple[MergedGroup, ...]
    estimated_cost: float
    unmerged_cost: float = field(default=0.0)

    def run(self, database: Database,
            sample_fraction: float | None = None,
            cache: "QueryResultCache | None" = None,
            request_ctx=None,
            ) -> dict[AggregateQuery, float | None]:
        """Execute every group; returns per-query results.

        A query whose group yields no row for it (e.g. the predicate value
        does not occur in the data) maps to ``0.0`` for COUNT/SUM and
        ``None`` (SQL NULL) otherwise.  ``sample_fraction`` appends a
        ``TABLESAMPLE`` clause to every group for approximate processing.
        ``cache`` short-circuits group execution on normalised-SQL hits
        (sampled statements carry their fraction in the SQL text, so exact
        and approximate runs never share an entry).

        The groups run through :func:`repro.execution.batch.run_plan`,
        which shares predicate masks and GROUP BY factorisations across
        groups.  ``request_ctx`` (from :func:`repro.execution.batch
        .request_context`) shares that work across several plans of the
        same request — the progressive strategies run one plan per
        emitted update; without one, a fresh context is made.
        """
        from repro.execution import batch as batch_executor
        try:
            fault_point("executor.batch")
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("executor.batch")
            if request_ctx is None:
                request_ctx = batch_executor.request_context(database)
            return batch_executor.run_plan(
                self, database, sample_fraction=sample_fraction,
                cache=cache, ctx=request_ctx)
        except TransientError as exc:
            # batch→per-group rung: a transient failure of the shared
            # path re-runs the plan without shared work, one group at a
            # time, for bit-identical results.  Deadline exhaustion is
            # NOT handled here — per-group is the *slower* path, so the
            # caller must shrink the multiplot instead.
            record_degradation("executor", "batch_to_per_group",
                               exception_reason(exc))
        return batch_executor.run_plan(
            self, database, sample_fraction=sample_fraction, cache=cache)


def candidate_processing_groups(database: Database, candidates):
    """Processing groups for the processing-cost-aware ILP (Section 8.1).

    One :class:`~repro.core.ilp.ProcessingGroup` per (merged) execution
    unit of the candidates' queries, costed by the optimizer.  Pass the
    result to :meth:`IlpSolver.solve` (or a planner with a positive
    ``processing_weight``) to let planning trade disambiguation cost
    against processing cost.
    """
    from repro.core.ilp import ProcessingGroup
    queries = [c.query for c in candidates]
    index_of = {c.query: i for i, c in enumerate(candidates)}
    plan = plan_execution(database, queries, merge=True)
    return [
        ProcessingGroup(
            cost=group.estimated_cost,
            candidate_indices=frozenset(index_of[q]
                                        for q in group.queries))
        for group in plan.groups
    ]


def plan_execution(database: Database,
                   queries: list[AggregateQuery],
                   merge: bool = True) -> ExecutionPlan:
    """Group *queries* into (merged) execution units.

    With ``merge=False`` every query runs separately (the Figure 7
    baseline).  Otherwise groups are formed greedily largest-first over the
    mergeable templates and each group is kept merged only if its estimated
    cost undercuts the sum of its members' standalone costs.
    """
    unique = list(dict.fromkeys(queries))
    standalone_cost = {q: database.estimated_cost(q) for q in unique}
    unmerged_total = sum(standalone_cost.values())
    if not merge:
        groups = tuple(
            MergedGroup(q.to_sql(), (q,), None, standalone_cost[q])
            for q in unique)
        return ExecutionPlan(groups, unmerged_total, unmerged_total)

    by_template: dict[QueryTemplate, list[AggregateQuery]] = {}
    for query in unique:
        columns = [p.column.lower() for p in query.predicates]
        for template in templates_of(query):
            if template.kind not in _MERGEABLE_KINDS:
                continue
            # A member's GROUP BY row is looked up by its (first)
            # predicate on the anchor, so a query filtering the anchor
            # column twice cannot be answered from a pred_value group.
            if template.kind == "pred_value" \
                    and columns.count(str(template.anchor).lower()) > 1:
                continue
            by_template.setdefault(template, []).append(query)

    assigned: set[AggregateQuery] = set()
    groups: list[MergedGroup] = []
    # Largest groups first: they share the most work.
    for template, members in sorted(
            by_template.items(),
            key=lambda item: (-len(item[1]), item[0].title())):
        open_members = [q for q in members if q not in assigned]
        if len(open_members) < 2:
            continue
        sql = _merged_sql(template, open_members)
        merged_cost = database.estimated_cost(sql)
        separate_cost = sum(standalone_cost[q] for q in open_members)
        if merged_cost >= separate_cost:
            continue  # optimizer says merging does not pay off
        groups.append(MergedGroup(sql, tuple(open_members), template,
                                  merged_cost))
        assigned.update(open_members)
    for query in unique:
        if query not in assigned:
            groups.append(MergedGroup(query.to_sql(), (query,), None,
                                      standalone_cost[query]))
    total = sum(group.estimated_cost for group in groups)
    return ExecutionPlan(tuple(groups), total, unmerged_total)


# ---------------------------------------------------------------------------
# SQL construction per template kind
# ---------------------------------------------------------------------------


def _merged_sql(template: QueryTemplate,
                members: list[AggregateQuery]) -> str:
    if template.kind == "pred_value":
        values = sorted({m.predicate_on(str(template.anchor)).value
                         for m in members}, key=repr)
        in_list = ", ".join(format_literal(v) for v in values)
        conditions = [p.to_sql() for p in template.fixed_predicates]
        conditions.append(f"{template.anchor} IN ({in_list})")
        assert template.agg_func is not None
        agg = members[0].aggregate.to_sql()
        where = " AND ".join(sorted(conditions))
        return (f"SELECT {template.anchor}, {agg} FROM {template.table} "
                f"WHERE {where} GROUP BY {template.anchor}")
    # agg_func / agg_column: several aggregates over one shared filter.
    aggregates = sorted({m.aggregate.to_sql() for m in members})
    select_list = ", ".join(aggregates)
    sql = f"SELECT {select_list} FROM {template.table}"
    if template.fixed_predicates:
        where = " AND ".join(sorted(p.to_sql()
                                    for p in template.fixed_predicates))
        sql += f" WHERE {where}"
    return sql


def _with_sample(sql: str, fraction: float) -> str:
    """Insert a TABLESAMPLE clause after the FROM table reference."""
    upper = sql.upper()
    from_at = upper.index(" FROM ")
    rest = sql[from_at + 6:]
    parts = rest.split(" ", 1)
    table = parts[0]
    tail = f" {parts[1]}" if len(parts) > 1 else ""
    clause = f" TABLESAMPLE BERNOULLI ({fraction * 100:.6f})"
    return sql[:from_at + 6] + table + clause + tail


def _extract_group_results(group: MergedGroup, outcome,
                           results: dict[AggregateQuery, float | None],
                           ) -> None:
    template = group.template
    if template is None or not group.is_merged:
        query = group.queries[0]
        value = outcome.rows[0][0] if outcome.rows else None
        results[query] = _normalize(query, value)
        return
    if template.kind == "pred_value":
        anchor = str(template.anchor)
        key_index = outcome.column_index(anchor)
        value_index = 1 - key_index if len(outcome.columns) == 2 else 1
        by_key: dict[Any, float] = {
            row[key_index]: row[value_index] for row in outcome.rows}
        for query in group.queries:
            predicate = query.predicate_on(anchor)
            results[query] = _normalize(query,
                                        by_key.get(predicate.value))
        return
    # Multi-aggregate select: one row, one column per aggregate.
    if not outcome.rows:
        raise ExecutionError(
            f"merged query returned no row: {group.sql!r}")
    row = outcome.rows[0]
    for query in group.queries:
        index = outcome.column_index(query.aggregate.to_sql())
        results[query] = _normalize(query, row[index])


def _normalize(query: AggregateQuery,
               value: float | None) -> float | None:
    """Missing groups: COUNT/SUM over zero rows is 0, others are NULL."""
    if value is not None:
        return float(value)
    func = query.aggregate.func.value
    if func in ("count", "sum"):
        return 0.0
    return None
