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

Every group carries its statement as a parse tree
(:class:`~repro.sqldb.parser.SelectStatement`), built by
:func:`group_statement` — the one builder of merged statements, which
the line-plot executor shares — and costed, bound, cached and run in
that form; no SQL text is rendered or parsed on the way.

This module plans; :meth:`ExecutionPlan.run` executes through
:func:`repro.execution.batch.run_plan`, the one loop over a plan's
groups, and keeps the batch→per-group rung of the degradation ladder
(a transient failure re-runs that loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

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
from repro.sqldb.expressions import (
    BooleanExpr,
    Comparison,
    ComparisonOp,
    InList,
    conjunction,
)
from repro.sqldb.parser import SelectStatement
from repro.sqldb.query import AggregateQuery

_MERGEABLE_KINDS = ("pred_value", "agg_func", "agg_column")


@dataclass(frozen=True)
class MergedGroup:
    """One execution unit: either a merged query or a singleton."""

    statement: SelectStatement
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
            ) -> dict[AggregateQuery, float | None]:
        """Execute every group; returns per-query results.

        A query whose group yields no row for it (e.g. the predicate value
        does not occur in the data) maps to ``0.0`` for COUNT/SUM and
        ``None`` (SQL NULL) otherwise.  ``sample_fraction`` adds a
        ``TABLESAMPLE`` clause to every group for approximate processing.
        ``cache`` short-circuits group execution on statement hits
        (sampled statements carry their fraction, so exact and
        approximate runs never share an entry).

        The groups run through :func:`repro.execution.batch.run_plan`,
        their leaf selections shared through the database's selection
        cache.  A transient failure (the ``executor.batch`` fault point
        or any group) takes the batch→per-group rung of the degradation
        ladder: the same loop runs once more, for results identical to
        an undegraded run.
        """
        from repro.execution.batch import run_plan
        try:
            fault_point("executor.batch")
            deadline = current_deadline()
            if deadline is not None:
                deadline.check("executor.batch")
            return run_plan(self, database, sample_fraction=sample_fraction,
                            cache=cache)
        except TransientError as exc:
            # Deadline exhaustion is NOT handled here: re-running costs
            # time, so the caller must shrink the multiplot instead.
            record_degradation("executor", "batch_to_per_group",
                               exception_reason(exc))
        return run_plan(self, database, sample_fraction=sample_fraction,
                        cache=cache)


def candidate_processing_groups(database: Database, candidates):
    """Processing groups for the processing-cost-aware ILP (Section 8.1).

    One :class:`~repro.core.ilp.ProcessingGroup` per (merged) execution
    unit of the candidates' queries, costed by the optimizer.  Pass the
    result to :meth:`IlpSolver.solve` (with a processing budget, or on a
    solver with a positive ``processing_weight``) to let planning trade
    disambiguation cost against processing cost.
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
            MergedGroup(q.to_statement(), (q,), None, standalone_cost[q])
            for q in unique)
        return ExecutionPlan(groups, unmerged_total, unmerged_total)

    by_template: dict[QueryTemplate, list[AggregateQuery]] = {}
    for query in unique:
        for template in templates_of(query):
            if can_merge(template, query):
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
        statement = group_statement(template, open_members)
        merged_cost = database.estimated_cost(statement)
        separate_cost = sum(standalone_cost[q] for q in open_members)
        if merged_cost >= separate_cost:
            continue  # optimizer says merging does not pay off
        groups.append(MergedGroup(statement, tuple(open_members), template,
                                  merged_cost))
        assigned.update(open_members)
    for query in unique:
        if query not in assigned:
            groups.append(MergedGroup(query.to_statement(), (query,), None,
                                      standalone_cost[query]))
    total = sum(group.estimated_cost for group in groups)
    return ExecutionPlan(tuple(groups), total, unmerged_total)


# ---------------------------------------------------------------------------
# Statement construction per template kind
# ---------------------------------------------------------------------------


def can_merge(template: QueryTemplate, query: AggregateQuery) -> bool:
    """Whether *query* can be answered from *template*'s merged statement.

    ``pred_column`` templates never merge (their members filter different
    columns).  A member's GROUP BY row is looked up by its (first)
    predicate on the anchor, so a query filtering the anchor column twice
    cannot be answered from a ``pred_value`` group; it runs on its own.
    """
    if template.kind != "pred_value":
        return template.kind in _MERGEABLE_KINDS
    anchor = str(template.anchor).lower()
    return sum(p.column.lower() == anchor for p in query.predicates) < 2


def group_statement(template: QueryTemplate | None,
                    members: Sequence[AggregateQuery],
                    x_column: str | None = None) -> SelectStatement:
    """The one statement answering every query in *members*.

    Without a template (or with one member) that is the member's own
    statement; a ``pred_value`` template gives ``anchor IN (...)`` plus
    ``GROUP BY anchor``; ``agg_func``/``agg_column`` templates give one
    output aggregate per member over the shared filter.  *x_column*
    adds a leading grouping column, so line plots get every series'
    points per x value from the same builder.
    """
    extra = () if x_column is None else (x_column,)
    if template is None or len(members) == 1:
        statement = members[0].to_statement()
        if extra:
            statement = replace(statement, select_columns=extra,
                                group_by=extra)
        return statement
    conditions: list[BooleanExpr] = [
        Comparison(p.column, ComparisonOp.EQ, p.value)
        for p in template.fixed_predicates]
    if template.kind == "pred_value":
        anchor = str(template.anchor)
        values = sorted({m.predicate_on(anchor).value for m in members},
                        key=repr)
        conditions.append(InList(anchor, tuple(values)))
        columns = extra + (anchor,)
        return SelectStatement(
            template.table, (members[0].aggregate,), group_by=columns,
            where=_in_sql_order(conditions), select_columns=columns)
    # agg_func / agg_column: several aggregates over one shared filter.
    aggregates = sorted({m.aggregate for m in members},
                        key=lambda call: call.to_sql())
    return SelectStatement(
        template.table, tuple(aggregates), group_by=extra,
        where=_in_sql_order(conditions), select_columns=extra)


def _in_sql_order(conditions: list[BooleanExpr]) -> BooleanExpr | None:
    """The conjunction of *conditions*, ordered by their SQL text.

    A canonical order makes a group's statement — and so its cost
    estimate and TABLESAMPLE draw — independent of member order.
    """
    return conjunction(sorted(conditions, key=lambda c: c.to_sql()))


def sampled(statement: SelectStatement,
            fraction: float) -> SelectStatement:
    """*statement* with ``TABLESAMPLE BERNOULLI`` at *fraction*.

    The percentage is rounded to six decimals, so fractions that differ
    only below that share one statement (one cache entry, one draw).
    """
    return replace(statement,
                   sample_fraction=float(f"{fraction * 100:.6f}") / 100)


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
            f"merged query returned no row: {group.statement.to_sql()!r}")
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
