"""The per-group reference oracle for plan execution.

Production answers a plan through one loop whose groups share leaf
selections through the database's selection cache
(:func:`repro.execution.batch.run_plan`), handing the engine statements
built by :func:`repro.execution.merging.group_statement`.  The reference
it must match bit for bit is the plainest possible execution: every
group rendered to SQL text by the string builders below, which are
independent of the statement builder, and run through
:meth:`Database.execute` on its own, on a twin of the database that
keeps no leaf selection (:func:`tests.sqldb.scan_oracle.memo_free`), so
the oracle never reads the memo it checks; rows are mapped back to the
member queries by the same ``_extract_group_results`` production uses.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import NullAggregateError
from repro.execution.merging import (
    ExecutionPlan,
    _extract_group_results,
    _normalize,
)
from repro.sqldb.expressions import format_literal
from repro.sqldb.parser import parse
from tests.sqldb import scan_oracle


def _merged_sql(template, members) -> str:
    """SQL text of one merged group, per template kind."""
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


def group_sql(group, sample_fraction=None) -> str:
    """SQL text of *group*, sampled when *sample_fraction* < 1."""
    if group.is_merged:
        sql = _merged_sql(group.template, group.queries)
    else:
        sql = group.queries[0].to_sql()
    if sample_fraction is not None and sample_fraction < 1.0:
        sql = _with_sample(sql, sample_fraction)
    return sql


def run_per_group(plan, database, sample_fraction=None, cache=None):
    """Execute *plan* one group at a time on a memo-free twin of
    *database*; returns per-query results."""
    execute = scan_oracle.memo_free(database).execute

    results = {}
    for group in plan.groups:
        sql = group_sql(group, sample_fraction)
        try:
            if cache is None:
                outcome = execute(sql)
            else:
                outcome = cache.get_or_execute(parse(sql), execute)
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
            lambda self, database, sample_fraction=None, cache=None:
            run_per_group(self, database, sample_fraction, cache))
        yield
